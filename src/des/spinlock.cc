#include "des/spinlock.h"

#include <cmath>

#include "base/logging.h"

namespace rio::des {

Cycles
SimSpinlock::acquire(Core *core, cycles::CycleAccount *acct)
{
    RIO_ASSERT(!held_, "recursive acquire of SimSpinlock ", name_);
    held_ = true;
    waited_ = false;
    ++stats_.acquisitions;
    if (!core)
        return 0;

    const Nanos now = core->virtualNow();
    if (now >= free_at_)
        return 0;

    // Spin until the previous critical section's virtual end. Charging
    // the wait advances the core's virtualNow() to (at least) the
    // grant time, so the critical section that follows is serialized
    // after the previous holder's in simulated time.
    const Nanos wait_ns = free_at_ - now;
    const Cycles wait = static_cast<Cycles>(
        std::ceil(static_cast<double>(wait_ns) * cost_.core_ghz));
    if (acct)
        acct->charge(cycles::Cat::kLockWait, wait);
    ++stats_.contended;
    stats_.wait_cycles += wait;
    waited_ = true;
    core->emitInPlace([&](obs::Event &e) {
        e.kind = obs::Ev::kLockAcquire;
        e.t = core->virtualNow(); // the charge above advanced it to grant
        e.dur_ns = free_at_ - now;
        e.arg = wait;
    });
    return wait;
}

void
SimSpinlock::release(Core *core)
{
    RIO_ASSERT(held_, "release of unheld SimSpinlock ", name_);
    held_ = false;
    if (!core)
        return;
    const Nanos now = core->virtualNow();
    if (now > free_at_)
        free_at_ = now;
    // Only a scope that waited is on record: its release closes the
    // kLockAcquire span, and uncontended scopes leave the ring alone.
    if (!waited_)
        return;
    core->emitInPlace([&](obs::Event &e) {
        e.kind = obs::Ev::kLockRelease;
        e.t = now;
    });
}

} // namespace rio::des
