#include "des/spinlock.h"

#include <cmath>

#include "base/logging.h"
#include "obs/timeline.h"

namespace rio::des {

Cycles
SimSpinlock::acquire(Core *core, cycles::CycleAccount *acct)
{
    RIO_ASSERT(!held_, "recursive acquire of SimSpinlock ", name_);
    held_ = true;
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
    obs::timeline().emitInPlace([&](obs::Event &e) {
        e.kind = obs::Ev::kLockAcquire;
        e.t = core->virtualNow(); // the charge above advanced it to grant
        e.dur_ns = free_at_ - now;
        e.arg = wait;
        e.pid = core->obsPid();
        e.tid = core->obsTid();
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
    obs::timeline().emitInPlace([&](obs::Event &e) {
        e.kind = obs::Ev::kLockRelease;
        e.t = now;
        e.pid = core->obsPid();
        e.tid = core->obsTid();
    });
}

} // namespace rio::des
