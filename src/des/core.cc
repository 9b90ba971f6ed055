#include "des/core.h"

#include <utility>

#include "base/logging.h"

namespace rio::des {

void
Core::post(EventFn fn)
{
    RIO_ASSERT(fn, "posting null work");
    queue_.push(std::move(fn));
    if (!scheduled_)
        scheduleNext();
}

void
Core::scheduleNext()
{
    if (queue_.empty())
        return;
    scheduled_ = true;
    const Nanos start = std::max(sim_.now(), free_at_);
    sim_.scheduleAt(start, [this] { runOne(); });
}

void
Core::runOne()
{
    RIO_ASSERT(!queue_.empty(), "core woke with no work");
    EventFn fn = queue_.pop();

    in_item_ = true;
    item_start_time_ = sim_.now();
    item_start_cycles_ = acct_.total();
    const Cycles before = acct_.total();
    fn();
    in_item_ = false;
    const Cycles spent = acct_.total() - before;
    busy_cycles_ += spent;
    ++items_run_;
    // The work completes after its charged duration; follow-up items
    // start no earlier.
    free_at_ = sim_.now() +
               static_cast<Nanos>(static_cast<double>(spent) /
                                  cost_.core_ghz);
    scheduled_ = false;
    scheduleNext();
}

} // namespace rio::des
