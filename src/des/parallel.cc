#include "des/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "base/logging.h"
#include "obs/trace_ctx.h"

namespace rio::des {

void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    const size_t width = std::min<size_t>(threads, n);
    if (width <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
#if defined(__GLIBC__)
    // Earlier workers' malloc arenas outlive them and keep what their
    // jobs freed. New threads adopt those arenas in host scheduling
    // order and claim indices as they come free, so how much of that
    // cached memory this call would reuse, and so its peak RSS, varied
    // by megabytes from one process to the next. Handing the free
    // memory back first starts every threaded call from the same state.
    malloc_trim(0);
#endif
    std::atomic<size_t> next{0};
    const auto claim = [&] {
        for (size_t i = next++; i < n; i = next++)
            fn(i);
    };
    // Declared after what the workers use: a jthread joins when it is
    // destroyed, so every return path, exceptions included, joins.
    std::vector<std::jthread> workers;
    workers.reserve(width - 1);
    for (size_t t = 1; t < width; ++t)
        workers.emplace_back(claim);
    claim(); // the caller is a worker too
}

void
Lane::sendTo(Lane &dst, Nanos when, Simulator::Callback fn)
{
    RIO_ASSERT(engine_.coupled(),
               "cross-lane mail needs a coupled engine (setLookahead)");
    RIO_ASSERT(&dst.engine_ == &engine_, "mail to another engine's lane");
    // The sender's trace travels in the event's slot: the delivery and
    // every event it emits attribute to the same distributed op.
    engine_.shared_.scheduleMail(when, id_, std::move(fn),
                                 obs::currentTrace());
}

Lane &
ParallelEngine::addLane()
{
    lanes_.push_back(
        std::make_unique<Lane>(static_cast<u32>(lanes_.size()), *this));
    return *lanes_.back();
}

void
ParallelEngine::setLookahead(Nanos l)
{
    for (const auto &lane : lanes_)
        RIO_ASSERT(lane->sim_.idle() && lane->sim_.eventsRun() == 0,
                   "set the lookahead before scheduling on any lane");
    shared_.setLookahead(l);
}

void
ParallelEngine::run()
{
    runUntil(Simulator::kNoEvent);
}

void
ParallelEngine::runUntil(Nanos deadline)
{
    if (coupled()) {
        shared_.runUntil(deadline);
        return;
    }
    // No mail: each lane is an independent job, run to the deadline in
    // one window on any thread.
    Nanos next = Simulator::kNoEvent;
    for (const auto &l : lanes_)
        next = std::min(next, l->sim_.nextEventTime());
    const bool work = next != Simulator::kNoEvent && next <= deadline;
    if (work)
        ++rounds_;
    parallelFor(lanes_.size(), work ? threads_ : 1,
                [&](size_t i) { lanes_[i]->sim_.runUntil(deadline); });
}

u64
ParallelEngine::eventsRun() const
{
    if (coupled())
        return shared_.eventsRun();
    u64 n = 0;
    for (const auto &l : lanes_)
        n += l->sim_.eventsRun();
    return n;
}

} // namespace rio::des
