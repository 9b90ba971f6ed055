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
    RIO_ASSERT(fn, "sending null mail");
    RIO_ASSERT(engine_.coupled(),
               "cross-lane mail needs a coupled engine (setLookahead)");
    // Capture the sender's trace context so the receiving lane's
    // callback — and every event it emits — attributes to the same
    // distributed op. Host-side metadata only.
    dst.inbox_.push_back(
        Mail{when, id_, send_seq_++, obs::currentTrace(), std::move(fn)});
}

Nanos
Lane::earliestMail() const
{
    Nanos t = Simulator::kNoEvent;
    for (const Mail &m : inbox_)
        t = std::min(t, m.when);
    return t;
}

void
Lane::drainInbox()
{
    // Total order fixed by simulation content: timestamp, then
    // sending lane, then the sender's own sequence.
    std::sort(inbox_.begin(), inbox_.end(),
              [](const Mail &a, const Mail &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Mail &m : inbox_) {
        // The conservative invariant: drains happen at window
        // barriers, where this lane's clock sits exactly at the end
        // of the last window it ran. Mail sent inside that window
        // from an event at t >= window start carries
        // when = t + wire >= start + lookahead = window end, so
        // when >= now() holds (with equality exactly in the
        // wire == lookahead boundary case). Anything earlier means
        // the wire undercut the configured lookahead.
        RIO_ASSERT(m.when >= sim_.now(),
                   "cross-lane message in the past: when=", m.when,
                   " lane now=", sim_.now(),
                   " (wire latency below engine lookahead?)");
        if (m.trace == 0) {
            sim_.scheduleAt(m.when, std::move(m.fn));
        } else {
            // Re-establish the sender's trace context around the
            // delivery so cross-lane hops keep the op attribution.
            sim_.scheduleAt(m.when,
                            [t = m.trace, fn = std::move(m.fn)]() mutable {
                                obs::TraceScope scope(t);
                                fn();
                            });
        }
        ++mail_delivered_;
    }
    inbox_.clear();
}

Lane &
ParallelEngine::addLane()
{
    lanes_.push_back(
        std::make_unique<Lane>(static_cast<u32>(lanes_.size()), *this));
    return *lanes_.back();
}

Nanos
ParallelEngine::nextTime() const
{
    Nanos next = Simulator::kNoEvent;
    for (const auto &l : lanes_) {
        next = std::min(next, l->sim().nextEventTime());
        next = std::min(next, l->earliestMail());
    }
    return next;
}

void
ParallelEngine::runWindow(Nanos window_end)
{
    ++rounds_;
    if (!coupled()) {
        // No mail and a single window: each lane is an independent
        // job, so it may run on any thread.
        parallelFor(lanes_.size(), threads_, [&](size_t i) {
            lanes_[i]->sim().runUntil(window_end);
        });
        return;
    }
    // Deliver all queued mail before any lane starts the window, while
    // every lane is quiescent: each message is scheduled in exactly
    // one batch — the barrier following the window that sent it — and
    // the drain order (ascending lane index) fixes the receiving
    // simulators' FIFO sequence numbers.
    for (auto &l : lanes_)
        l->drainInbox();
    for (auto &l : lanes_)
        l->sim().runUntil(window_end);
}

void
ParallelEngine::run()
{
    runUntil(Simulator::kNoEvent);
}

void
ParallelEngine::runUntil(Nanos deadline)
{
    for (;;) {
        const Nanos next = nextTime();
        if (next == Simulator::kNoEvent || next > deadline)
            break;
        // Conservative horizon; saturate instead of wrapping so an
        // "infinite" lookahead or a late event cannot overflow.
        Nanos horizon = Simulator::kNoEvent;
        if (lookahead_ != Simulator::kNoEvent &&
            next <= Simulator::kNoEvent - lookahead_)
            horizon = next + lookahead_;
        else if (lookahead_ != Simulator::kNoEvent)
            horizon = Simulator::kNoEvent;
        runWindow(std::min(horizon, deadline));
    }
    if (deadline != Simulator::kNoEvent) {
        // No runnable work remains before the deadline; advance every
        // lane's clock to it (same contract as Simulator::runUntil).
        for (auto &l : lanes_)
            l->sim().runUntil(deadline);
    }
}

u64
ParallelEngine::eventsRun() const
{
    u64 n = 0;
    for (const auto &l : lanes_)
        n += l->sim().eventsRun();
    return n;
}

u64
ParallelEngine::messagesDelivered() const
{
    u64 n = 0;
    for (const auto &l : lanes_)
        n += l->mailDelivered();
    return n;
}

} // namespace rio::des
