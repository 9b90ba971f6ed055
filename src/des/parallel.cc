#include "des/parallel.h"

#include <algorithm>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "base/logging.h"
#include "obs/trace_ctx.h"

namespace rio::des {

void
Lane::sendTo(Lane &dst, Nanos when, Simulator::Callback fn)
{
    RIO_ASSERT(fn, "sending null mail");
    const u64 seq = send_seq_++;
    // Capture the sender's trace context so the receiving lane's
    // callback — and every event it emits — attributes to the same
    // distributed op. Host-side metadata only.
    const u64 trace = obs::currentTrace();
    std::lock_guard<std::mutex> g(dst.inbox_mu_);
    dst.inbox_.push_back(Mail{when, id_, seq, trace, std::move(fn)});
}

Nanos
Lane::earliestMail()
{
    std::lock_guard<std::mutex> g(inbox_mu_);
    Nanos t = Simulator::kNoEvent;
    for (const Mail &m : inbox_)
        t = std::min(t, m.when);
    return t;
}

void
Lane::drainInbox()
{
    std::vector<Mail> mail;
    {
        std::lock_guard<std::mutex> g(inbox_mu_);
        mail.swap(inbox_);
    }
    if (mail.empty())
        return;
    // Total order fixed by simulation content, not thread timing:
    // timestamp, then sending lane, then the sender's own sequence.
    std::sort(mail.begin(), mail.end(),
              [](const Mail &a, const Mail &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Mail &m : mail) {
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
}

ParallelEngine::ParallelEngine(unsigned threads)
    : threads_(threads == 0 ? 1 : threads)
{
}

ParallelEngine::~ParallelEngine()
{
    if (pool_.empty())
        return;
    {
        std::lock_guard<std::mutex> g(pool_mu_);
        stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread &t : pool_)
        t.join();
}

Lane &
ParallelEngine::addLane()
{
    lanes_.push_back(
        std::make_unique<Lane>(static_cast<u32>(lanes_.size())));
    return *lanes_.back();
}

Nanos
ParallelEngine::nextTime()
{
    Nanos next = Simulator::kNoEvent;
    for (auto &l : lanes_) {
        next = std::min(next, l->sim().nextEventTime());
        next = std::min(next, l->earliestMail());
    }
    return next;
}

void
ParallelEngine::laneWindow(Lane &lane, Nanos window_end)
{
    // No inbox access here: mail is delivered only at the barrier in
    // runWindow(), while every lane is quiescent. Draining from
    // inside the window would race with concurrent senders — mail
    // timestamped exactly at the horizon (wire == lookahead) would
    // land in the current or the next drain batch depending on
    // thread scheduling, perturbing the (when, src, seq) order.
    lane.sim().runUntil(window_end);
}

void
ParallelEngine::startPoolOnce()
{
    if (!pool_.empty() || threads_ <= 1)
        return;
#if defined(__GLIBC__)
    // Earlier workers' malloc arenas outlive them and keep what their
    // lanes freed. New threads adopt those arenas in host scheduling
    // order and claim lanes as they come free, so how much of that
    // cached memory this run would reuse, and so its peak RSS, varied
    // by megabytes from one process to the next. Handing the free
    // memory back first starts every threaded run from the same state.
    malloc_trim(0);
#endif
    pool_.reserve(threads_ - 1);
    for (unsigned i = 0; i + 1 < threads_; ++i)
        pool_.emplace_back([this] { workerLoop(); });
}

void
ParallelEngine::workerLoop()
{
    u64 seen = 0;
    for (;;) {
        Nanos window_end;
        {
            std::unique_lock<std::mutex> g(pool_mu_);
            cv_work_.wait(g, [&] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
            window_end = window_end_;
        }
        for (;;) {
            const size_t i =
                next_lane_.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes_.size())
                break;
            laneWindow(*lanes_[i], window_end);
        }
        {
            std::lock_guard<std::mutex> g(pool_mu_);
            ++workers_done_;
        }
        cv_done_.notify_one();
    }
}

void
ParallelEngine::runWindow(Nanos window_end)
{
    ++rounds_;
    // Deliver all queued mail before any lane starts the window.
    // Every lane is quiescent at this point (between windows), so no
    // sendTo can race the drain: each message is scheduled in exactly
    // one deterministic batch — the barrier following the window that
    // sent it — and the per-lane drain order (ascending lane index on
    // this one thread) fixes the receiving simulators' FIFO sequence
    // numbers independent of thread count or scheduling.
    for (auto &l : lanes_)
        l->drainInbox();
    if (threads_ <= 1 || lanes_.size() <= 1) {
        for (auto &l : lanes_)
            laneWindow(*l, window_end);
        return;
    }
    startPoolOnce();
    {
        std::lock_guard<std::mutex> g(pool_mu_);
        window_end_ = window_end;
        workers_done_ = 0;
        next_lane_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    cv_work_.notify_all();
    // The caller is a worker too.
    for (;;) {
        const size_t i = next_lane_.fetch_add(1, std::memory_order_relaxed);
        if (i >= lanes_.size())
            break;
        laneWindow(*lanes_[i], window_end);
    }
    std::unique_lock<std::mutex> g(pool_mu_);
    cv_done_.wait(g, [&] { return workers_done_ == pool_.size(); });
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
