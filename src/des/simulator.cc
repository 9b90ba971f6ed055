#include "des/simulator.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "obs/trace_ctx.h"

namespace rio::des {

u32
Simulator::allocSlot()
{
    if (!free_slots_.empty()) {
        const u32 idx = free_slots_.back();
        free_slots_.pop_back();
        return idx;
    }
    slots_.emplace_back();
    return static_cast<u32>(slots_.size() - 1);
}

void
Simulator::freeSlot(u32 idx)
{
    Slot &s = slots_[idx];
    s.fn.clear();
    s.armed = false;
    ++s.gen; // old EventIds (and stale heap entries) stop matching
    free_slots_.push_back(idx);
}

EventId
Simulator::push(Nanos when, u64 order, Callback cb, u64 trace)
{
    RIO_ASSERT(cb, "scheduling a null callback");
    const u32 idx = allocSlot();
    Slot &s = slots_[idx];
    s.fn = std::move(cb);
    s.trace = trace;
    s.armed = true;
    queue_.push(QEntry{when, order, idx, s.gen});
    ++live_events_;
    return packId(idx, s.gen);
}

EventId
Simulator::scheduleAt(Nanos when, Callback cb)
{
    RIO_ASSERT(when >= now_, "scheduling into the past: when=", when,
               " now=", now_);
    return push(when, next_order_++, std::move(cb), 0);
}

EventId
Simulator::scheduleAfter(Nanos delay, Callback cb)
{
    return scheduleAt(now_ + delay, std::move(cb));
}

void
Simulator::setLookahead(Nanos lookahead)
{
    RIO_ASSERT(queue_.empty() && events_run_ == 0,
               "set the lookahead before scheduling anything");
    lookahead_ = lookahead;
}

void
Simulator::scheduleMail(Nanos when, u32 src, Callback cb, u64 trace)
{
    RIO_ASSERT(windowed(), "mail needs windows (setLookahead)");
    // Mail sent at t >= (window start) lands at t + wire >= window end
    // (equality: wire == lookahead, run by the next window); between
    // calls the clock is the bound. Earlier, the wire undercut the
    // lookahead.
    RIO_ASSERT(when >= std::max(window_end_, now_),
               "cross-lane message in the past: when=", when,
               " window end=", std::max(window_end_, now_),
               " (wire latency below engine lookahead?)");
    RIO_ASSERT(src < kMaxMailSrc, "mail from lane ", src,
               " beyond the queue's lane field");
    RIO_ASSERT(window_mail_ < kMaxMailPerWindow,
               "more mail in one window than the queue numbers");
    const u64 order = (windows_ + 1) << 32 |
                      static_cast<u64>(src) << kMailSrcShift | window_mail_++;
    push(when, order, std::move(cb), trace);
}

bool
Simulator::cancel(EventId id)
{
    const u64 hi = id >> 32;
    if (hi == 0 || hi > slots_.size())
        return false;
    const u32 idx = static_cast<u32>(hi - 1);
    const u32 gen = static_cast<u32>(id);
    Slot &s = slots_[idx];
    if (!s.armed || s.gen != gen)
        return false; // already fired, cancelled, or pre-reset
    freeSlot(idx);
    --live_events_;
    ++stale_in_queue_; // its heap entry remains until popped/compacted
    compactIfStale();
    return true;
}

void
Simulator::compactIfStale()
{
    // Lazy deletion keeps cancel O(1), but a cancel-heavy workload
    // (1M armed-then-cancelled timers) must not keep dead heap
    // entries around forever: rebuild once they dominate.
    if (stale_in_queue_ < 64 || stale_in_queue_ * 2 < queue_.size())
        return;
    std::vector<QEntry> live;
    live.reserve(queue_.size() - stale_in_queue_);
    while (!queue_.empty()) {
        const QEntry &e = queue_.top();
        if (liveEntry(e))
            live.push_back(e);
        queue_.pop();
    }
    queue_ = std::priority_queue<QEntry, std::vector<QEntry>, Later>(
        Later{}, std::move(live));
    stale_in_queue_ = 0;
}

const Simulator::QEntry *
Simulator::liveTop()
{
    while (!queue_.empty()) {
        const QEntry &top = queue_.top();
        if (liveEntry(top))
            return &top;
        queue_.pop();
        --stale_in_queue_;
    }
    return nullptr;
}

Nanos
Simulator::nextEventTime()
{
    const QEntry *top = liveTop();
    return top ? top->when : kNoEvent;
}

void
Simulator::openWindow(Nanos first, Nanos deadline)
{
    // Local events running into the next window's mail would reorder.
    RIO_ASSERT(next_order_ >> 32 == windows_ && windows_ < 0xffffffffu,
               "window numbering overflowed");
    ++windows_;
    mail_delivered_ += window_mail_; // as the barrier drain counted it
    window_mail_ = 0;
    // Saturate so a late event cannot wrap.
    const Nanos horizon =
        first <= kNoEvent - lookahead_ ? first + lookahead_ : kNoEvent;
    window_end_ = std::min(horizon, deadline);
    next_order_ = windows_ << 32 | kLocal;
}

void
Simulator::run()
{
    runUntil(kNoEvent);
}

void
Simulator::runUntil(Nanos deadline)
{
    bool opened = false; // every call opens a fresh window
    EventFn fn;
    while (const QEntry *top = liveTop()) {
        if (top->when > deadline)
            break;
        if (windowed() && (!opened || top->when > window_end_ ||
                           top->order >> 32 > windows_)) {
            openWindow(top->when, deadline);
            opened = true;
        }
        const u32 idx = top->slot;
        now_ = top->when;
        queue_.pop();
        Slot &s = slots_[idx];
        fn = std::move(s.fn);
        const u64 trace = s.trace;
        freeSlot(idx);
        --live_events_;
        ++events_run_;
        if (trace == 0) {
            fn();
        } else {
            obs::TraceScope scope(trace);
            fn();
        }
        fn.clear(); // release captures before the next pop
    }
    // With windows every lane's clock ends where the last window did.
    if (opened && window_end_ != kNoEvent)
        now_ = window_end_;
    if (now_ < deadline && deadline != kNoEvent)
        now_ = deadline;
}

void
Simulator::reset()
{
    queue_ = {};
    for (u32 i = 0; i < slots_.size(); ++i)
        if (slots_[i].armed)
            freeSlot(i); // gen bump invalidates outstanding ids
    stale_in_queue_ = 0;
    now_ = 0;
    next_order_ = windows_ << 32 | kLocal;
    live_events_ = 0;
    window_end_ = 0;
    window_mail_ = 0; // dropped, never delivered
}

} // namespace rio::des
