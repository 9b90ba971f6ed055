/**
 * @file
 * Minimal discrete-event simulation kernel. Time is in nanoseconds.
 * Components (cores, NICs, wires) schedule callbacks; the kernel runs
 * them in timestamp order with a deterministic FIFO tie-break so runs
 * are reproducible.
 *
 * A Simulator is single-threaded by construction, with all state
 * living in the callbacks' captures: one sweep job's lane, or the one
 * queue all machines of a coupled des::ParallelEngine share, run in
 * conservative windows with cross-machine mail (parallel.h).
 *
 * Hot-path design (the simulator itself is a measured artifact, see
 * perfbench): the priority queue holds small POD entries only;
 * callbacks live in a generation-tagged slot table whose cells are
 * recycled the moment an event fires or is cancelled, so cancellation
 * leaves no unbounded tombstone state (stale queue entries are
 * compacted away once they dominate the heap).
 */
#ifndef RIO_DES_SIMULATOR_H
#define RIO_DES_SIMULATOR_H

#include <cstddef>
#include <limits>
#include <queue>
#include <vector>

#include "base/types.h"
#include "des/event_fn.h"

namespace rio::des {

/**
 * Handle for cancelling a scheduled event: slot index + generation
 * tag packed into 64 bits. Ids never repeat while the event they name
 * can still be confused with a live one — a recycled slot bumps its
 * generation, so cancelling a fired, cancelled or pre-reset id is a
 * harmless no-op that touches O(1) state.
 */
using EventId = u64;

/** Event-queue simulator: one deterministic event queue. */
class Simulator
{
  public:
    using Callback = EventFn;

    /** Returned by nextEventTime() when the queue has nothing pending. */
    static constexpr Nanos kNoEvent = std::numeric_limits<Nanos>::max();

    /** Current simulated time in nanoseconds. */
    Nanos now() const { return now_; }

    /** Schedule @p cb at absolute time @p when (>= now). */
    EventId scheduleAt(Nanos when, Callback cb);

    /** Schedule @p cb @p delay nanoseconds from now. */
    EventId scheduleAfter(Nanos delay, Callback cb);

    /**
     * Cancel a pending event. Returns true if it had not yet fired.
     * Cancelling an already-fired or unknown id is a harmless no-op.
     * The event's slot (and callback storage) is reclaimed
     * immediately.
     */
    bool cancel(EventId id);

    /** Events executed so far (monotone; useful for progress checks). */
    u64 eventsRun() const { return events_run_; }

    /** True if no events remain. */
    bool idle() const { return live_events_ == 0; }

    /** Run until the queue drains. */
    void run();

    /**
     * Run until simulated time reaches @p deadline or the queue
     * drains, whichever is first. Events stamped exactly @p deadline
     * do run. Time is left at min(deadline, last event time) — with
     * windows, at the end of the last window, or at the deadline; a
     * deadline already in the past runs nothing and leaves the clock
     * untouched.
     */
    void runUntil(Nanos deadline);

    /** Drop all pending events and reset the clock. */
    void reset();

    /**
     * Timestamp of the earliest pending event, kNoEvent if idle.
     * Prunes already-cancelled heap heads as a side effect.
     */
    Nanos nextEventTime();

    // ---- conservative windows (a coupled engine's shared queue) --------
    /**
     * Run in windows of @p lookahead, a lower bound on every mail's
     * latency; set it before scheduling anything. A window opens at
     * every runUntil call, and whenever the next entry lies past the
     * window's end — (its first time) + lookahead, or the deadline if
     * earlier — or is mail sent in the current window. Equal times
     * run a local event by (window it was scheduled in, schedule
     * order), and mail as if scheduled when the window after its send
     * opens, ahead of that window's local events, by (source lane,
     * send order): the order of per-lane queues whose inboxes are
     * drained, sorted, at window barriers.
     */
    void setLookahead(Nanos lookahead);
    Nanos lookahead() const { return lookahead_; }

    /** Mail from lane @p src (< 2048): @p cb runs at @p when, not
     * before the current window's end (asserted: "past"), inside an
     * obs::TraceScope of @p trace (0: none). */
    void scheduleMail(Nanos when, u32 src, Callback cb, u64 trace);

    u64 windows() const { return windows_; }
    /** Mail sent before the latest window opened. */
    u64 mailDelivered() const { return mail_delivered_; }

    // ---- introspection for tests / self-perf ---------------------------
    /** Slot-table cells ever allocated (regression: cancel must not
     * grow this without bound — slots recycle). */
    size_t slotsAllocated() const { return slots_.size(); }

    /** Heap entries currently held, live and stale. */
    size_t queueSize() const { return queue_.size(); }

  private:
    /**
     * What the heap orders: 24-byte POD, callback lives in slots_.
     * `order` breaks time ties: [63:32] window, [31] 1 for a local
     * event and [30:0] its schedule order, or [31] 0 for mail,
     * [30:20] source lane and [19:0] send order. Without windows it
     * is one schedule counter.
     */
    struct QEntry
    {
        Nanos when;
        u64 order;
        u32 slot;
        u32 gen;
    };

    struct Later
    {
        bool
        operator()(const QEntry &a, const QEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    /** One callback cell; gen changes whenever the cell is freed. */
    struct Slot
    {
        EventFn fn;
        u64 trace = 0;
        u32 gen = 0;
        bool armed = false;
    };

    static constexpr u64 kLocal = u64{1} << 31;
    static constexpr u32 kMailSrcShift = 20;
    static constexpr u32 kMaxMailSrc = 1u << (31 - kMailSrcShift);
    static constexpr u32 kMaxMailPerWindow = 1u << kMailSrcShift;

    static EventId
    packId(u32 slot, u32 gen)
    {
        return (static_cast<u64>(slot) + 1) << 32 | gen;
    }

    bool
    liveEntry(const QEntry &e) const
    {
        const Slot &s = slots_[e.slot];
        return s.armed && s.gen == e.gen;
    }

    bool windowed() const { return lookahead_ != kNoEvent; }

    EventId push(Nanos when, u64 order, Callback cb, u64 trace);
    u32 allocSlot();
    void freeSlot(u32 idx);
    const QEntry *liveTop();
    void openWindow(Nanos first, Nanos deadline);
    void compactIfStale();

    Nanos now_ = 0;
    u64 next_order_ = kLocal;
    u64 events_run_ = 0;
    u64 live_events_ = 0;
    u64 stale_in_queue_ = 0;
    std::priority_queue<QEntry, std::vector<QEntry>, Later> queue_;
    std::vector<Slot> slots_;
    std::vector<u32> free_slots_;

    Nanos lookahead_ = kNoEvent; //!< kNoEvent: no windows
    Nanos window_end_ = 0;
    u64 windows_ = 0;
    u32 window_mail_ = 0; //!< mail sent since the latest window opened
    u64 mail_delivered_ = 0;
};

} // namespace rio::des

#endif // RIO_DES_SIMULATOR_H
