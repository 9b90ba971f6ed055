/**
 * @file
 * Minimal discrete-event simulation kernel. Time is in nanoseconds.
 * Components (cores, NICs, wires) schedule callbacks; the kernel runs
 * them in timestamp order with a deterministic FIFO tie-break so runs
 * are reproducible.
 *
 * One Simulator is one *event lane*: single-threaded by construction,
 * with all state living in the callbacks' captures. Independent lanes
 * (one per sys::Machine) can be driven concurrently by
 * des::ParallelEngine (parallel.h), which synchronizes them only at
 * conservative lookahead horizons — the lane itself never needs a
 * lock.
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

/** Event-queue simulator: one deterministic event lane. */
class Simulator
{
  public:
    using Callback = EventFn;

    /** Returned by nextEventTime() when the lane has nothing pending. */
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
     * do run. Time is left at min(deadline, last event time); a
     * deadline already in the past runs nothing and leaves the clock
     * untouched.
     */
    void runUntil(Nanos deadline);

    /** Drop all pending events and reset the clock. */
    void reset();

    /**
     * Timestamp of the earliest pending event, kNoEvent if idle.
     * Used by ParallelEngine to compute the conservative lookahead
     * horizon. Prunes already-cancelled heap heads as a side effect.
     */
    Nanos nextEventTime();

    // ---- introspection for tests / self-perf ---------------------------
    /** Slot-table cells ever allocated (regression: cancel must not
     * grow this without bound — slots recycle). */
    size_t slotsAllocated() const { return slots_.size(); }

    /** Heap entries currently held, live and stale. */
    size_t queueSize() const { return queue_.size(); }

  private:
    /** What the heap orders: 24-byte POD, callback lives in slots_. */
    struct QEntry
    {
        Nanos when;
        u64 seq; //!< FIFO tie-break for equal timestamps
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
            return a.seq > b.seq;
        }
    };

    /** One callback cell; gen changes whenever the cell is freed. */
    struct Slot
    {
        EventFn fn;
        u32 gen = 0;
        bool armed = false;
    };

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

    u32 allocSlot();
    void freeSlot(u32 idx);
    bool popRunnable(EventFn &fn, Nanos &when, Nanos deadline);
    void compactIfStale();

    Nanos now_ = 0;
    u64 next_seq_ = 0;
    u64 events_run_ = 0;
    u64 live_events_ = 0;
    u64 stale_in_queue_ = 0;
    std::priority_queue<QEntry, std::vector<QEntry>, Later> queue_;
    std::vector<Slot> slots_;
    std::vector<u32> free_slots_;
};

} // namespace rio::des

#endif // RIO_DES_SIMULATOR_H
