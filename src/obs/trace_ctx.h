/**
 * @file
 * Distributed trace context: a per-op identity allocated where the op
 * is injected (a verbs post, a DMA map on behalf of a workload) and
 * propagated across every layer the op touches — cross-lane mail
 * (the event queue keeps the sender's trace in the event's slot and
 * reopens it at delivery), sys::WireMsg, the rdma retransmit/replay
 * paths — so the Chrome-trace export can stitch one op's spans across
 * machines into a single tree, closed at the terminal CQE.
 *
 * Identity layout (64 bits, never 0 for a real trace):
 *
 *   [63:48] origin machine (obs pid)   — where the op was injected
 *   [47:40] origin core (obs tid)
 *   [39:0]  lane-confined sequence     — des::Core::nextTraceId()
 *
 * Determinism: the sequence counter lives on the injecting core,
 * which lives on exactly one event lane — ids depend only on
 * simulation content, never on thread scheduling. The machine field
 * is the machine's index in its cluster; obs::Timeline::add()
 * relabels it to the machine's track id, so exported ids are unique
 * across rows (DESIGN.md §9). Propagation is
 * a thread-local "current trace" slot set by TraceScope RAII around
 * delivery callbacks; Recorder::emit() auto-attaches it to any
 * event that doesn't carry its own trace, so every existing
 * instrumentation point (map/unmap spans, QI spans, lock waits,
 * faults) becomes a child span of the op for free.
 *
 * Everything here is host-only bookkeeping: zero simulated cycles,
 * zero RNG draws (golden_obs / golden_cluster byte-for-byte pins).
 */
#ifndef RIO_OBS_TRACE_CTX_H
#define RIO_OBS_TRACE_CTX_H

#include "base/types.h"

namespace rio::obs {

/**
 * Decoded view of a trace identity plus the current span within it.
 * The wire carries only the packed u64 (WireMsg::trace); origin
 * machine/core are recoverable from the high bits.
 */
struct TraceContext
{
    u64 trace = 0; //!< packed identity; 0 = "no trace"
    u32 span = 0;  //!< current span id within the trace (optional)

    static u16 originMachine(u64 trace) { return static_cast<u16>(trace >> 48); }
    static u16 originCore(u64 trace) { return static_cast<u16>((trace >> 40) & 0xff); }
    static u64 seq(u64 trace) { return trace & 0xffffffffffULL; }
};

/** The calling thread's current trace (0 when outside any op). A
 * lane's callbacks run on exactly one thread at a time, so a
 * thread-local slot is lane-confined state — no synchronization, no
 * cross-thread visibility needed. */
inline u64 &
currentTraceSlot()
{
    static thread_local u64 slot = 0;
    return slot;
}

inline u64
currentTrace()
{
    return currentTraceSlot();
}

/**
 * RAII scope: "the code below runs on behalf of trace @p t". A zero
 * @p t keeps the enclosing scope (a control-plane message carries no
 * trace and must not sever an outer one). Always restores on exit,
 * so nesting — a retransmit replay inside an RTO callback inside a
 * mail delivery — unwinds correctly.
 */
class TraceScope
{
  public:
    explicit TraceScope(u64 t) : prev_(currentTraceSlot())
    {
        if (t)
            currentTraceSlot() = t;
    }
    ~TraceScope() { currentTraceSlot() = prev_; }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    u64 prev_;
};

} // namespace rio::obs

#endif // RIO_OBS_TRACE_CTX_H
