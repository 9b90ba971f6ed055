/**
 * @file
 * Conservative discrete-event engine over N event lanes (one
 * Simulator each, one sys::Machine per lane in practice), and
 * parallelFor, the one place the simulator starts threads.
 *
 * An engine has one of two shapes:
 *  - Uncoupled: the default infinite lookahead (kNoEvent). Lanes
 *    never talk; a parameter sweep runs one independent job per lane.
 *    The run is a single window, and parallelFor spreads its lanes
 *    over up to `threads` threads.
 *  - Coupled: setLookahead() with a finite value. Lanes exchange mail
 *    (machines on a wire) and run in many thin windows, a handful of
 *    events each. Every window runs on the calling thread, whatever
 *    `threads` says: a cross-thread barrier per window costs more
 *    than the window's work. Independent coupled engines, one whole
 *    cluster each, run in parallel one level up instead — the bench
 *    rows, each a parallelFor index.
 *
 * The classic conservative argument (Chandy/Misra lookahead): pick
 * horizon = (earliest pending event across all lanes) + lookahead,
 * where lookahead is a lower bound on cross-lane latency (the wire).
 * Every event that fires inside the window does so at t >= the global
 * minimum, so any message it sends lands at t + wire >= horizon —
 * strictly outside the window. No lane ever sees a message from the
 * "future", and messages are exchanged only at the barrier between
 * windows.
 *
 * Determinism:
 *  - within a window a lane is plain single-threaded Simulator code;
 *  - the horizon sequence depends only on event timestamps;
 *  - mailboxes are drained only at window barriers, while every lane
 *    is quiescent, so a message sent during window W is scheduled in
 *    exactly one batch (the W -> W+1 barrier). With wire == lookahead
 *    a message lands exactly on the horizon; the barrier drain fixes
 *    which window runs it;
 *  - each barrier batch is sorted by (when, src lane, sender seq) — a
 *    total order fixed by the simulation itself — so the FIFO
 *    tie-break seq numbers each lane assigns to delivered messages
 *    are reproducible.
 * An uncoupled lane's result does not depend on which thread ran it,
 * and a coupled engine ignores `threads`; parallel_test and the
 * golden_*_threads ctests (--threads 1 vs 4 byte-identical bench
 * JSON) pin both.
 */
#ifndef RIO_DES_PARALLEL_H
#define RIO_DES_PARALLEL_H

#include <functional>
#include <memory>
#include <vector>

#include "base/types.h"
#include "des/simulator.h"

namespace rio::des {

/**
 * Run fn(0) .. fn(n-1), each exactly once, on min(threads, n) threads:
 * the caller plus workers spawned for this call, which claim indices
 * through an atomic and are joined before return. Calls for distinct
 * indices may run concurrently, so they must share no unsynchronized
 * state; results go to per-index slots the caller reads after return.
 */
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)> &fn);

class ParallelEngine;

/**
 * One event lane: a Simulator plus a timestamped inbox for mail from
 * other lanes of a coupled engine. All simulation state driven by
 * this lane's events must be touched only from its callbacks.
 *
 * Cache-line aligned: an uncoupled engine's lanes run on different
 * threads, and a lane's Simulator is written on every event, so no
 * two lanes may share a line (perfbench stream7 ran 8% slower when a
 * neighbour's hot fields shared one).
 */
class alignas(kCachelineSize) Lane
{
  public:
    Lane(u32 id, const ParallelEngine &engine) : id_(id), engine_(engine)
    {
    }

    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    u32 id() const { return id_; }
    Simulator &sim() { return sim_; }
    const Simulator &sim() const { return sim_; }

    /**
     * Post @p fn to run on @p dst at absolute time @p when — the wire
     * crossing. The engine must be coupled (asserted): only then do
     * sender and receiver share the calling thread. @p when must be
     * >= the current window's horizon (guaranteed by construction
     * when the wire latency is >= the engine lookahead, asserted at
     * delivery).
     */
    void sendTo(Lane &dst, Nanos when, Simulator::Callback fn);

    /** Messages this lane has received and scheduled. */
    u64 mailDelivered() const { return mail_delivered_; }

  private:
    friend class ParallelEngine;

    struct Mail
    {
        Nanos when;
        u32 src;
        u64 seq;   //!< sender-assigned, monotone per sender
        u64 trace; //!< sender's trace context, restored at delivery
        Simulator::Callback fn;
    };

    /** Earliest queued mail timestamp, kNoEvent if none. */
    Nanos earliestMail() const;

    /**
     * Schedule all queued mail into the simulator, sorted by
     * (when, src, seq), so the receiving simulator's FIFO tie-break
     * numbering is fixed by content. Called by the engine only at
     * window barriers (all lanes quiescent), never while a window
     * runs.
     */
    void drainInbox();

    u32 id_;
    const ParallelEngine &engine_;
    Simulator sim_;
    u64 send_seq_ = 0;
    u64 mail_delivered_ = 0;
    std::vector<Mail> inbox_;
};

/**
 * Drives N lanes. Single-use pattern: construct, addLane() repeatedly
 * (before running), optionally setLookahead(), then run()/runUntil().
 */
class ParallelEngine
{
  public:
    /** @p threads: most threads an uncoupled engine's window may use
     * (0 counts as 1); a coupled engine ignores it. */
    explicit ParallelEngine(unsigned threads = 1) : threads_(threads) {}

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Create the next lane (ids are dense, in creation order). */
    Lane &addLane();

    Lane &lane(size_t i) { return *lanes_[i]; }
    size_t laneCount() const { return lanes_.size(); }

    /**
     * Conservative window size: a lower bound on the latency of any
     * cross-lane message. Setting it (finite) makes the engine
     * coupled, which sendTo requires; uncoupled lanes keep the
     * kNoEvent default and finish in one window.
     */
    void setLookahead(Nanos l) { lookahead_ = l; }
    Nanos lookahead() const { return lookahead_; }
    bool coupled() const { return lookahead_ != Simulator::kNoEvent; }

    /** Run until every lane is idle and all mail is delivered. */
    void run();

    /** Run until simulated time @p deadline (every lane's clock ends
     * at @p deadline, like Simulator::runUntil). */
    void runUntil(Nanos deadline);

    // ---- introspection (read after run) --------------------------------
    /** Horizon windows executed. */
    u64 rounds() const { return rounds_; }

    /** Events run across all lanes. */
    u64 eventsRun() const;

    /** Cross-lane messages delivered across all lanes. */
    u64 messagesDelivered() const;

  private:
    /** Earliest pending work (event or queued mail) across lanes. */
    Nanos nextTime() const;

    /** Deliver queued mail (barrier; all lanes quiescent), then run
     * one window [.., @p window_end] across all lanes. */
    void runWindow(Nanos window_end);

    unsigned threads_;
    Nanos lookahead_ = Simulator::kNoEvent;
    std::vector<std::unique_ptr<Lane>> lanes_;
    u64 rounds_ = 0;
};

} // namespace rio::des

#endif // RIO_DES_PARALLEL_H
