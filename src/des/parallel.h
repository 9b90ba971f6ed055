/**
 * @file
 * Conservative parallel discrete-event engine: N independent event
 * lanes (one Simulator each, one sys::Machine per lane in practice)
 * driven by a pool of real threads, synchronized only at lookahead
 * horizons.
 *
 * The classic conservative argument (Chandy/Misra lookahead): pick
 * horizon = (earliest pending event across all lanes) + lookahead,
 * where lookahead is a lower bound on cross-lane latency (the wire).
 * Every event that fires inside the window does so at t >= the global
 * minimum, so any message it sends lands at t + wire >= horizon —
 * strictly outside the window. Lanes therefore run the whole window
 * in parallel without ever seeing a message from the "future", and
 * messages are exchanged only at the barrier between windows.
 *
 * Determinism: runs are byte-identical regardless of thread count.
 *  - within a window a lane is plain single-threaded Simulator code;
 *  - the horizon sequence depends only on event timestamps, never on
 *    which thread ran what;
 *  - mailboxes are drained only at window barriers, on the one
 *    calling thread, while every lane is quiescent — so a message
 *    sent during window W is scheduled in exactly one batch (the
 *    W -> W+1 barrier) no matter how threads interleaved inside W.
 *    This matters at the boundary: with wire == lookahead a message
 *    lands exactly on the horizon, and an in-window drain would
 *    deliver it in the current or next window depending on timing;
 *  - each barrier batch is sorted by (when, src lane, sender seq) — a
 *    total order fixed by the simulation itself — so the FIFO
 *    tie-break seq numbers each lane assigns to delivered messages
 *    are reproducible.
 * This is enforced by tests (parallel_test) and by the
 * golden_*_threads ctests (--threads 1 vs 4 byte-identical bench
 * JSON).
 *
 * Lookahead defaults to "infinite" (kNoEvent): lanes that never talk
 * (a parameter sweep: one independent run per lane) need exactly one
 * window. Coupled lanes (machines on a wire) must set lookahead <=
 * the minimum wire latency before the first send.
 */
#ifndef RIO_DES_PARALLEL_H
#define RIO_DES_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/types.h"
#include "des/simulator.h"

namespace rio::des {

class ParallelEngine;

/**
 * One event lane: a Simulator plus a timestamped inbox for messages
 * from other lanes. All simulation state driven by this lane's
 * events must be touched only from its callbacks; the inbox is the
 * sole cross-thread handoff.
 */
class Lane
{
  public:
    explicit Lane(u32 id) : id_(id) {}

    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    u32 id() const { return id_; }
    Simulator &sim() { return sim_; }
    const Simulator &sim() const { return sim_; }

    /**
     * Post @p fn to run on @p dst at absolute time @p when — the wire
     * crossing. Called from within this lane's event callbacks only;
     * @p when must be >= the current window's horizon (guaranteed by
     * construction when the wire latency is >= the engine lookahead,
     * asserted at delivery).
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
    Nanos earliestMail();

    /**
     * Schedule all queued mail into the simulator, sorted by
     * (when, src, seq) so delivery order — and hence the receiving
     * simulator's FIFO tie-break numbering — is independent of
     * thread interleaving. Called by the engine only at window
     * barriers (all lanes quiescent), never while a window runs.
     */
    void drainInbox();

    u32 id_;
    Simulator sim_;
    u64 send_seq_ = 0; //!< touched only by this lane's thread
    u64 mail_delivered_ = 0;
    std::mutex inbox_mu_;
    std::vector<Mail> inbox_;
};

/**
 * Drives N lanes over a persistent thread pool. Single-use pattern:
 * construct, addLane() repeatedly (main thread, before running),
 * run()/runUntil(). threads=1 runs every window inline on the
 * calling thread with zero pool machinery — the reference ordering
 * the threaded path must reproduce.
 */
class ParallelEngine
{
  public:
    /** @p threads total workers including the caller (min 1). */
    explicit ParallelEngine(unsigned threads = 1);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Create the next lane (ids are dense, in creation order). */
    Lane &addLane();

    Lane &lane(size_t i) { return *lanes_[i]; }
    size_t laneCount() const { return lanes_.size(); }
    unsigned threads() const { return threads_; }

    /**
     * Conservative window size: a lower bound on the latency of any
     * cross-lane message. Must be set (finite) before the first
     * sendTo; uncoupled lanes keep the kNoEvent default and finish
     * in one window.
     */
    void setLookahead(Nanos l) { lookahead_ = l; }
    Nanos lookahead() const { return lookahead_; }

    /** Run until every lane is idle and all mail is delivered. */
    void run();

    /** Run until simulated time @p deadline (every lane's clock ends
     * at @p deadline, like Simulator::runUntil). */
    void runUntil(Nanos deadline);

    // ---- introspection (read after run; summed at barriers) ------------
    /** Horizon windows executed. */
    u64 rounds() const { return rounds_; }

    /** Events run across all lanes. */
    u64 eventsRun() const;

    /** Cross-lane messages delivered across all lanes. */
    u64 messagesDelivered() const;

  private:
    /** Earliest pending work (event or queued mail) across lanes. */
    Nanos nextTime();

    /** Deliver queued mail (barrier; all lanes quiescent), then run
     * one window [.., @p window_end] across all lanes. */
    void runWindow(Nanos window_end);

    /** Lane body for one window: run events up to the horizon. */
    static void laneWindow(Lane &lane, Nanos window_end);

    void startPoolOnce();
    void workerLoop();

    unsigned threads_;
    Nanos lookahead_ = Simulator::kNoEvent;
    std::vector<std::unique_ptr<Lane>> lanes_;
    u64 rounds_ = 0;

    // ---- pool state (created lazily on the first threaded run) ---------
    std::vector<std::thread> pool_;
    std::mutex pool_mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    u64 generation_ = 0;    //!< bumps once per window
    Nanos window_end_ = 0;  //!< the window the pool is running
    size_t workers_done_ = 0;
    bool stopping_ = false;
    std::atomic<size_t> next_lane_{0}; //!< work-stealing claim index
};

} // namespace rio::des

#endif // RIO_DES_PARALLEL_H
