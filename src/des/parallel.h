/**
 * @file
 * Event engine over N lanes (one sys::Machine per lane in practice),
 * and parallelFor, the one place the simulator starts threads.
 *
 * An engine has one of two shapes:
 *  - Uncoupled: the default infinite lookahead (kNoEvent). Lanes
 *    never talk; a parameter sweep runs one independent job per lane,
 *    each on its own Simulator, and parallelFor spreads the lanes over
 *    up to `threads` threads. A run is a single window.
 *  - Coupled: setLookahead() with a finite value. Lanes exchange mail
 *    (machines on a wire), and every lane's events go into one shared
 *    Simulator on the calling thread, whatever `threads` says: a
 *    cross-thread barrier per window would cost more than the
 *    window's work. Independent coupled engines, one whole cluster
 *    each, run in parallel one level up instead — the bench rows,
 *    each a parallelFor index.
 *
 * The shared queue keeps the conservative (Chandy/Misra) windows the
 * lanes once synchronized at — horizon = (first event) + lookahead, a
 * lower bound on the wire's latency — and sendTo schedules a message
 * when it is sent, ordered as a barrier drain at the next window
 * would have scheduled it (Simulator::setLookahead). Each lane runs
 * its events in the order its own queue did, rounds() counts the same
 * windows, mail inside its sending window panics ("past"), and a run
 * leaves the clock at the last window's end. CoupledEngineFuzz holds
 * the engine to a copy of that barrier loop.
 *
 * Determinism: an uncoupled lane's result does not depend on which
 * thread ran it, and a coupled engine ignores `threads`; parallel_test
 * and the golden_*_threads ctests (--threads 1 vs 4 byte-identical
 * bench JSON) pin both.
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
 * One event lane: its own Simulator in an uncoupled engine, the
 * engine's shared one in a coupled engine. All simulation state
 * driven by this lane's events must be touched only from its
 * callbacks.
 *
 * Cache-line aligned: an uncoupled engine's lanes run on different
 * threads, and a lane's Simulator is written on every event, so no
 * two lanes may share a line (perfbench stream7 ran 8% slower when a
 * neighbour's hot fields shared one).
 */
class alignas(kCachelineSize) Lane
{
  public:
    Lane(u32 id, ParallelEngine &engine) : id_(id), engine_(engine) {}

    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    u32 id() const { return id_; }
    Simulator &sim();

    /**
     * Post @p fn to run on @p dst at absolute time @p when — the wire
     * crossing — under the sender's current trace. The engine must be
     * coupled (asserted). @p when must be >= the current window's
     * horizon (guaranteed by construction when the wire latency is >=
     * the engine lookahead, asserted: "past").
     */
    void sendTo(Lane &dst, Nanos when, Simulator::Callback fn);

  private:
    friend class ParallelEngine;

    u32 id_;
    ParallelEngine &engine_;
    Simulator sim_; //!< uncoupled engines only
};

/**
 * Drives N lanes. Single-use pattern: construct, optionally
 * setLookahead(), addLane() repeatedly, then run()/runUntil(). The
 * lookahead may also follow addLane(), as long as nothing has been
 * scheduled on any lane yet.
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

    /**
     * Conservative window size: a lower bound on the latency of any
     * cross-lane message. Setting it (finite) makes the engine
     * coupled, which sendTo requires; uncoupled lanes keep the
     * kNoEvent default and finish in one window.
     */
    void setLookahead(Nanos l);
    Nanos lookahead() const { return shared_.lookahead(); }
    bool coupled() const { return lookahead() != Simulator::kNoEvent; }

    /** Run until every lane is idle and all mail is delivered. */
    void run();

    /** Run until simulated time @p deadline (every lane's clock ends
     * at @p deadline, like Simulator::runUntil). */
    void runUntil(Nanos deadline);

    // ---- introspection (read after run) --------------------------------
    /** Horizon windows executed. */
    u64 rounds() const { return coupled() ? shared_.windows() : rounds_; }

    /** Events run across all lanes. */
    u64 eventsRun() const;

    /** Cross-lane messages delivered across all lanes. */
    u64 messagesDelivered() const { return shared_.mailDelivered(); }

  private:
    friend class Lane;

    unsigned threads_;
    Simulator shared_; //!< every lane's queue once coupled
    std::vector<std::unique_ptr<Lane>> lanes_;
    u64 rounds_ = 0; //!< uncoupled windows
};

inline Simulator &
Lane::sim()
{
    return engine_.coupled() ? engine_.shared_ : sim_;
}

} // namespace rio::des

#endif // RIO_DES_PARALLEL_H
