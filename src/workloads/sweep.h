/**
 * @file
 * Parameter sweeps on an uncoupled des::ParallelEngine: a
 * single-machine bench is a loop over independent runs (one
 * protection mode, one platform, one core count per iteration). Each
 * job gets its own lane, its own Simulator and its own Machine(s);
 * the engine's default infinite lookahead runs them all in a single
 * window, which des::parallelFor spreads over the threads.
 *
 * Determinism: each lane replays the exact event sequence the old
 * sequential bench ran in its private simulator, so per-job results
 * are bit-identical for any thread count (enforced by the golden_*
 * ctests). Jobs are constructed and collected in order on the calling
 * thread; only the event execution between construction and
 * collection is parallel.
 */
#ifndef RIO_WORKLOADS_SWEEP_H
#define RIO_WORKLOADS_SWEEP_H

#include <vector>

#include "cycles/cost_model.h"
#include "dma/protection_mode.h"
#include "nic/profile.h"
#include "workloads/netperf_rr.h"
#include "workloads/result.h"
#include "workloads/stream.h"

namespace rio::workloads {

/** One Netperf-stream run of a sweep. */
struct StreamJob
{
    dma::ProtectionMode mode;
    nic::NicProfile profile;
    StreamParams params;
    cycles::CostModel cost = cycles::defaultCostModel();
};

/** One RR ping-pong run of a sweep (the machine PAIR is one job). */
struct RrJob
{
    dma::ProtectionMode mode;
    nic::NicProfile profile;
    RrParams params;
    cycles::CostModel cost = cycles::defaultCostModel();
};

/**
 * Run every job, one engine lane each, on up to @p threads threads
 * (1 = sequential, the bench default). Results are in job order and
 * independent of @p threads.
 */
std::vector<RunResult> runStreamJobs(const std::vector<StreamJob> &jobs,
                                     unsigned threads = 1);
std::vector<RunResult> runRrJobs(const std::vector<RrJob> &jobs,
                                 unsigned threads = 1);

} // namespace rio::workloads

#endif // RIO_WORKLOADS_SWEEP_H
