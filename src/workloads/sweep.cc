#include "workloads/sweep.h"

#include <memory>
#include <type_traits>

#include "des/parallel.h"
#include "workloads/flow.h"

namespace rio::workloads {

namespace {

/**
 * The common shape of both sweeps: add one lane per job, construct
 * the runs sequentially on the calling thread, let the engine
 * execute, then collect in job order and hand each run's recordings
 * to the timeline in that order.
 */
template <typename Job, typename Run>
std::vector<RunResult>
runJobs(const std::vector<Job> &jobs, unsigned threads)
{
    des::ParallelEngine eng(threads);
    std::vector<std::unique_ptr<Run>> runs;
    runs.reserve(jobs.size());
    for (const Job &job : jobs) {
        des::Lane &lane = eng.addLane();
        runs.push_back(std::make_unique<Run>(lane.sim(), job.mode,
                                             job.profile, job.params,
                                             job.cost));
    }
    eng.run();
    std::vector<RunResult> results;
    results.reserve(runs.size());
    for (auto &run : runs) {
        results.push_back(run->collect());
        if constexpr (std::is_same_v<Run, RrRun>)
            publishRow({&run->initiator(), &run->echoer()});
        else
            publishRow({&run->machine()});
    }
    return results;
}

} // namespace

std::vector<RunResult>
runStreamJobs(const std::vector<StreamJob> &jobs, unsigned threads)
{
    return runJobs<StreamJob, StreamRun>(jobs, threads);
}

std::vector<RunResult>
runRrJobs(const std::vector<RrJob> &jobs, unsigned threads)
{
    return runJobs<RrJob, RrRun>(jobs, threads);
}

} // namespace rio::workloads
