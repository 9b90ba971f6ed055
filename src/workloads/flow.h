/**
 * @file
 * Per-flow plumbing shared by the flow drivers (StreamRun, RrRun).
 * Both drive one flow per core of a sys::Machine — core i drives
 * NIC i, all NICs share the machine's DmaContext — so a 1-core run is
 * the paper's configuration and a K-core run is the §3.2 scaling
 * study. Internal to rio_workloads.
 */
#ifndef RIO_WORKLOADS_FLOW_H
#define RIO_WORKLOADS_FLOW_H

#include <initializer_list>
#include <vector>

#include "sys/machine.h"
#include "workloads/result.h"

namespace rio::workloads {

/** Window snapshot of one flow's core + NIC. */
struct FlowSnapshot
{
    Nanos t = 0;
    Cycles busy = 0;
    cycles::CycleAccount acct;
    nic::NicStats nic;
};

inline FlowSnapshot
snapFlow(sys::Machine &m, unsigned i)
{
    return FlowSnapshot{m.sim().now(), m.nicCore(i).busyCycles(),
                        m.nicCore(i).acct(), m.nic(i).stats()};
}

/** Core side of a window: duration, cycle-account delta, cpu. */
RunResult windowResult(const FlowSnapshot &start, const FlowSnapshot &end,
                       double core_ghz);

/** Recompute the per-packet figures of @p r from its counters. */
void finishWindow(RunResult &r);

/**
 * Aggregate the flows' window results: counters, cycle accounts and
 * rates add up, duration is the longest window and cpu the mean
 * utilization; the per-packet figures are recomputed from the sums.
 * One flow sums to itself exactly. Whole-run fields (faults,
 * lifecycle, walks, locks) are left for the caller.
 */
RunResult sumFlows(const std::vector<RunResult> &flows);

/** Copy the machine's whole-run counters (faults, lifecycle, locks)
 * into @p r. */
void addMachineTotals(RunResult &r, sys::Machine &m);

/** Hand @p machines' recordings to obs::timeline() as one row, in
 * the order given. Call on the calling thread once the run is over. */
void publishRow(std::initializer_list<sys::Machine *> machines);

/** Arm the params' fault injection on @p m (after bring-up), with
 * @p seed; nothing at rate 0. */
template <typename Params>
void
armFaults(sys::Machine &m, const Params &p, u64 seed)
{
    if (p.fault_rate > 0) {
        m.setFaultPolicy(p.fault_policy);
        m.setFaultInjection(p.fault_rate, seed);
    }
}

/** Arm the params' lifecycle churn on @p m; nothing at rate 0. */
template <typename Params>
void
armChurn(sys::Machine &m, const Params &p)
{
    if (p.churn_per_ms > 0) {
        sys::LifecycleChurnConfig churn;
        churn.events_per_ms = p.churn_per_ms;
        churn.seed = p.churn_seed;
        churn.down_ns = p.churn_down_ns;
        m.armLifecycleChurn(churn);
    }
}

} // namespace rio::workloads

#endif // RIO_WORKLOADS_FLOW_H
