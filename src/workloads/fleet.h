/**
 * @file
 * Fleet workload: the scale-out RDMA traffic generator behind
 * bench_cluster_rdma. Every machine of a sys::Cluster runs a closed
 * loop of RDMA writes/reads over its established QPs — connection
 * choice Zipf-skewed (a few hot peers, a long tail), request sizes
 * Zipf over a small ladder, optional synchronized incast bursts into
 * machine 0 and optional connection churn (teardown + reconnect).
 *
 * The knob that stresses the rDEVICE table is `connections`: at 64
 * QPs a completion-poll batch concentrates on few rings, so rIOMMU's
 * end-of-burst invalidation amortizes like the paper's single-NIC
 * netperf; at 16K QPs nearly every completion is its ring's last and
 * every op eats a full invalidation + descriptor fetch — the erosion
 * the bench quantifies, and the regime the two-level rDEVICE cache
 * (riommu::RdCacheConfig) is meant to rescue.
 *
 * Determinism: all decisions are lane-local draws from per-machine
 * Rng streams seeded from params.seed + machine id; results are
 * byte-identical whether a fleet runs alone or beside other rows.
 */
#ifndef RIO_WORKLOADS_FLEET_H
#define RIO_WORKLOADS_FLEET_H

#include "obs/slo.h"
#include "riommu/riommu.h"
#include "riommu/riotlb.h"
#include "sys/cluster.h"

namespace rio::workloads {

/** Traffic knobs of one fleet run (cluster shape lives in
 * sys::ClusterConfig). */
struct FleetParams
{
    /** Target QPs per machine, initiated + accepted; each machine
     * initiates half, round-robin over its peers. The cluster's
     * max_qps must leave headroom (fleetMaxQps). */
    u32 connections = 64;

    double zipf_theta = 0.99; //!< skew of the connection choice
    double read_fraction = 0.25;
    u32 credits = 8; //!< closed-loop outstanding ops per machine

    /** Request-size ladder, Zipf-weighted smallest-first (RPC-heavy
     * traffic: mostly small, a tail of bulk). Sizes must be <= the
     * profile's max_req_bytes. */
    std::vector<u32> sizes = {64, 256, 1024, 2048};
    double size_zipf_theta = 1.2;

    u64 warmup_ops = 200;   //!< per machine, before the window opens
    u64 measure_ops = 2000; //!< per machine, inside the window

    /** Every @p incast_period_ops completions, burst @p incast_burst
     * max-size writes at machine 0 (0 = off). */
    u32 incast_period_ops = 0;
    u32 incast_burst = 0;

    /** Every @p churn_period_ops completions, tear one QP down and
     * reconnect it (0 = off) — the fuzz campaign's lifecycle lever. */
    u32 churn_period_ops = 0;

    /** Fraction of churn events that hard-abort the QP (app death:
     * RdmaNic::abortQp) instead of draining gracefully. Aborted QPs
     * strand their in-flight data on the wire — the bulk source of
     * late arrivals at a dead QP. Needs the reliability layer. */
    double churn_abort_fraction = 0.0;

    /** Driver policy when a QP blows its retry budget (hostile wire
     * only; errors cannot happen on the lossless wire). */
    enum class QpErrorPolicy { kAbort, kReconnect };
    QpErrorPolicy qp_error_policy = QpErrorPolicy::kReconnect;

    u64 seed = 1;
};

/** QP slots a Cluster must provision for these params. */
u32 fleetMaxQps(const FleetParams &params, unsigned machines);

/** Aggregate outcome of a fleet run (summed over machines). */
struct FleetReport
{
    u64 measured_ops = 0; //!< completions inside the windows
    u64 total_ops = 0;    //!< completions overall
    Cycles measured_cycles = 0; //!< core cycles inside the windows
    double cycles_per_op = 0;

    u64 posts = 0;
    u64 posts_blocked = 0;
    u64 comp_errors = 0;
    u64 remote_faults = 0;
    u64 local_fault_drops = 0;
    u64 connects = 0;
    u64 teardowns = 0;
    u64 eob_unmaps = 0;
    u64 completions = 0;
    /** Completions per end-of-burst invalidation — the amortization
     * factor whose collapse toward 1.0 is the erosion itself. */
    double avg_burst = 0;

    riommu::RiotlbStats riotlb;   //!< summed (riommu modes only)
    riommu::RdCacheStats rdcache; //!< summed (riommu modes only)

    /** Reliability-layer counters (all zero on a lossless wire). */
    u64 retransmits = 0;
    u64 rto_fires = 0;
    u64 nak_seq = 0; //!< sequence NAKs received by requesters
    u64 qp_errors = 0;
    u64 qp_error_recovered = 0;
    u64 late_arrivals = 0; //!< data for a dead/rebound QP
    u64 late_faulted = 0;  //!< ... stopped by the target IOMMU
    u64 late_landed = 0;   //!< ... that wrote memory (stale window)

    /** Hostile-wire port counters (all zero when the wire is unarmed). */
    u64 wire_drops = 0;
    u64 wire_dups = 0;
    u64 wire_delays = 0;
    u64 wire_congestion_drops = 0;
    u64 wire_peak_queue = 0;

    /** Op latency distribution (post → CQE, every completed op). */
    Nanos p50_latency_ns = 0;
    Nanos p99_latency_ns = 0;

    /** Exact tail report over the per-op SLO records, merged across
     * machines in machine order. Valid only when obs::sloRecording()
     * was on for the run (`--slo`). */
    bool slo_valid = false;
    obs::SloReport slo;

    Nanos end_ns = 0; //!< virtual time when the cluster went idle

    bool leaks_clean = true; //!< post-quiesce audit of every machine
};

/**
 * Drive @p cluster with the fleet load until every machine finishes
 * its measurement window, then quiesce and leak-check. The cluster
 * must be freshly constructed (bringUp is called here).
 */
FleetReport runFleet(sys::Cluster &cluster, const FleetParams &params);

} // namespace rio::workloads

#endif // RIO_WORKLOADS_FLEET_H
