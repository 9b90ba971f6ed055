/**
 * @file
 * Cluster: N Machines — one per ParallelEngine lane — each carrying
 * one RdmaNic, connected all-to-all by a constant-latency wire. The
 * scale-out companion to sys::Machine: where Machine reproduces the
 * paper's single-host testbed, Cluster is the fabric on which
 * bench_cluster_rdma measures how the rIOMMU flat-table advantage
 * erodes as per-connection rings multiply (thousands of QPs = 2x
 * thousands of rRINGs per rDEVICE) and per-ring bursts shrink toward
 * one completion per invalidation.
 *
 * Wire model: every message pays profile.wire_ns one-way latency plus
 * RoCE serialization; wire_ns doubles as the engine's conservative
 * lookahead. That makes the engine coupled, so every window runs on
 * the calling thread, and a Cluster is one single-threaded job.
 * Benches run independent Clusters side by side instead, one per
 * des::parallelFor index (a bench row); cluster_test pins that
 * concurrent rows do not leak into one another.
 */
#ifndef RIO_SYS_CLUSTER_H
#define RIO_SYS_CLUSTER_H

#include <memory>
#include <vector>

#include "des/parallel.h"
#include "dma/dma_context.h"
#include "rdma/rdma.h"
#include "sys/machine.h"
#include "sys/wire.h"

namespace rio::sys {

/** Knobs of a Cluster build; defaults give a 2-machine smoke rig. */
struct ClusterConfig
{
    unsigned machines = 2;
    /** No effect: a cluster's engine is coupled, so it always runs
     * on the calling thread. Kept only because perfbench/hostbench.cc
     * still assigns it. */
    unsigned threads = 1;
    dma::ProtectionMode mode = dma::ProtectionMode::kRiommu;
    rdma::RdmaProfile profile = rdma::rnicProfile();
    u32 max_qps = 64; //!< QP slots per machine (initiated + accepted)

    /** rDEVICE descriptor-fetch model + optional hot tier, applied to
     * each machine's rIOMMU (ignored by non-rIOMMU modes). */
    riommu::RdCacheConfig rdcache;

    /** Per-core magazine-pair depth for the "+" allocator modes
     * (0 = legacy per-handle depot); no-op elsewhere. */
    u32 iova_cache_rounds = 0;

    /** Deterministic DMA fault injection on every handle (0 = off). */
    double fault_rate = 0.0;
    u64 fault_seed = 1;

    /** Hostile-wire faults/congestion (defaults inert; see wire.h).
     * Arming any knob requires reliability.enabled — a drop with no
     * retransmit layer stalls the closed-loop workload forever. */
    WireFaultConfig wire;

    /** RoCE-style retransmit/RTO/QP-error layer (default off). */
    rdma::ReliabilityConfig reliability;

    /**
     * Live-migration overlay (default off — byte-for-bit inert): each
     * machine additionally carries a *hypervisor* NIC (id = machines
     * + m) with its own DMA handle, on which a migrate::Migrator runs
     * the pre-copy stream. It shares the machine's core, IOMMU, and —
     * under a hostile wire — the destination's ingress port, so
     * migration traffic contends with guest traffic end to end.
     */
    bool migration = false;
    u32 mig_qps = 4; //!< QP slots on each hypervisor NIC
};

/** N machines on a wire; see file header. */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &cfg);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    unsigned size() const { return static_cast<unsigned>(machines_.size()); }
    const ClusterConfig &config() const { return cfg_; }

    Machine &machine(unsigned m) { return *machines_[m]; }

    /** Every machine's recording (tracks and dumps), in machine
     * order: one row for obs::Timeline::add(). Take it on the thread
     * that ran the cluster, when the run is over. */
    std::vector<obs::Recording> takeRecordings();
    rdma::RdmaNic &nic(unsigned m) { return *nics_[m]; }
    dma::DmaHandle &handle(unsigned m) { return *handles_[m]; }

    // ---- migration overlay (valid only with cfg.migration) -------------
    bool hasMigration() const { return !mig_nics_.empty(); }
    rdma::RdmaNic &migNic(unsigned m) { return *mig_nics_[m]; }
    dma::DmaHandle &migHandle(unsigned m) { return *mig_handles_[m]; }
    des::ParallelEngine &engine() { return engine_; }
    des::Lane &lane(unsigned m) { return engine_.lane(m); }

    /** Map every NIC's CQ. Call once before traffic. */
    void bringUp();

    /** Run all lanes until idle / until @p deadline. */
    void run() { engine_.run(); }
    void runUntil(Nanos deadline) { engine_.runUntil(deadline); }

    /**
     * End-of-run cleanup: force-unmap every NIC's surviving state and
     * push out deferred invalidations, so checkLeaks() on a healthy
     * run reports clean handles.
     */
    void quiesce();

    /** Stale-mapping/IOTLB audit of machine @p m's RDMA handle. */
    dma::LeakReport checkLeaks(unsigned m) const;

    /** Same audit for machine @p m's hypervisor (migration) handle. */
    dma::LeakReport checkMigLeaks(unsigned m) const;

    /** Sum of a stat over all NICs, e.g. totals(&RdmaStats::posts). */
    u64
    total(u64 rdma::RdmaStats::*field) const
    {
        u64 sum = 0;
        for (const auto &nic : nics_)
            sum += nic->stats().*field;
        return sum;
    }

    /** Same sum over the hypervisor NICs (0 when the overlay is off). */
    u64
    migTotal(u64 rdma::RdmaStats::*field) const
    {
        u64 sum = 0;
        for (const auto &nic : mig_nics_)
            sum += nic->stats().*field;
        return sum;
    }

    /** Sum of a wire-port stat over all machines (0 when unarmed). */
    u64
    wireTotal(u64 WireStats::*field) const
    {
        u64 sum = 0;
        for (const auto &port : ports_)
            sum += port->stats().*field;
        return sum;
    }

  private:
    ClusterConfig cfg_;
    des::ParallelEngine engine_;
    std::vector<std::unique_ptr<Machine>> machines_;
    std::vector<dma::DmaHandle *> handles_; //!< owned by the machines
    std::vector<std::unique_ptr<rdma::RdmaNic>> nics_;
    std::vector<std::unique_ptr<WirePort>> ports_; //!< armed wire only
    // Migration overlay (empty unless cfg.migration).
    std::vector<dma::DmaHandle *> mig_handles_;
    std::vector<std::unique_ptr<rdma::RdmaNic>> mig_nics_;
};

} // namespace rio::sys

#endif // RIO_SYS_CLUSTER_H
