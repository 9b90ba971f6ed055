/**
 * @file
 * Machine: one simulated host — memory + IOMMUs (one shared
 * DmaContext), N cores, and a set of attached devices, each pinned to
 * a core. The paper's servers are configured to use one core (§5.1),
 * and the single-core constructor reproduces exactly that setup; the
 * N-core form exists to measure what §3.2 predicts about it: the
 * baseline modes serialize every map/unmap on the context-global IOVA
 * and invalidation-queue locks, while rIOMMU's per-ring state scales
 * lock-free. Workloads are built on one or more Machines sharing a
 * discrete-event Simulator.
 */
#ifndef RIO_SYS_MACHINE_H
#define RIO_SYS_MACHINE_H

#include <memory>
#include <vector>

#include "base/rng.h"
#include "des/core.h"
#include "des/simulator.h"
#include "dma/dma_context.h"
#include "nic/nic.h"

namespace rio::sys {

/** One step of a device lifecycle transition, for the journal. */
enum class LifecyclePhase : u8 {
    kSurpriseUnplug = 0, //!< device vanished, handle force-detached
    kRemoveCleanup,      //!< driver unmapped the orphaned mappings
    kReattach,           //!< handle re-attached to the IOMMU
    kReplug,             //!< device brought back up
    kStopPosting,        //!< orderly quiesce: no new DMA posted
    kDrain,              //!< orderly quiesce: in-flight work retired
    kUnmapAll,           //!< orderly quiesce: every mapping unmapped
    kFlush,              //!< orderly quiesce: invalidations flushed
    kDetach              //!< orderly quiesce: handle detached
};

/** One journal record: what happened to which NIC, and when. */
struct LifecycleLogEntry
{
    Nanos t = 0;
    unsigned nic_idx = 0;
    LifecyclePhase phase = LifecyclePhase::kSurpriseUnplug;
};

/** Aggregate lifecycle counters. */
struct LifecycleStats
{
    u64 surprise_unplugs = 0;
    u64 replugs = 0;
    u64 quiesces = 0;
};

/**
 * Deterministic surprise-unplug/replug churn: events arrive as a
 * Poisson process from a dedicated Rng stream, entirely in virtual
 * time. A rate of zero arms nothing and draws nothing, so workloads
 * run bit-for-bit identically to a build without churn.
 */
struct LifecycleChurnConfig
{
    double events_per_ms = 0.0; //!< mean surprise-unplug rate; 0 = off
    u64 seed = 1;
    Nanos down_ns = 20000; //!< outage between unplug and replug
    Nanos until_ns = 0;    //!< stop scheduling events at this time
                           //!< (0 = never; the workload should bound
                           //!< it or the event queue never drains)
};

/** A host under a given protection mode: N cores x M devices. */
class Machine
{
  public:
    /**
     * Single-core, single-NIC machine — the paper's configuration.
     * Equivalent to the N-core constructor with ncores = 1 followed
     * by attachNic(profile, 0, trace).
     *
     * @param trace when non-null, every map/unmap/device access of
     * this machine's NIC is recorded (for the §5.4 prefetcher study).
     */
    Machine(des::Simulator &sim, dma::ProtectionMode mode,
            const nic::NicProfile &profile,
            const cycles::CostModel &cost = cycles::defaultCostModel(),
            dma::DmaTrace *trace = nullptr);

    /**
     * Bare N-core machine sharing one DmaContext; attach devices
     * (and thereby pin them to cores) before bringUp().
     */
    Machine(des::Simulator &sim, dma::ProtectionMode mode,
            unsigned ncores,
            const cycles::CostModel &cost = cycles::defaultCostModel());

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Attach a NIC driven by core @p core_idx. Its DMA handle shares
     * this machine's context (and, for the baseline modes, the
     * context-global locks). Returns the NIC's index.
     */
    unsigned attachNic(const nic::NicProfile &profile, unsigned core_idx,
                       dma::DmaTrace *trace = nullptr);

    /**
     * Create a DMA handle for an additional non-NIC device (NVMe,
     * AHCI, ...) pinned to core @p core_idx, sharing this machine's
     * context and BDF space. The machine keeps ownership; pass the
     * reference to the device model's constructor. @p ring_sizes is
     * required for the rIOMMU modes (e.g. NvmeDevice::riommuRingSizes).
     */
    dma::DmaHandle &attachDeviceHandle(unsigned core_idx,
                                       std::vector<u32> ring_sizes = {});

    /** Bring every attached NIC up (ring allocation, Rx prefill).
     * Do this before starting a workload; init-time charges precede
     * any measurement window. */
    void
    bringUp()
    {
        for (auto &node : nodes_)
            node->nic->bringUp();
    }

    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    unsigned numNics() const { return static_cast<unsigned>(nodes_.size()); }

    des::Simulator &sim() { return sim_; }
    des::Core &core(unsigned i = 0) { return *cores_[i]; }
    cycles::CycleAccount &acct(unsigned i = 0) { return cores_[i]->acct(); }
    dma::DmaContext &ctx() { return ctx_; }
    dma::DmaHandle &handle(unsigned i = 0) { return *nodes_[i]->handle; }
    nic::Nic &nic(unsigned i = 0) { return *nodes_[i]->nic; }
    dma::ProtectionMode mode() const { return mode_; }
    const nic::NicProfile &profile(unsigned i = 0) const
    {
        return nodes_[i]->profile;
    }
    const cycles::CostModel &cost() const { return ctx_.cost(); }

    /** The core a NIC is pinned to. */
    des::Core &nicCore(unsigned i) { return *cores_[nodes_[i]->core_idx]; }

    /** Contention counters of the context-global locks. */
    const des::SimSpinlock::Stats &iovaLockStats()
    {
        return ctx_.iovaLock().stats();
    }
    const des::SimSpinlock::Stats &invalLockStats()
    {
        return ctx_.invalLock().stats();
    }

    // ---- device lifecycle ----------------------------------------------
    /**
     * Surprise hot-unplug of NIC @p i: the device vanishes mid-burst
     * (scheduled device events die), stops answering invalidations,
     * and the bus reports it gone (handle force-detached). Mapping
     * recovery is removeCleanupNic()'s job.
     */
    void surpriseUnplugNic(unsigned i);

    /** Driver response to the hotplug notification: unmap all
     * orphaned mappings through the detached handle (charged work —
     * strict modes eat invalidation time-outs here). */
    void removeCleanupNic(unsigned i);

    /** Re-attach the handle (recovering the invalidation queue if the
     * unplug wedged it) and bring the NIC back up. */
    Status replugNic(unsigned i);

    /**
     * Orderly quiesce of NIC @p i, in protocol order: stop posting,
     * drain, unmap all, flush invalidations, detach. Each completed
     * phase is journaled.
     */
    Status quiesceNic(unsigned i);

    /**
     * The same journaled five-phase protocol for a handle attached
     * via attachDeviceHandle() (whose device model lives outside this
     * Machine, e.g. a Cluster's RDMA NIC). The caller must have
     * stopped posting and drained the device before calling; the
     * kStopPosting/kDrain phases are journaled here so the protocol
     * reads identically in the log. Journal entries carry the index
     * numNics() + k for extra handle k.
     *
     * @p detach false runs the protocol without the final BDF detach:
     * the device stays attached to the machine (live migration — the
     * guest leaves, the NIC does not), so a subsequent stray DMA is
     * judged by the protection mode alone instead of bouncing off the
     * use-after-detach guard.
     */
    Status quiesceHandle(dma::DmaHandle &h, unsigned core_idx = 0,
                         bool detach = true);

    /** Arm surprise-unplug churn (no-op at rate 0; see
     * LifecycleChurnConfig). Call after bringUp(). */
    void armLifecycleChurn(const LifecycleChurnConfig &cfg);

    /** Stop generating churn events so the event queue can drain
     * (workloads call this when their measurement target is hit). */
    void disarmLifecycleChurn() { churn_.events_per_ms = 0.0; }

    const std::vector<LifecycleLogEntry> &lifecycleLog() const
    {
        return lifecycle_log_;
    }
    const LifecycleStats &lifecycleStats() const
    {
        return lifecycle_stats_;
    }

    /** Use-after-detach fault records across all device handles. */
    u64 detachFaultCount() const;

    // ---- fault recovery & injection -----------------------------------
    /** Recovery policy for every current and future device handle. */
    void setFaultPolicy(dma::FaultPolicy policy);

    /**
     * Arm deterministic fault injection on every current and future
     * handle at @p rate. Each handle's Rng stream is seeded from
     * @p seed and its BDF, so multi-device runs stay deterministic
     * regardless of attach order. rate = 0 disarms.
     */
    void setFaultInjection(double rate, u64 seed);

    /** Aggregate fault/recovery counters across all handles. */
    dma::FaultStats faultStats() const;

  private:
    struct Node
    {
        // By value: callers may pass temporaries; devices keep
        // pointing at this stable copy.
        const nic::NicProfile profile;
        unsigned core_idx;
        std::unique_ptr<dma::DmaHandle> handle;
        std::unique_ptr<nic::Nic> nic;

        Node(const nic::NicProfile &p, unsigned c)
            : profile(p), core_idx(c)
        {
        }
    };

    iommu::Bdf nextBdf();

    /** Push the machine-wide fault config down into one handle. */
    void applyFaultConfig(dma::DmaHandle &handle);

    void journal(unsigned nic_idx, LifecyclePhase phase);
    void journalAt(dma::DmaHandle &h, unsigned core_idx,
                   unsigned log_idx, LifecyclePhase phase);
    void scheduleChurnEvent();
    void churnEvent();

    des::Simulator &sim_;
    dma::ProtectionMode mode_;
    dma::DmaContext ctx_;
    std::vector<std::unique_ptr<des::Core>> cores_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<dma::DmaHandle>> extra_handles_;
    u8 next_dev_ = 3; //!< next PCI device number (bus 0, fn 0)
    dma::FaultPolicy fault_policy_ = dma::FaultPolicy::kAbort;
    double fault_rate_ = 0.0;
    u64 fault_seed_ = 1;

    LifecycleChurnConfig churn_;
    Rng churn_rng_;
    std::vector<LifecycleLogEntry> lifecycle_log_;
    LifecycleStats lifecycle_stats_;
};

} // namespace rio::sys

#endif // RIO_SYS_MACHINE_H
