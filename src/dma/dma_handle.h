/**
 * @file
 * The OS DMA API (paper §3.1, Figures 4 and 6) as seen by a device
 * driver: map a physical target buffer to obtain a device-visible
 * DMA address, let the device access it, unmap when the DMA is done.
 * Concrete handles implement the protection modes.
 *
 * The same object also carries the device-side access path
 * (deviceRead/deviceWrite), i.e. "the bus": every device access goes
 * through whatever translation the mode imposes, so protection
 * properties are enforced — and their violations observable — in one
 * place.
 */
#ifndef RIO_DMA_DMA_HANDLE_H
#define RIO_DMA_DMA_HANDLE_H

#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "dma/dma_trace.h"
#include "dma/fault.h"
#include "iommu/types.h"
#include "obs/registry.h"

namespace rio::cycles {
class CycleAccount;
}
namespace rio::des {
class Core;
}

namespace rio::dma {

/** A live mapping returned by map() and consumed by unmap(). */
struct DmaMapping
{
    u64 device_addr = 0; //!< what the driver puts in the descriptor
    PhysAddr pa = 0;
    u32 size = 0;
};

/** One element of a scatter-gather list. */
struct SgEntry
{
    PhysAddr pa = 0;
    u32 len = 0;
};

/**
 * One surviving mapping, as reported by the stale-mapping leak
 * detector: enough to name the owner ring and device address in the
 * error message.
 */
struct LiveMappingInfo
{
    u64 device_addr = 0;
    u32 size = 0;
    u16 rid = 0;
};

/**
 * Per-device DMA-management handle. Driver-side calls (map/unmap)
 * charge the core's cycle account; device-side calls (deviceRead/
 * deviceWrite) are free for the core, per the paper's validated
 * model.
 */
class DmaHandle
{
  public:
    /** Publishes the bound map/unmap histograms to obs::registry(). */
    virtual ~DmaHandle();

    /**
     * Map @p size bytes at physical @p pa for DMA in direction
     * @p dir.
     * @param rid ring hint: selects the rRING for rIOMMU modes;
     *        ignored by the baseline modes (one hierarchy per
     *        device).
     *
     * Non-virtual: the public call wraps the mode's mapImpl() so the
     * per-mode map-latency histogram and timeline span (when
     * bindObs() armed them) and the kMap trace event (when
     * bindTrace() did) are recorded at one choke point.
     */
    Result<DmaMapping> map(u16 rid, PhysAddr pa, u32 size,
                           iommu::DmaDir dir);

    /**
     * Tear down a mapping. @p end_of_burst marks the last unmap of a
     * completion burst: rIOMMU invalidates its single rIOTLB entry
     * only then; other modes ignore the flag. Non-virtual wrapper
     * over unmapImpl(), same observability contract as map().
     */
    Status unmap(const DmaMapping &mapping, bool end_of_burst);

    /**
     * Arm map/unmap observability: cycle-latency histograms fed from
     * @p acct's deltas, published at teardown labeled {mode=@p mode};
     * timeline spans on @p core's track. @p acct and @p core may be
     * null; recording degrades gracefully. Called by
     * DmaContext::makeHandleWithSpecs.
     */
    void bindObs(const char *mode, cycles::CycleAccount *acct,
                 des::Core *core);

    /** The core bindObs() recorded against (its recorder gets this
     * handle's events); null when unbound. */
    des::Core *obsCore() const { return obs_core_; }

    /** Driver cycles of each map()/unmap() since bindObs(). */
    const obs::Histogram &mapCycles() const { return map_cycles_; }
    const obs::Histogram &unmapCycles() const { return unmap_cycles_; }

    /**
     * Record every successful map/unmap and every device access (plus
     * a kFault marker when the access failed) into @p trace, at
     * IOVA-page granularity (the §5.4 capture). Null unbinds.
     */
    void bindTrace(DmaTrace *trace) { trace_ = trace; }

    /**
     * Map a scatter-gather list (the Linux dma_map_sg path). The
     * default maps each element independently, rolling back on
     * failure; the baseline-IOMMU handle overrides it to allocate one
     * contiguous IOVA range for the whole list, as intel-iommu does.
     * Returns one DmaMapping per element, in order.
     */
    virtual Result<std::vector<DmaMapping>>
    mapSg(u16 rid, const std::vector<SgEntry> &sg, iommu::DmaDir dir);

    /** Tear down a list produced by mapSg (pass the full vector). */
    virtual Status unmapSg(const std::vector<DmaMapping> &mappings,
                           bool end_of_burst);

    /**
     * Device-side read of memory (DMA toward the device). Non-virtual
     * wrapper over readImpl(): records the access, rejects DMA
     * through a detached BDF, then records a fault if the mode's
     * access failed.
     */
    Status deviceRead(u64 device_addr, void *dst, u64 len);

    /** Device-side write of memory (DMA from the device); as
     * deviceRead(), over writeImpl(). */
    Status deviceWrite(u64 device_addr, const void *src, u64 len);

    /** Mappings currently live through this handle. */
    virtual u64 liveMappings() const = 0;

    /** The device this handle manages DMA for. */
    virtual iommu::Bdf bdf() const = 0;

    // ---- fault recovery & injection -----------------------------------

    /** Select the recovery policy for faulted device accesses. */
    void setFaultPolicy(FaultPolicy policy) { fault_.setPolicy(policy); }

    FaultPolicy faultPolicy() const { return fault_.policy(); }

    /**
     * Arm (rate > 0) or disarm deterministic fault injection on this
     * handle's device-access path.
     */
    void setFaultInjection(const FaultInjectConfig &cfg)
    {
        fault_.setInjection(cfg);
    }

    FaultStats faultStats() const { return fault_.stats(); }

    /**
     * Opt the handle's IOVA allocator into the per-core magazine
     * pair over the shared depot (Bonwick layering; see
     * iova::MagazineIovaAllocator::setCoreCache). Only the magazine
     * modes (strict+/defer+) have the layer; everywhere else this is
     * a no-op so callers can set it unconditionally per mode sweep.
     */
    virtual void setIovaCoreCache(u32 /*rounds*/) {}

    /**
     * Back the handle's own (stage-1) I/O page table with 2 MB
     * superpage leaves: mappings that fit inside one 2 MB physical
     * region share a single huge translation, installed on first
     * touch and torn down (one masked invalidation) on last unref.
     * Protection granularity coarsens to the region — the documented
     * superpage tradeoff — and walks terminate a level early, which
     * is what closes the nested 2-D gap toward the ~15-ref ideal.
     * Only the baseline radix modes have a stage-1 table; everywhere
     * else this is a no-op so sweeps can set it unconditionally.
     * Flip before traffic; mixing with live 4K mappings is not
     * modeled.
     */
    virtual void setStage1Superpages(bool /*on*/) {}

    // ---- device lifecycle (quiesce protocol + surprise removal) -------

    /**
     * Flush phase of the quiesce protocol (stop posting → drain ring
     * → unmap all → flush → detach): push out deferred invalidations
     * and drop any translation-cache state so nothing survives the
     * mappings it guarded. Default: nothing is queued.
     */
    virtual Status quiesceFlush() { return Status::ok(); }

    /**
     * Orderly detach (last phase of quiesce): tear down the device's
     * IOMMU attachment. The handle stays constructed — map() and
     * device access now fail with kDetached — and can be revived
     * with reattach().
     */
    virtual Status
    detach()
    {
        detached_ = true;
        return Status::ok();
    }

    /**
     * Surprise hot-unplug: the device vanished mid-burst, no drain or
     * flush happened first. Marks the handle detached and makes the
     * device unresponsive to invalidations (the ITE trigger); the
     * driver's removal path then unmaps through the detached handle.
     */
    virtual void surpriseRemove() { detached_ = true; }

    /** Re-attach after an unplug or orderly detach. */
    virtual Status
    reattach()
    {
        detached_ = false;
        return Status::ok();
    }

    bool detached() const { return detached_; }

    /**
     * The live mappings, one record each, for the leak detector.
     * A mode with no per-mapping state (None's identity map) reports
     * nothing; its liveMappings() counter still counts.
     */
    virtual std::vector<LiveMappingInfo> liveMappingList() const
    {
        return {};
    }

    /** Typed records of DMA attempts through the detached BDF. */
    const std::vector<iommu::FaultRecord> &detachFaults() const
    {
        return detach_faults_;
    }

    void clearDetachFaults() { detach_faults_.clear(); }

  protected:
    /** Mode-specific body of map(); see the public wrapper. */
    virtual Result<DmaMapping> mapImpl(u16 rid, PhysAddr pa, u32 size,
                                       iommu::DmaDir dir) = 0;

    /** Mode-specific body of unmap(); see the public wrapper. */
    virtual Status unmapImpl(const DmaMapping &mapping,
                             bool end_of_burst) = 0;

    /** Mode-specific body of deviceRead(); the BDF is attached. */
    virtual Status readImpl(u64 device_addr, void *dst, u64 len) = 0;

    /** Mode-specific body of deviceWrite(); the BDF is attached. */
    virtual Status writeImpl(u64 device_addr, const void *src,
                             u64 len) = 0;

    /** Hook for modes with a FaultLog to record the detached access. */
    virtual void onDetachedAccess(const iommu::FaultRecord &) {}

    /** Record @p kind at @p addr's IOVA page if a trace is bound. */
    void
    traceEvent(TraceEvent::Kind kind, u64 addr)
    {
        if (trace_)
            trace_->add(kind, addr >> kPageShift);
    }

    FaultEngine fault_;
    bool detached_ = false;
    std::vector<iommu::FaultRecord> detach_faults_;

  private:
    /**
     * Use-after-detach guard, run by deviceRead/deviceWrite before
     * the mode's access: a DMA through a detached BDF yields one
     * typed fault record (and, where an IOMMU exists, a FaultLog
     * entry via onDetachedAccess) instead of undefined behaviour.
     */
    Status guardDetached(u64 device_addr, iommu::Access access);

    DmaTrace *trace_ = nullptr; //!< bindTrace; null = not recording

    // Observability bindings (bindObs); never read by mode logic.
    // obs_mode_ is null until bound.
    const char *obs_mode_ = nullptr;
    obs::Histogram map_cycles_{obs::cycleBuckets()};
    obs::Histogram unmap_cycles_{obs::cycleBuckets()};
    cycles::CycleAccount *obs_acct_ = nullptr;
    des::Core *obs_core_ = nullptr;
};

} // namespace rio::dma

#endif // RIO_DMA_DMA_HANDLE_H
