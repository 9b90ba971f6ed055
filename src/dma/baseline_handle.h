/**
 * @file
 * DMA handle for the four baseline-IOMMU modes (strict, strict+,
 * defer, defer+): a per-device 4-level page table, an IOVA allocator
 * (stock Linux or magazine), and either synchronous per-entry IOTLB
 * invalidation or the Linux deferred scheme that queues 250 frees and
 * then flushes the whole IOTLB (§3.2).
 */
#ifndef RIO_DMA_BASELINE_HANDLE_H
#define RIO_DMA_BASELINE_HANDLE_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "dma/dma_handle.h"
#include "dma/protection_mode.h"
#include "iommu/inval_queue.h"
#include "iommu/iommu.h"
#include "iova/iova_allocator.h"

namespace rio::dma {

/** strict / strict+ / defer / defer+ DMA management. */
class BaselineDmaHandle : public DmaHandle
{
  public:
    /** Frees accumulated before the deferred modes flush (Linux). */
    static constexpr unsigned kDeferBatch = 250;

    BaselineDmaHandle(ProtectionMode mode, iommu::Iommu &iommu,
                      mem::PhysicalMemory &pm, iommu::Bdf bdf,
                      const cycles::CostModel &cost,
                      cycles::CycleAccount *acct);
    ~BaselineDmaHandle() override;

    /**
     * intel-iommu's dma_map_sg: ONE IOVA range covers the whole list
     * (each element rounded up to pages), so the device sees the
     * buffers at consecutive page-aligned offsets of a single range
     * and the driver pays one allocation for the list.
     */
    Result<std::vector<DmaMapping>>
    mapSg(u16 rid, const std::vector<SgEntry> &sg,
          iommu::DmaDir dir) override;

    /** Releases the shared range exactly once. */
    Status unmapSg(const std::vector<DmaMapping> &mappings,
                   bool end_of_burst) override;
    u64 liveMappings() const override { return live_; }
    iommu::Bdf bdf() const override { return bdf_; }

    // ---- lifecycle ------------------------------------------------------
    /** Push out the deferred queue so no invalidation survives. */
    Status quiesceFlush() override;

    /** Orderly detach: flush, then tear down the context entry. */
    Status detach() override;

    /**
     * Surprise unplug: the device stops ack'ing invalidations (every
     * later strict invalidation for it times out) and the hotplug
     * path tears down its context entry immediately.
     */
    void surpriseRemove() override;

    /** Revive: device answers again, context entry reinstated. */
    Status reattach() override;

    std::vector<LiveMappingInfo> liveMappingList() const override;

    /**
     * Force the deferred queue out now (device quiesce / teardown).
     * No-op in the strict modes.
     */
    void flushDeferred();

    /** Entries waiting in the deferred queue. */
    u64 deferredPending() const { return defer_queue_.size(); }

    /**
     * Share the context-global locks: IOVA-allocator operations run
     * under @p iova_lock and synchronous invalidations under
     * @p inval_lock, both at @p core's virtual time. See
     * DmaContext::makeHandle.
     */
    void
    setContention(des::SimSpinlock *iova_lock,
                  des::SimSpinlock *inval_lock, des::Core *core)
    {
        allocator_->setContention(iova_lock, core);
        inval_queue_.setContention(inval_lock, core);
    }

    /** Per-core magazine pair for the magazine modes; see DmaHandle. */
    void setIovaCoreCache(u32 rounds) override;

    /** Stage-1 superpages; see DmaHandle. */
    void setStage1Superpages(bool on) override { superpages_ = on; }

    /** Live 2 MB stage-1 regions (tests). */
    u64 superRegions() const { return super_by_phys_.size(); }

    iommu::IoPageTable &pageTable() { return table_; }
    iova::IovaAllocator &allocator() { return *allocator_; }
    iommu::InvalQueue &invalQueue() { return inval_queue_; }

  protected:
    Result<DmaMapping> mapImpl(u16 rid, PhysAddr pa, u32 size,
                               iommu::DmaDir dir) override;
    Status unmapImpl(const DmaMapping &mapping, bool end_of_burst) override;
    Status readImpl(u64 device_addr, void *dst, u64 len) override;
    Status writeImpl(u64 device_addr, const void *src, u64 len) override;

  private:
    void
    charge(cycles::Cat cat, Cycles c)
    {
        if (acct_)
            acct_->charge(cat, c);
    }

    /**
     * Device access with the fault engine in the loop: optionally
     * injects a translation fault (zeroed leaf PTE + IOTLB shootdown,
     * undone during recovery), and routes any faulted access through
     * the recovery policy.
     */
    Status deviceAccess(u64 device_addr,
                        const std::function<Status()> &access);

    /** Driver fault-interrupt work: drain the hardware fault log. */
    void acknowledgeFaults();

    /** A detached-BDF DMA is a real fault: log it like hardware. */
    void onDetachedAccess(const iommu::FaultRecord &rec) override;

    /**
     * Recovery ladder for a timed-out invalidation: bounded
     * retry-with-backoff (a transiently stalled device resolves
     * here), then abort-queue + head-skip and a software purge of the
     * device's IOTLB footprint (safe: the device is gone, nothing
     * translates through it anymore).
     */
    Status recoverInvalidation();

    /** One live 2 MB superpage region (stage-1 superpage mode). */
    struct SuperRegion
    {
        u64 iova_base_pfn = 0;
        u64 phys_base_pfn = 0;
        u32 refs = 0;
    };

    /** Superpage-path map body; null result means "fall back to 4K"
     * (buffer straddles a 2 MB boundary). */
    Result<DmaMapping> mapSuper(u16 rid, PhysAddr pa, u32 size,
                                iommu::DmaDir dir, bool *handled);

    /** Superpage-path unmap body; @p handled false means the mapping
     * is a plain 4K-range one. */
    Status unmapSuper(const DmaMapping &mapping, bool *handled);

    ProtectionMode mode_;
    iommu::Iommu &iommu_;
    mem::PhysicalMemory &pm_;
    iommu::Bdf bdf_;
    const cycles::CostModel &cost_;
    cycles::CycleAccount *acct_;
    iommu::IoPageTable table_;
    iommu::InvalQueue inval_queue_;
    std::unique_ptr<iova::IovaAllocator> allocator_;
    std::vector<u64> defer_queue_; //!< pfn_lo of ranges to free at flush
    u64 live_ = 0;
    // Host-side shadow of the live mappings, keyed by the range's
    // pfn_lo, so the leak detector can name ring + IOVA of anything
    // that survives a quiesce. Pure bookkeeping — never charged.
    std::unordered_map<u64, LiveMappingInfo> live_map_;

    // ---- stage-1 superpage state (off unless setStage1Superpages) ---
    bool superpages_ = false;
    std::unordered_map<u64, SuperRegion> super_by_phys_; //!< key: phys base pfn
    std::unordered_map<u64, u64> super_phys_by_iova_;    //!< iova base -> phys base
    std::unordered_multimap<u64, LiveMappingInfo> super_live_; //!< by device_addr
};

} // namespace rio::dma

#endif // RIO_DMA_BASELINE_HANDLE_H
