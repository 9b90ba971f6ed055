/**
 * @file
 * DMA handle for the two rIOMMU modes (riommu-, riommu): a thin
 * adapter from the generic DMA API onto the RDevice driver of
 * Figure 11 and the rIOMMU hardware model.
 */
#ifndef RIO_DMA_RIOMMU_HANDLE_H
#define RIO_DMA_RIOMMU_HANDLE_H

#include <memory>
#include <vector>

#include "dma/dma_handle.h"
#include "dma/protection_mode.h"
#include "riommu/rdevice.h"

namespace rio::dma {

/** riommu- / riommu DMA management. */
class RiommuDmaHandle : public DmaHandle
{
  public:
    RiommuDmaHandle(ProtectionMode mode, riommu::Riommu &riommu,
                    mem::PhysicalMemory &pm, iommu::Bdf bdf,
                    std::vector<riommu::RingSpec> rings,
                    const cycles::CostModel &cost,
                    cycles::CycleAccount *acct);

    u64 liveMappings() const override;
    iommu::Bdf bdf() const override { return rdevice_.bdf(); }

    // ---- lifecycle ------------------------------------------------------
    /** Drop every ring's rIOTLB entry (nothing is queued in rIOMMU). */
    Status quiesceFlush() override;

    /** Orderly detach: remove the rDEVICE, dropping its rIOTLB state. */
    Status detach() override;

    /**
     * Surprise unplug. rIOMMU has no shared invalidation queue to
     * wedge — teardown is a per-device rDEVICE removal that drops the
     * per-ring rIOTLB entries with it, one of the design's lifecycle
     * advantages.
     */
    void surpriseRemove() override;

    Status reattach() override;

    /** Valid rPTEs across all rings, with owner ring + rIOVA. */
    std::vector<LiveMappingInfo> liveMappingList() const override;

    riommu::RDevice &rdevice() { return rdevice_; }

  protected:
    Result<DmaMapping> mapImpl(u16 rid, PhysAddr pa, u32 size,
                               iommu::DmaDir dir) override;
    Status unmapImpl(const DmaMapping &mapping, bool end_of_burst) override;
    Status readImpl(u64 device_addr, void *dst, u64 len) override;
    Status writeImpl(u64 device_addr, const void *src, u64 len) override;

  private:
    void onDetachedAccess(const iommu::FaultRecord &rec) override;
    /**
     * Device access with the fault engine in the loop: optionally
     * clears the target rPTE's valid bit (undone during recovery) and
     * routes faulted accesses through the recovery policy.
     */
    Status deviceAccess(u64 device_addr,
                        const std::function<Status()> &access);

    riommu::Riommu &riommu_;
    mem::PhysicalMemory &pm_;
    const cycles::CostModel &cost_;
    cycles::CycleAccount *acct_;
    riommu::RDevice rdevice_;
};

} // namespace rio::dma

#endif // RIO_DMA_RIOMMU_HANDLE_H
