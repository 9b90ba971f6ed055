/**
 * @file
 * NoneDmaHandle: IOMMU off; DMA addresses are physical addresses and
 * (un)map are free — the paper's unprotected optimum.
 */
#ifndef RIO_DMA_NONE_HANDLE_H
#define RIO_DMA_NONE_HANDLE_H

#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "dma/dma_handle.h"
#include "mem/phys_mem.h"

namespace rio::dma {

/** IOMMU disabled: device addresses are physical addresses. */
class NoneDmaHandle : public DmaHandle
{
  public:
    /** @p cost / @p acct only feed the fault engine (there is no
     * IOMMU to fault, but the injector can synthesize bus aborts). */
    NoneDmaHandle(mem::PhysicalMemory &pm, iommu::Bdf bdf,
                  const cycles::CostModel &cost,
                  cycles::CycleAccount *acct)
        : pm_(pm), bdf_(bdf)
    {
        fault_.bind(&cost, acct);
    }

    u64 liveMappings() const override { return live_; }
    iommu::Bdf bdf() const override { return bdf_; }

  protected:
    Result<DmaMapping> mapImpl(u16 rid, PhysAddr pa, u32 size,
                               iommu::DmaDir dir) override;
    Status unmapImpl(const DmaMapping &mapping, bool end_of_burst) override;
    Status readImpl(u64 device_addr, void *dst, u64 len) override;
    Status writeImpl(u64 device_addr, const void *src, u64 len) override;

  private:
    mem::PhysicalMemory &pm_;
    iommu::Bdf bdf_;
    u64 live_ = 0;
};

} // namespace rio::dma

#endif // RIO_DMA_NONE_HANDLE_H
