/**
 * @file
 * DmaContext: one simulated machine's memory + IOMMU hardware bundle
 * and a factory producing the right DmaHandle for each protection
 * mode. This is the main entry point of the library — see
 * examples/quickstart.cc.
 */
#ifndef RIO_DMA_DMA_CONTEXT_H
#define RIO_DMA_DMA_CONTEXT_H

#include <memory>
#include <string>
#include <vector>

#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "des/spinlock.h"
#include "dma/dma_handle.h"
#include "dma/protection_mode.h"
#include "iommu/iommu.h"
#include "mem/phys_mem.h"
#include "riommu/rdevice.h"
#include "riommu/riommu.h"

namespace rio::dma {

/** One mapping that survived a quiesce/detach — always a bug. */
struct LeakRecord
{
    iommu::Bdf bdf;
    u16 rid = 0;
    u64 device_addr = 0;
    u32 size = 0;
};

/** Result of the stale-mapping leak detector. */
struct LeakReport
{
    u64 leaked = 0; //!< live mappings the driver still counts
    /** Surviving mappings found by scanning the mode's own state
     * (rPTE tables, IOVA shadow); can name one the driver lost count
     * of, so any record makes the report unclean. */
    std::vector<LeakRecord> records;
    u64 stale_iotlb = 0;  //!< IOTLB entries still naming the sid
    u64 stale_riotlb = 0; //!< rIOTLB entries still naming the sid

    bool
    clean() const
    {
        return leaked == 0 && records.empty() && stale_iotlb == 0 &&
               stale_riotlb == 0;
    }

    /** Human-readable summary, one line per leaked mapping. */
    std::string toString() const;
};

/** Memory, baseline IOMMU and rIOMMU of one simulated machine. */
class DmaContext
{
  public:
    explicit DmaContext(
        const cycles::CostModel &cost = cycles::defaultCostModel(),
        iommu::IotlbConfig iotlb_config = {});

    /** Publishes the IOTLB and rIOTLB totals to obs::registry(). */
    ~DmaContext();

    DmaContext(const DmaContext &) = delete;
    DmaContext &operator=(const DmaContext &) = delete;

    mem::PhysicalMemory &memory() { return pm_; }
    iommu::Iommu &iommu() { return iommu_; }
    riommu::Riommu &riommu() { return riommu_; }
    const cycles::CostModel &cost() const { return cost_; }

    /** The context-global IOVA-allocator lock (Linux's per-domain
     * spinlock, the §3.2 scalability pathology). */
    des::SimSpinlock &iovaLock() { return iova_lock_; }
    /** The per-IOMMU invalidation-queue register lock. */
    des::SimSpinlock &invalLock() { return inval_lock_; }

    /**
     * Create the DMA handle implementing @p mode for device @p bdf.
     * @param acct where driver-side cycles are charged (may be null
     *        for purely functional use)
     * @param ring_sizes rRING sizes for the rIOMMU modes; required
     *        non-empty there, ignored elsewhere
     * @param core the simulated core the handle's driver work runs
     *        on. When non-null, the baseline modes serialize their
     *        IOVA allocator and invalidation-queue operations on this
     *        context's shared locks at the core's virtual time —
     *        cores sharing one context then contend, as on real
     *        hardware. The rIOMMU modes take no locks either way.
     */
    std::unique_ptr<DmaHandle> makeHandle(ProtectionMode mode,
                                          iommu::Bdf bdf,
                                          cycles::CycleAccount *acct,
                                          std::vector<u32> ring_sizes = {},
                                          des::Core *core = nullptr);

    /**
     * Same, with explicit per-rRING allocation policies — needed for
     * devices that complete out of order (the 4.x AHCI extension).
     */
    std::unique_ptr<DmaHandle>
    makeHandleWithSpecs(ProtectionMode mode, iommu::Bdf bdf,
                        cycles::CycleAccount *acct,
                        std::vector<riommu::RingSpec> ring_specs,
                        des::Core *core = nullptr);

    /**
     * Stale-mapping leak detector, run after a quiesce or detach:
     * every mapping still live through @p handle is an error (owner
     * ring + device address reported), as is any IOTLB/rIOTLB entry
     * still naming the handle's requester id.
     */
    LeakReport checkHandleLeaks(const DmaHandle &handle) const;

  private:
    const cycles::CostModel &cost_;
    mem::PhysicalMemory pm_;
    iommu::Iommu iommu_;
    riommu::Riommu riommu_;
    des::SimSpinlock iova_lock_;
    des::SimSpinlock inval_lock_;
};

} // namespace rio::dma

#endif // RIO_DMA_DMA_CONTEXT_H
