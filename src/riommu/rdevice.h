/**
 * @file
 * Driver-side rIOMMU state for one device: owns the memory-resident
 * rDEVICE descriptor array and flat rPTE tables, plus the
 * software-only tail/nmapped fields of Figure 9b, and implements the
 * map/unmap functions of Figure 11.
 *
 * Cycle charging mirrors the paper's accounting: the locked tail
 * bump is the (trivial) "IOVA allocation", the rPTE update plus
 * sync_mem is the "page table" work, and the end-of-burst
 * riotlb_invalidate is the only explicit IOTLB invalidation.
 */
#ifndef RIO_RIOMMU_RDEVICE_H
#define RIO_RIOMMU_RDEVICE_H

#include <functional>
#include <vector>

#include "base/status.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "riommu/riommu.h"

namespace rio::iommu {
class VirtTraps;
}

namespace rio::riommu {

/** Geometry + allocation policy of one rRING. */
struct RingSpec
{
    u32 size = 0;
    RingMode mode = RingMode::kSequential;
};

/** One device's driver-side rIOMMU handle. */
class RDevice
{
  public:
    /**
     * Allocate and register the rDEVICE array and one flat table per
     * ring.
     * @param ring_sizes rRING sizes, N entries each; the paper's
     *        guidance is N >= L, the max number of in-flight IOVAs.
     * @param coherent whether rIOMMU table walks snoop CPU caches;
     *        false models the riommu- variant (extra barrier+flush
     *        per update, ~1.1K extra cycles per mlx packet, §5.2).
     */
    RDevice(Riommu &riommu, mem::PhysicalMemory &pm, Bdf bdf,
            std::vector<u32> ring_sizes, bool coherent,
            const cycles::CostModel &cost, cycles::CycleAccount *acct);

    /** Same, with per-ring allocation policy (§4's AHCI extension). */
    RDevice(Riommu &riommu, mem::PhysicalMemory &pm, Bdf bdf,
            std::vector<RingSpec> rings, bool coherent,
            const cycles::CostModel &cost, cycles::CycleAccount *acct);
    ~RDevice();

    RDevice(const RDevice &) = delete;
    RDevice &operator=(const RDevice &) = delete;

    /**
     * map (Figure 11): allocate the ring's tail rPTE, fill it, make
     * it visible, and pack the rIOVA (offset 0). Returns kOverflow
     * when the ring has no free entry — legal, means "slow down".
     */
    Result<RIova> map(u16 rid, PhysAddr pa, u32 size, DmaDir dir);

    /**
     * unmap (Figure 11): invalidate the rPTE, make it visible, and —
     * only when @p end_of_burst — invalidate the ring's single
     * rIOTLB entry (2,150 cycles, amortized over the burst).
     */
    Status unmap(RIova iova, bool end_of_burst);

    // ---- introspection -------------------------------------------------
    Bdf bdf() const { return bdf_; }
    u16 nrings() const { return static_cast<u16>(rings_.size()); }
    u32 ringSize(u16 rid) const { return rings_.at(rid).size; }
    u32 tail(u16 rid) const { return rings_.at(rid).tail; }
    u32 nmapped(u16 rid) const { return rings_.at(rid).nmapped; }

    /** Read an rPTE back from memory (map's tail check, tests). */
    RPte readPte(u16 rid, u32 rentry) const;

    /**
     * Call @p fn(rentry, pte) for each valid rPTE of ring @p rid, in
     * entry order. Reads the table a frame at a time through
     * PhysicalMemory::frameData and skips a never-written frame whole
     * (all its rPTEs read as invalid); the bytes read are those
     * readPte would read, so an rPTE written behind the driver's back
     * still shows.
     */
    void forEachValidPte(
        u16 rid, const std::function<void(u32, const RPte &)> &fn) const;

    PhysAddr rdeviceBase() const { return rdevice_base_; }

    /**
     * Install a guest-write trap sink for rPTE stores. Only the
     * shadow strategy traps these (rIOMMU's memory-only protocol has
     * no MMIO register per map; emulated and nested guests run the
     * rPTE path untrapped once the tables are registered).
     */
    void setVirtTraps(iommu::VirtTraps *traps) { traps_ = traps; }

    /** Physical address of ring @p rid's flat rPTE table (tests and
     * the fault-injection harness). */
    PhysAddr tableAddr(u16 rid) const { return rings_.at(rid).table; }

  private:
    struct RingState
    {
        PhysAddr table = 0;
        u32 size = 0;
        RingMode mode = RingMode::kSequential;
        u32 tail = 0;    // SW only (sequential mode)
        u32 nmapped = 0; // SW only
        std::vector<u32> free_slots; // SW only (free-list mode)
    };

    /** Charge one sync_mem (Figure 11) to @p cat. */
    void chargeSync(cycles::Cat cat, Cycles update_cost);

    void
    charge(cycles::Cat cat, Cycles c)
    {
        if (acct_)
            acct_->charge(cat, c);
    }

    Riommu &riommu_;
    mem::PhysicalMemory &pm_;
    Bdf bdf_;
    bool coherent_;
    const cycles::CostModel &cost_;
    cycles::CycleAccount *acct_;
    iommu::VirtTraps *traps_ = nullptr;

    PhysAddr rdevice_base_ = 0;
    u64 rdevice_bytes_ = 0;
    std::vector<RingState> rings_;
};

} // namespace rio::riommu

#endif // RIO_RIOMMU_RDEVICE_H
