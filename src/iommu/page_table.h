/**
 * @file
 * Four-level radix I/O page table, VT-d second-level style, resident
 * in simulated physical memory (paper §2.2 / Figure 2). The OS-side
 * map/unmap operations are charged to the core's cycle account — they
 * are the "page table" rows of Table 1 — while the hardware-side walk
 * is uncharged (it happens in the IOMMU, off the core's critical
 * path) but reports how many levels it touched so the IOTLB-miss cost
 * (§5.3) can be modeled.
 */
#ifndef RIO_IOMMU_PAGE_TABLE_H
#define RIO_IOMMU_PAGE_TABLE_H

#include <array>

#include "base/status.h"
#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "iommu/types.h"
#include "mem/phys_mem.h"

namespace rio::iommu {

class VirtStage2;
class VirtTraps;

/**
 * A leaf page-table entry: Intel-style bit 0 = device-read allowed,
 * bit 1 = device-write allowed, bits 12+ = physical frame address.
 * Non-leaf entries use the same layout and point at the next table.
 */
struct Pte
{
    u64 raw = 0;

    static constexpr u64 kRead = 1u << 0;
    static constexpr u64 kWrite = 1u << 1;
    /** VT-d PS bit: this level-3 entry is a 2 MB leaf, not a table
     * pointer. Only stage-2 tables install huge leaves today. */
    static constexpr u64 kHuge = 1u << 7;
    /** VT-d second-level entries hold a 52-bit address field; bits
     * 52..63 are reserved and must be zero (checked by the walker). */
    static constexpr u64 kAddrMask = u64{0x000ffffffffff000};
    static constexpr u64 kReservedMask = u64{0xfff0000000000000};

    bool present() const { return (raw & (kRead | kWrite)) != 0; }
    bool huge() const { return (raw & kHuge) != 0; }
    bool allowsRead() const { return (raw & kRead) != 0; }
    bool allowsWrite() const { return (raw & kWrite) != 0; }
    bool reservedBitsSet() const { return (raw & kReservedMask) != 0; }
    PhysAddr addr() const { return raw & kAddrMask; }

    bool
    permits(Access acc) const
    {
        return acc == Access::kRead ? allowsRead() : allowsWrite();
    }

    static Pte
    make(PhysAddr pa, DmaDir dir)
    {
        u64 raw = pa & kAddrMask;
        if (dirPermits(dir, Access::kRead))
            raw |= kRead;
        if (dirPermits(dir, Access::kWrite))
            raw |= kWrite;
        return Pte{raw};
    }

    static Pte
    makeHuge(PhysAddr pa, DmaDir dir)
    {
        return Pte{make(pa, dir).raw | kHuge};
    }
};

/**
 * One device's 4-level translation hierarchy. 48-bit IOVAs: 36-bit
 * virtual page number split into four 9-bit indices, 12-bit page
 * offset.
 */
class IoPageTable
{
  public:
    static constexpr int kLevels = 4;
    static constexpr unsigned kEntriesPerTable = 512;
    /** 4 KB pages covered by one 2 MB huge leaf. */
    static constexpr u64 kHugePfns = 512;

    /**
     * @param coherent whether IOMMU walks snoop CPU caches; if not,
     * every driver update pays a barrier + cacheline flush (§3.2).
     */
    IoPageTable(mem::PhysicalMemory &pm, bool coherent,
                const cycles::CostModel &cost, cycles::CycleAccount *acct);
    ~IoPageTable();

    IoPageTable(const IoPageTable &) = delete;
    IoPageTable &operator=(const IoPageTable &) = delete;

    /** Physical address of the root (level-1) table. */
    PhysAddr rootAddr() const { return root_; }

    /**
     * Install iova_pfn -> phys_pfn with permission @p dir. Charged as
     * map/"page table". Fails with kExists if already mapped.
     */
    Status map(u64 iova_pfn, u64 phys_pfn, DmaDir dir);

    /** Map @p npages consecutive pfns. */
    Status mapRange(u64 iova_pfn, u64 phys_pfn, u64 npages, DmaDir dir);

    /**
     * Install a 2 MB huge leaf at level kLevels-1: one table store
     * covers kHugePfns consecutive pfns, and walks terminate one
     * level early. Both pfns must be kHugePfns-aligned. Fails with
     * kExists if any 4K or huge translation already covers the slot.
     */
    Status mapHuge(u64 iova_pfn, u64 phys_pfn, DmaDir dir);

    /**
     * Remove the translation for @p iova_pfn. Charged as
     * unmap/"page table". Intermediate tables are retained, as Linux
     * retains them.
     */
    Status unmap(u64 iova_pfn);

    /**
     * Remove a 2 MB huge leaf installed by mapHuge(). One table store
     * clears kHugePfns pages of reach; fails with kNotFound if the
     * slot holds no huge leaf (a 4K hierarchy there is not touched).
     */
    Status unmapHuge(u64 iova_pfn);

    /** Unmap @p npages consecutive pfns. */
    Status unmapRange(u64 iova_pfn, u64 npages);

    /**
     * Hardware page walk (uncharged to the core). @p levels_touched,
     * when non-null, receives the number of tables read — the number
     * of dependent memory accesses an IOTLB miss costs.
     *
     * With a stage-2 hook installed (@p s2, nested virtualization)
     * every table address the walker dereferences is itself
     * translated GPA->HPA first, and @p mem_refs accumulates the
     * *combined* reference count: stage-2 references for each table
     * address plus one reference for the table read itself. Without
     * @p s2, @p mem_refs equals levels_touched.
     */
    Result<Pte> walk(u64 iova_pfn, int *levels_touched = nullptr,
                     VirtStage2 *s2 = nullptr,
                     int *mem_refs = nullptr) const;

    /**
     * Physical address of the leaf PTE slot for @p iova_pfn, or 0 if
     * the hierarchy above it is not populated. Uncharged: used by the
     * fault-injection harness to damage (and later repair) a live
     * translation behind the driver's back.
     */
    PhysAddr leafSlot(u64 iova_pfn) const;

    /**
     * Install a guest-write trap sink: every subsequent leaf store
     * (map or unmap) is reported through @p traps with this table's
     * cycle account. Pass nullptr to detach (e.g. guest teardown).
     */
    void setVirtTraps(VirtTraps *traps) { traps_ = traps; }

    /** Translations currently installed (a huge leaf counts as
     * kHugePfns 4K pages of reach). */
    u64 mappedPages() const { return mapped_pages_; }

    /** Huge (2 MB) leaves currently installed. */
    u64 hugeMappings() const { return huge_mappings_; }

    /** 4 KB table pages backing the hierarchy. */
    u64 tablePages() const { return table_pages_; }

    /** Table entries walk() read at @p level (1 = root). */
    u64 levelReads(int level) const { return level_reads_[level - 1]; }

  private:
    static unsigned levelIndex(u64 iova_pfn, int level);

    /** Descend to the table holding level @p leaf_level's slot,
     * allocating levels if @p create. Returns 0 if not populated
     * (!create) or if a huge leaf blocks the path. */
    PhysAddr descend(u64 iova_pfn, bool create, int *levels,
                     int leaf_level = kLevels);

    /** Charge one driver-side table-line update (store + sync_mem). */
    void chargeUpdate(cycles::Cat cat, int levels_walked);

    mem::PhysicalMemory &pm_;
    bool coherent_;
    const cycles::CostModel &cost_;
    cycles::CycleAccount *acct_;
    VirtTraps *traps_ = nullptr;
    PhysAddr root_;
    u64 mapped_pages_ = 0;
    u64 huge_mappings_ = 0;
    u64 table_pages_ = 0;
    /** Hardware-walk table reads per level (walk() is const). */
    mutable std::array<u64, kLevels> level_reads_{};
};

} // namespace rio::iommu

#endif // RIO_IOMMU_PAGE_TABLE_H
