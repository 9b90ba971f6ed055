/**
 * @file
 * Set-associative IOTLB model with LRU replacement, single-entry
 * invalidation and global flush — the structure whose invalidation
 * cost (Table 1: ~2,127 cycles synchronous, 9 cycles queued)
 * motivates both Linux's deferred mode and the rIOMMU redesign.
 */
#ifndef RIO_IOMMU_IOTLB_H
#define RIO_IOMMU_IOTLB_H

#include <optional>
#include <vector>

#include "base/types.h"
#include "iommu/page_table.h"
#include "iommu/types.h"

namespace rio::iommu {

/** IOTLB geometry. Real VT-d IOTLBs hold a few dozen entries. */
struct IotlbConfig
{
    unsigned sets = 32;
    unsigned ways = 2;
};

/** Running counters, used by tests and the §5.3 bench. */
struct IotlbStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 global_flushes = 0;
};

/** Cache of (requester-id, iova pfn) -> leaf PTE. */
class Iotlb
{
  public:
    explicit Iotlb(IotlbConfig config = {});

    /** Look up; bumps hit/miss counters and LRU state. */
    std::optional<Pte> lookup(u16 sid, u64 iova_pfn);

    /** Install (evicting LRU within the set if needed). */
    void insert(u16 sid, u64 iova_pfn, Pte pte);

    /** Drop one translation; true if it was present. */
    bool invalidateEntry(u16 sid, u64 iova_pfn);

    /** Drop all translations of one device. */
    void invalidateDevice(u16 sid);

    /** Drop everything (the deferred mode's batched flush). */
    void flushAll();

    /** Entries currently valid (for stale-entry vulnerability tests). */
    u64 validEntries() const;

    /** Valid entries belonging to @p sid (stale-mapping leak checks). */
    u64 validEntriesFor(u16 sid) const;

    /** True if (sid, pfn) is cached — used to probe stale entries. */
    bool contains(u16 sid, u64 iova_pfn) const;

    const IotlbStats &stats() const { return stats_; }
    void resetStats() { stats_ = IotlbStats{}; }

    unsigned capacity() const { return config_.sets * config_.ways; }

  private:
    struct Entry
    {
        bool valid = false;
        u16 sid = 0;
        u64 iova_pfn = 0;
        Pte pte;
        u64 lru_tick = 0;
    };

    unsigned setIndex(u16 sid, u64 iova_pfn) const;
    Entry *findEntry(u16 sid, u64 iova_pfn);
    const Entry *findEntry(u16 sid, u64 iova_pfn) const;

    IotlbConfig config_;
    /** Set index by mask (power-of-two set count) or remainder. */
    bool pow2_sets_ = false;
    std::vector<Entry> entries_; // sets * ways, row-major by set
    u64 tick_ = 0;
    IotlbStats stats_;
};

} // namespace rio::iommu

#endif // RIO_IOMMU_IOTLB_H
