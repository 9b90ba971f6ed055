/**
 * @file
 * The rIOTLB (Figure 9e): at most ONE entry per (device, ring), each
 * caching the ring's current rPTE plus an optionally prefetched copy
 * of the next one. Because every new translation for a ring replaces
 * that ring's single entry, inserting is an *implicit* invalidation
 * of the previous translation — the property that lets the driver
 * issue explicit invalidations only at the end of a burst (§4).
 */
#ifndef RIO_RIOMMU_RIOTLB_H
#define RIO_RIOMMU_RIOTLB_H

#include <optional>
#include <unordered_map>

#include "base/node_pool.h"
#include "base/types.h"
#include "riommu/structures.h"

namespace rio::riommu {

/** One rIOTLB entry (Figure 9e). */
struct RiotlbEntry
{
    u16 bdf = 0; //!< packed requester id
    u16 rid = 0;
    u32 rentry = 0;
    RPte rpte;
    RPte next; //!< prefetched successor; next.valid gates its use
};

/** Counters for tests and the §5.3/§5.4 benches. */
struct RiotlbStats
{
    u64 lookups = 0;
    u64 hits = 0;      //!< entry present for the ring
    u64 current = 0;   //!< ... and rentry already matched
    u64 synced = 0;    //!< ... advanced via riotlb_entry_sync
    u64 prefetch_hits = 0; //!< sync satisfied from the next field
    u64 walks = 0;     //!< full rtable_walks (miss or prefetch miss)
    u64 invalidations = 0;
    /** Syncs that replaced the ring's single entry with the next
     * translation, implicitly invalidating the previous one (§4) —
     * the count the design trades explicit QI descriptors against. */
    u64 implicit_invalidations = 0;
};

/** The per-ring-single-entry TLB. */
class Riotlb
{
  public:
    /** riotlb_find: the entry for (bdf, rid), if any. */
    RiotlbEntry *find(u16 bdf, u16 rid);

    /** riotlb_insert: install the ring's entry after a miss (a
     * present entry is replaced in place by Riommu::entrySync). */
    void insert(const RiotlbEntry &entry);

    /** riotlb_invalidate: drop the ring's entry; true if present. */
    bool invalidate(u16 bdf, u16 rid);

    /** Drop everything (device reset). */
    void invalidateAll() { entries_.clear(); }

    /** Entries currently cached == number of active rings. */
    u64 size() const { return entries_.size(); }

    /** Entries cached for @p bdf (stale-mapping leak checks). */
    u64
    entriesFor(u16 bdf) const
    {
        u64 n = 0;
        for (const auto &[k, e] : entries_)
            n += ((k >> 16) == bdf) ? 1 : 0;
        return n;
    }

    /** Probe without stats side effects (for staleness tests). */
    const RiotlbEntry *peek(u16 bdf, u16 rid) const;

    RiotlbStats &stats() { return stats_; }
    const RiotlbStats &stats() const { return stats_; }
    void resetStats() { stats_ = RiotlbStats{}; }

  private:
    static u32
    key(u16 bdf, u16 rid)
    {
        return (static_cast<u32>(bdf) << 16) | rid;
    }

    NodePool nodes_; //!< invalidated entries, reused by insert
    std::pmr::unordered_map<u32, RiotlbEntry> entries_{&nodes_};
    RiotlbStats stats_;
};

} // namespace rio::riommu

#endif // RIO_RIOMMU_RIOTLB_H
