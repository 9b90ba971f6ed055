#include "riommu/riommu.h"

#include <algorithm>

#include "base/logging.h"
#include "iommu/virt_hooks.h"

namespace rio::riommu {

Riommu::Riommu(mem::PhysicalMemory &pm, const cycles::CostModel &cost,
               bool prefetch_enabled)
    : pm_(pm), cost_(cost), prefetch_enabled_(prefetch_enabled)
{
}

void
Riommu::attachDevice(Bdf bdf, PhysAddr rdevice_base, u16 nrings)
{
    devices_[bdf.pack()] = RDeviceInfo{rdevice_base, nrings};
}

void
Riommu::detachDevice(Bdf bdf)
{
    const u16 sid = bdf.pack();
    auto it = devices_.find(sid);
    if (it == devices_.end())
        return;
    for (u16 rid = 0; rid < it->second.nrings; ++rid)
        riotlb_.invalidate(sid, rid);
    devices_.erase(it);
    // The hot tier caches descriptor identities of the departed
    // device; a detach is rare enough that a full flush is the
    // hardware-honest move (context-cache invalidation flushes
    // dependent structures).
    std::fill(rdcache_tags_.begin(), rdcache_tags_.end(), 0u);
}

void
Riommu::setRdCache(const RdCacheConfig &cfg)
{
    RIO_ASSERT(cfg.hot_entries == 0 ||
                   (cfg.hot_entries & (cfg.hot_entries - 1)) == 0,
               "hot_entries must be a power of two");
    rdcache_cfg_ = cfg;
    rdcache_stats_ = RdCacheStats{};
    rdcache_tags_.assign(cfg.model_fetch ? cfg.hot_entries : 0, 0u);
}

void
Riommu::chargeDescFetch(u16 sid, u16 rid, Cycles *hw, int *mem_refs)
{
    if (!rdcache_cfg_.model_fetch)
        return;
    ++rdcache_stats_.fetches;
    const u32 tag = (static_cast<u32>(sid) << 16) | rid;
    if (!rdcache_tags_.empty()) {
        // Direct-mapped: Fibonacci-hash the tag into the tier. A hit
        // is an on-chip SRAM access, folded into the walk's base cost.
        const u32 slot = (tag * 0x9E3779B9u) >>
                         (32 - __builtin_ctz(rdcache_cfg_.hot_entries));
        if (rdcache_tags_[slot] == tag + 1) {
            ++rdcache_stats_.hot_hits;
            return;
        }
        rdcache_tags_[slot] = tag + 1;
    }
    // Tier miss (or no tier): the descriptor load is a dependent
    // memory reference ahead of the rPTE fetch.
    ++rdcache_stats_.hot_misses;
    *hw += cost_.hw_walk_level;
    if (mem_refs)
        ++*mem_refs;
}

void
Riommu::fault(u16 sid, RIova iova, Access access,
              iommu::FaultReason reason)
{
    const iommu::FaultRecord rec{Bdf::unpack(sid), iova.raw, access,
                                 reason};
    // Debug vector for tests, capped so fault storms stay bounded.
    constexpr size_t kMaxDebugFaults = 65536;
    if (faults_.size() < kMaxDebugFaults)
        faults_.push_back(rec);
    // First fault wins the per-ring latch; emplace keeps an existing
    // record, matching a hardware latch register.
    ring_faults_.emplace(latchKey(sid, iova.rid()), rec);
}

const iommu::FaultRecord *
Riommu::ringFault(Bdf bdf, u16 rid) const
{
    auto it = ring_faults_.find(latchKey(bdf.pack(), rid));
    return it == ring_faults_.end() ? nullptr : &it->second;
}

void
Riommu::clearRingFault(Bdf bdf, u16 rid)
{
    ring_faults_.erase(latchKey(bdf.pack(), rid));
}

const Riommu::RDeviceInfo *
Riommu::getDomain(u16 sid) const
{
    auto it = devices_.find(sid);
    return it == devices_.end() ? nullptr : &it->second;
}

RRingDesc
Riommu::readRingDesc(const RDeviceInfo &dev, u16 rid) const
{
    RRingDesc desc;
    const PhysAddr slot = dev.base + static_cast<u64>(rid) * RRingDesc::kBytes;
    desc.table = pm_.read64(slot);
    desc.size = pm_.read32(slot + 8);
    return desc;
}

RPte
Riommu::readPte(const RRingDesc &ring, u32 rentry) const
{
    const PhysAddr slot =
        ring.table + static_cast<u64>(rentry) * RPte::kBytes;
    return RPte::fromWords(pm_.read64(slot), pm_.read64(slot + 8));
}

void
Riommu::prefetch(const RDeviceInfo &dev, RiotlbEntry &entry)
{
    // rprefetch (Figure 10): stash a copy of the subsequent rPTE if
    // it is already valid. May run asynchronously in hardware; the
    // design works without it, so it is gated for the ablation bench.
    entry.next.valid = false;
    if (!prefetch_enabled_)
        return;
    const RRingDesc ring = readRingDesc(dev, entry.rid);
    if (ring.size <= 1)
        return;
    const u32 next = (entry.rentry + 1) % ring.size;
    const RPte pte = readPte(ring, next);
    if (pte.valid)
        entry.next = pte;
}

Result<RiotlbEntry>
Riommu::tableWalk(u16 sid, RIova iova, Cycles *hw, int *mem_refs)
{
    // rtable_walk (Figure 10): bounds-check rid/rentry against the
    // rDEVICE limits and require a valid rPTE; noncompliance is an
    // I/O page fault (errant DMA or buggy driver). One dependent
    // memory reference: the rPTE fetch. By default the rDEVICE/rRING
    // descriptors are treated as cached by the hardware (and under
    // nested virtualization pinned + pre-translated at registration);
    // the opt-in fetch model below instead charges the descriptor
    // load through the two-level rDEVICE tier — the honest accounting
    // once ring counts reach QP-fabric scale.
    *hw += cost_.hw_rwalk;
    if (mem_refs)
        ++*mem_refs;
    const RDeviceInfo *dev = getDomain(sid);
    if (!dev) {
        fault(sid, iova, Access::kRead, iommu::FaultReason::kNoContext);
        return Status(ErrorCode::kIoPageFault, "device has no rDEVICE");
    }
    if (iova.rid() >= dev->nrings) {
        fault(sid, iova, Access::kRead, iommu::FaultReason::kOutOfRange);
        return Status(ErrorCode::kIoPageFault, "rid out of range");
    }
    chargeDescFetch(sid, iova.rid(), hw, mem_refs);
    const RRingDesc ring = readRingDesc(*dev, iova.rid());
    if (iova.rentry() >= ring.size) {
        fault(sid, iova, Access::kRead, iommu::FaultReason::kOutOfRange);
        return Status(ErrorCode::kIoPageFault, "rentry out of range");
    }
    const RPte pte = readPte(ring, iova.rentry());
    if (!pte.valid) {
        fault(sid, iova, Access::kRead, iommu::FaultReason::kNotPresent);
        return Status(ErrorCode::kIoPageFault, "rPTE invalid");
    }
    if (pte.reserved_set) {
        fault(sid, iova, Access::kRead, iommu::FaultReason::kReservedBit);
        return Status(ErrorCode::kCorrupted, "reserved bits set in rPTE");
    }

    RiotlbEntry entry;
    entry.bdf = sid;
    entry.rid = iova.rid();
    entry.rentry = iova.rentry();
    entry.rpte = pte;
    prefetch(*dev, entry);
    ++riotlb_.stats().walks;
    return entry;
}

Status
Riommu::entrySync(u16 sid, RIova iova, RiotlbEntry &entry, Cycles *hw,
                  bool *prefetch_hit, int *mem_refs)
{
    // riotlb_entry_sync (Figure 10): the cached entry points at a
    // different rentry than this rIOVA. If the prefetched next rPTE
    // matches, advance in place; otherwise do a full walk.
    const RDeviceInfo *dev = getDomain(sid);
    if (!dev) {
        fault(sid, iova, Access::kRead, iommu::FaultReason::kNoContext);
        return Status(ErrorCode::kIoPageFault, "device has no rDEVICE");
    }
    // The sync path needs the ring's size (wrap arithmetic) before it
    // can tell prefetch hit from miss — a descriptor load even on the
    // happy path. A tableWalk fallback re-reads it, which the hot
    // tier (just primed here) absorbs.
    chargeDescFetch(sid, entry.rid, hw, mem_refs);
    const RRingDesc ring = readRingDesc(*dev, entry.rid);
    const u32 next = (entry.rentry + 1) % ring.size;

    if (entry.next.valid && iova.rentry() == next) {
        entry.rpte = entry.next;
        entry.rentry = next;
        entry.next.valid = false;
        *prefetch_hit = true;
        *hw += cost_.hw_tlb_hit;
        ++riotlb_.stats().prefetch_hits;
        prefetch(*dev, entry);
    } else {
        auto walked = tableWalk(sid, iova, hw, mem_refs);
        if (!walked.isOk())
            return walked.status();
        // tableWalk already prefetched into the fresh entry.
        entry = walked.value();
    }
    // Either way the ring's single entry now holds the new
    // translation: the previous one is implicitly invalidated (§4).
    ++riotlb_.stats().implicit_invalidations;
    return Status::ok();
}

Result<RTranslation>
Riommu::translate(Bdf bdf, RIova iova, Access access, u64 len)
{
    const u16 sid = bdf.pack();
    RiotlbStats &st = riotlb_.stats();
    ++st.lookups;

    RTranslation out;
    out.hw_cycles = cost_.hw_tlb_hit;

    RiotlbEntry *e = riotlb_.find(sid, iova.rid());
    if (!e) {
        auto walked = tableWalk(sid, iova, &out.hw_cycles, &out.mem_refs);
        if (!walked.isOk())
            return walked.status();
        riotlb_.insert(walked.value());
        e = riotlb_.find(sid, iova.rid());
        RIO_ASSERT(e, "entry vanished after insert");
    } else {
        out.riotlb_hit = true;
        ++st.hits;
        if (e->rentry != iova.rentry()) {
            ++st.synced;
            Status s = entrySync(sid, iova, *e, &out.hw_cycles,
                                 &out.prefetch_hit, &out.mem_refs);
            if (!s)
                return s;
        } else {
            ++st.current;
        }
    }

    // Permission and fine-grained bounds checks (rtranslate tail).
    const RPte &pte = e->rpte;
    if (len == 0 || iova.offset() >= pte.size ||
        len > pte.size - iova.offset()) {
        fault(sid, iova, access, iommu::FaultReason::kOutOfRange);
        return Status(ErrorCode::kIoPageFault,
                      "offset/length beyond mapping size");
    }
    if (!dirPermits(pte.dir, access)) {
        fault(sid, iova, access, iommu::FaultReason::kPermission);
        return Status(ErrorCode::kPermission, "DMA direction violation");
    }
    PhysAddr page_pa = pte.phys_addr;
    if (stage2_ && out.mem_refs > 0) {
        // A walk fetched a guest-physical rPTE: the data access needs
        // one stage-2 translation. rIOTLB/prefetch hits hold the
        // combined translation and pay nothing.
        int s2_refs = 0;
        page_pa = stage2_->deviceTranslate(page_pa, &s2_refs);
        out.mem_refs += s2_refs;
        out.hw_cycles +=
            static_cast<Cycles>(s2_refs) * cost_.hw_walk_level;
    }
    out.pa = page_pa + iova.offset();
    walk_mem_refs_ += static_cast<u64>(out.mem_refs);
    return out;
}

Status
Riommu::dmaWrite(Bdf bdf, RIova iova, const void *src, u64 len)
{
    auto tr = translate(bdf, iova, Access::kWrite, len);
    if (!tr.isOk())
        return tr.status();
    pm_.write(tr.value().pa, src, len);
    return Status::ok();
}

Status
Riommu::dmaRead(Bdf bdf, RIova iova, void *dst, u64 len)
{
    auto tr = translate(bdf, iova, Access::kRead, len);
    if (!tr.isOk())
        return tr.status();
    pm_.read(tr.value().pa, dst, len);
    return Status::ok();
}

void
Riommu::invalidateRing(Bdf bdf, u16 rid)
{
    riotlb_.invalidate(bdf.pack(), rid);
}

} // namespace rio::riommu
