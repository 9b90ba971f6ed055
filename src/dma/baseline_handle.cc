#include "dma/baseline_handle.h"

#include "base/logging.h"
#include "iova/linux_allocator.h"
#include "iova/magazine_allocator.h"

namespace rio::dma {

namespace {

/** Linux allocates IOVAs below the 32-bit boundary: pfn limit. */
constexpr u64 kDmaLimitPfn = (u64{1} << 32) >> kPageShift;

} // namespace

BaselineDmaHandle::BaselineDmaHandle(ProtectionMode mode,
                                     iommu::Iommu &iommu,
                                     mem::PhysicalMemory &pm,
                                     iommu::Bdf bdf,
                                     const cycles::CostModel &cost,
                                     cycles::CycleAccount *acct)
    : mode_(mode), iommu_(iommu), pm_(pm), bdf_(bdf), cost_(cost),
      acct_(acct),
      // The paper's testbed has I/O page walks incoherent with CPU
      // caches (§3.2), hence the barrier+flush in every table update.
      table_(pm, /*coherent=*/false, cost, acct),
      inval_queue_(pm, iommu, cost)
{
    RIO_ASSERT(modeUsesBaselineIommu(mode_),
               "BaselineDmaHandle with non-baseline mode");
    if (modeUsesMagazineAllocator(mode_)) {
        allocator_ = std::make_unique<iova::MagazineIovaAllocator>(
            kDmaLimitPfn, acct, cost);
    } else {
        allocator_ = std::make_unique<iova::LinuxIovaAllocator>(
            kDmaLimitPfn, acct, cost);
    }
    iommu_.attachDevice(bdf_, &table_);
    fault_.bind(&cost_, acct_);
}

BaselineDmaHandle::~BaselineDmaHandle()
{
    if (!detached_)
        iommu_.detachDevice(bdf_);
    obs::registry().merge(
        {{"qi.sync_cycles", {}, 0, &inval_queue_.stats().sync_cycles}});
}

void
BaselineDmaHandle::setIovaCoreCache(u32 rounds)
{
    if (auto *mag =
            dynamic_cast<iova::MagazineIovaAllocator *>(allocator_.get()))
        mag->setCoreCache(rounds);
}

Result<DmaMapping>
BaselineDmaHandle::mapSuper(u16 rid, PhysAddr pa, u32 size,
                            iommu::DmaDir dir, bool *handled)
{
    constexpr u64 kHugePfns = iommu::IoPageTable::kHugePfns;
    constexpr u64 kHugeBytes = kHugePfns << kPageShift;
    const u64 region_base = pa & ~(kHugeBytes - 1);
    if (pa + size > region_base + kHugeBytes) {
        // Straddles a 2 MB boundary; the 4K path handles it.
        *handled = false;
        return DmaMapping{};
    }
    *handled = true;
    const u64 phys_base_pfn = region_base >> kPageShift;
    auto it = super_by_phys_.find(phys_base_pfn);
    if (it == super_by_phys_.end()) {
        // First mapping in this region pays for it: one size-aligned
        // IOVA allocation (the allocators size-align, so the result
        // is 2 MB aligned) and one huge-leaf install. Permissions are
        // kBidir — the region outlives any single mapping's
        // direction, the superpage granularity tradeoff.
        auto range = allocator_->alloc(kHugePfns);
        if (!range.isOk())
            return range.status();
        RIO_ASSERT(range.value().pfn_lo % kHugePfns == 0,
                   "IOVA allocator returned unaligned superpage range");
        Status s = table_.mapHuge(range.value().pfn_lo, phys_base_pfn,
                                  iommu::DmaDir::kBidir);
        if (!s) {
            allocator_->free(range.value().handle);
            return s;
        }
        it = super_by_phys_
                 .emplace(phys_base_pfn,
                          SuperRegion{range.value().pfn_lo, phys_base_pfn,
                                      0, range.value().handle})
                 .first;
        super_phys_by_iova_[range.value().pfn_lo] = phys_base_pfn;
    }
    charge(cycles::Cat::kMapOther, cost_.map_other);
    ++it->second.refs;
    ++live_;
    DmaMapping m;
    m.device_addr =
        (it->second.iova_base_pfn << kPageShift) + (pa - region_base);
    m.pa = pa;
    m.size = size;
    super_live_.emplace(m.device_addr,
                        LiveMappingInfo{m.device_addr, size, rid});
    (void)dir;
    return m;
}

Status
BaselineDmaHandle::unmapSuper(const DmaMapping &mapping, bool *handled)
{
    constexpr u64 kHugePfns = iommu::IoPageTable::kHugePfns;
    const u64 iova_base_pfn =
        (mapping.device_addr >> kPageShift) & ~(kHugePfns - 1);
    auto pit = super_phys_by_iova_.find(iova_base_pfn);
    if (pit == super_phys_by_iova_.end()) {
        *handled = false;
        return Status::ok();
    }
    *handled = true;
    SuperRegion &region = super_by_phys_.at(pit->second);
    RIO_ASSERT(region.refs > 0, "superpage unmap with no refs");
    RIO_ASSERT(live_ > 0, "unmap with no live mappings");
    --live_;
    if (auto lit = super_live_.find(mapping.device_addr);
        lit != super_live_.end())
        super_live_.erase(lit);
    if (--region.refs > 0) {
        // The region stays translated for its other users; this unmap
        // is bookkeeping only (the superpage amortization).
        charge(cycles::Cat::kUnmapOther, cost_.unmap_other);
        return Status::ok();
    }
    // Last unref: tear the huge leaf down, then invalidate. VT-d's
    // page-selective invalidation takes an address mask, so one
    // descriptor covers the whole 2 MB region; the hardware-side
    // purge of any cached 4K entries inside it is uncharged.
    Status s = table_.unmapHuge(region.iova_base_pfn);
    if (!s)
        return s;
    const u64 iova_lo = region.iova_base_pfn;
    const iova::IovaHandle iova = region.iova;
    super_phys_by_iova_.erase(pit);
    super_by_phys_.erase(region.phys_base_pfn);
    if (modeDefersInvalidation(mode_)) {
        charge(cycles::Cat::kUnmapIotlbInv, cost_.iotlb_invalidate_queued);
        charge(cycles::Cat::kUnmapOther,
               cost_.unmap_other + cost_.defer_list_op);
        defer_queue_.push_back(iova);
        if (defer_queue_.size() >= kDeferBatch)
            flushDeferred();
        return Status::ok();
    }
    Status qs = inval_queue_.invalidateEntrySync(bdf_, iova_lo, acct_);
    if (!qs.isOk()) {
        qs = recoverInvalidation();
        if (!qs.isOk())
            return qs;
    }
    for (u64 i = 0; i < kHugePfns; ++i)
        iommu_.iotlb().invalidateEntry(bdf_.pack(), iova_lo + i);
    Status fs = allocator_->free(iova);
    if (!fs)
        return fs;
    charge(cycles::Cat::kUnmapOther, cost_.unmap_other);
    return Status::ok();
}

Result<DmaMapping>
BaselineDmaHandle::mapImpl(u16 rid, PhysAddr pa, u32 size,
                       iommu::DmaDir dir)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    if (size == 0)
        return Status(ErrorCode::kInvalidArgument, "map of empty buffer");
    if (superpages_) {
        bool handled = false;
        auto m = mapSuper(rid, pa, size, dir, &handled);
        if (handled)
            return m;
    }
    const u64 npages = pagesSpanned(pa, size);

    auto range = allocator_->alloc(npages); // charged: map/iova alloc
    if (!range.isOk())
        return range.status();

    Status s = table_.mapRange(range.value().pfn_lo, pa >> kPageShift,
                               npages, dir); // charged: map/page table
    if (!s) {
        allocator_->free(range.value().handle);
        return s;
    }
    charge(cycles::Cat::kMapOther, cost_.map_other);

    ++live_;
    DmaMapping m;
    m.device_addr = (range.value().pfn_lo << kPageShift) | (pa & kPageMask);
    m.pa = pa;
    m.size = size;
    live_map_[range.value().pfn_lo] = LiveRange{
        LiveMappingInfo{m.device_addr, size, rid}, range.value().handle};
    return m;
}

Status
BaselineDmaHandle::unmapImpl(const DmaMapping &mapping, bool /*end_of_burst*/)
{
    if (superpages_) {
        bool handled = false;
        Status s = unmapSuper(mapping, &handled);
        if (handled)
            return s;
    }
    const u64 iova_pfn = mapping.device_addr >> kPageShift;

    // A live mapping's address lies in its range's first page, and its
    // entry holds the range's handle: find and free need no tree
    // search. Any other address (a double or bogus unmap) is searched
    // for, as find_iova() does. charged: unmap/iova find
    auto live = live_map_.find(iova_pfn);
    auto found = live != live_map_.end()
                     ? allocator_->find(live->second.iova)
                     : allocator_->find(iova_pfn);
    if (!found.isOk())
        return found.status();
    const iova::IovaRange range = found.value();
    if (live == live_map_.end())
        live = live_map_.find(range.pfn_lo);

    // Order matters (§3.1): remove the translation, purge the IOTLB,
    // only then recycle the IOVA.
    Status s = table_.unmapRange(range.pfn_lo, range.npages());
    if (!s)
        return s;

    if (modeDefersInvalidation(mode_)) {
        // Queue the invalidation; the IOVA stays allocated until the
        // batched flush — the deferred modes' vulnerability window.
        charge(cycles::Cat::kUnmapIotlbInv, cost_.iotlb_invalidate_queued);
        charge(cycles::Cat::kUnmapOther,
               cost_.unmap_other + cost_.defer_list_op);
        defer_queue_.push_back(range.handle);
        if (defer_queue_.size() >= kDeferBatch)
            flushDeferred();
    } else {
        for (u64 i = 0; i < range.npages(); ++i) {
            // Through the queued-invalidation interface: descriptor
            // submit + doorbell + hardware round trip + status spin.
            Status qs = inval_queue_.invalidateEntrySync(
                bdf_, range.pfn_lo + i, acct_);
            if (!qs.isOk()) {
                // Invalidation timed out (ITE): run the recovery
                // ladder; once it returns the IOTLB no longer holds
                // this device's translations, so proceeding with the
                // free is safe.
                qs = recoverInvalidation();
                if (!qs.isOk())
                    return qs;
            }
        }
        Status fs = allocator_->free(range.handle); // charged: iova free
        if (!fs)
            return fs;
        charge(cycles::Cat::kUnmapOther, cost_.unmap_other);
    }
    RIO_ASSERT(live_ > 0, "unmap with no live mappings");
    --live_;
    if (live != live_map_.end())
        live_map_.erase(live);
    return Status::ok();
}

Result<std::vector<DmaMapping>>
BaselineDmaHandle::mapSg(u16 rid, const std::vector<SgEntry> &sg,
                         iommu::DmaDir dir)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    if (sg.empty())
        return Status(ErrorCode::kInvalidArgument, "empty sg list");
    if (superpages_) {
        // Per-element mapping lets each buffer share its 2 MB region;
        // a contiguous fresh range would defeat the whole point.
        return DmaHandle::mapSg(rid, sg, dir);
    }
    u64 total_pages = 0;
    for (const SgEntry &e : sg) {
        if (e.len == 0)
            return Status(ErrorCode::kInvalidArgument, "empty sg entry");
        total_pages += pagesSpanned(e.pa, e.len);
    }

    auto range = allocator_->alloc(total_pages); // one range, one alloc
    if (!range.isOk())
        return range.status();

    std::vector<DmaMapping> out;
    out.reserve(sg.size());
    u64 pfn = range.value().pfn_lo;
    for (const SgEntry &e : sg) {
        const u64 npages = pagesSpanned(e.pa, e.len);
        Status s = table_.mapRange(pfn, e.pa >> kPageShift, npages, dir);
        if (!s) {
            // Roll back: remove what was installed, free the range.
            for (u64 p = range.value().pfn_lo; p < pfn; ++p)
                (void)table_.unmap(p);
            (void)allocator_->free(range.value().handle);
            return s;
        }
        DmaMapping m;
        m.device_addr = (pfn << kPageShift) | (e.pa & kPageMask);
        m.pa = e.pa;
        m.size = e.len;
        out.push_back(m);
        pfn += npages;
    }
    charge(cycles::Cat::kMapOther, cost_.map_other);
    ++live_; // the list is one logical mapping (one range)
    u64 total_bytes = 0;
    for (const SgEntry &e : sg)
        total_bytes += e.len;
    live_map_[range.value().pfn_lo] =
        LiveRange{LiveMappingInfo{out.front().device_addr,
                                  static_cast<u32>(total_bytes), rid},
                  range.value().handle};
    // One logical mapping, matching unmapSg's single unmap().
    traceEvent(TraceEvent::Kind::kMap, out.front().device_addr);
    return out;
}

Status
BaselineDmaHandle::unmapSg(const std::vector<DmaMapping> &mappings,
                           bool end_of_burst)
{
    if (mappings.empty())
        return Status(ErrorCode::kInvalidArgument, "empty sg list");
    if (superpages_)
        return DmaHandle::unmapSg(mappings, end_of_burst);
    // The first element's address identifies the shared range; the
    // regular unmap path releases all of its pages at once.
    return unmap(mappings.front(), end_of_burst);
}

void
BaselineDmaHandle::flushDeferred()
{
    if (defer_queue_.empty())
        return;
    // One global flush covers the whole batch; its cost lands in the
    // unmap/"other" row as amortized overhead (Table 1: defer other =
    // 205 vs. strict 26).
    Status qs = inval_queue_.flushAllSync(acct_, cycles::Cat::kUnmapOther);
    if (!qs.isOk()) {
        // The flush itself never stalls hardware; it timed out behind
        // an already frozen queue. Recover, then the frees are safe.
        qs = recoverInvalidation();
        RIO_ASSERT(qs.isOk(), "deferred flush unrecoverable: ",
                   qs.toString());
    }
    for (iova::IovaHandle iova : defer_queue_) {
        Status s = allocator_->free(iova); // charged: unmap/iova free
        RIO_ASSERT(s.isOk(), "deferred free failed: ", s.toString());
    }
    defer_queue_.clear();
}

Status
BaselineDmaHandle::quiesceFlush()
{
    flushDeferred();
    return Status::ok();
}

Status
BaselineDmaHandle::detach()
{
    if (detached_)
        return Status::ok();
    // Quiesce ordering: any deferred invalidations must hit hardware
    // before the context entry disappears.
    flushDeferred();
    charge(cycles::Cat::kLifecycle, cost_.lifecycle_quiesce);
    iommu_.detachDevice(bdf_);
    detached_ = true;
    return Status::ok();
}

void
BaselineDmaHandle::surpriseRemove()
{
    if (detached_)
        return;
    // The instant the device vanishes it stops ack'ing invalidation
    // descriptors — later strict invalidations for it hit the ITE
    // path — and the hotplug interrupt tears down its context entry.
    inval_queue_.setDeviceResponsive(bdf_.pack(), false);
    iommu_.detachDevice(bdf_);
    detached_ = true;
}

Status
BaselineDmaHandle::reattach()
{
    if (!detached_)
        return Status::ok();
    inval_queue_.setDeviceResponsive(bdf_.pack(), true);
    if (inval_queue_.queueError()) {
        // The dead descriptor's target answers again; one retry
        // drains everything that was stuck behind it.
        Status s = inval_queue_.recoverRetry(acct_);
        if (!s.isOk())
            return s;
    }
    iommu_.attachDevice(bdf_, &table_);
    detached_ = false;
    return Status::ok();
}

std::vector<LiveMappingInfo>
BaselineDmaHandle::liveMappingList() const
{
    std::vector<LiveMappingInfo> out;
    out.reserve(live_map_.size() + super_live_.size());
    for (const auto &[pfn_lo, live] : live_map_)
        out.push_back(live.info);
    for (const auto &[addr, info] : super_live_)
        out.push_back(info);
    return out;
}

Status
BaselineDmaHandle::recoverInvalidation()
{
    // Bounded retry-with-backoff: two attempts cover a transiently
    // stalled device (reset in progress) without unbounded spinning.
    constexpr int kQiRetries = 2;
    for (int i = 0; i < kQiRetries; ++i) {
        Status s = inval_queue_.recoverRetry(acct_);
        if (s.isOk())
            return s;
    }
    // Permanent: abort the queue. Each skip steps over one dead
    // descriptor; everything queued behind it executes. The skipped
    // invalidations are replaced by a software purge of the device's
    // whole IOTLB footprint.
    Status s;
    do {
        s = inval_queue_.abortAndSkip(acct_);
    } while (!s.isOk() && inval_queue_.queueError());
    iommu_.iotlb().invalidateDevice(bdf_.pack());
    return s;
}

void
BaselineDmaHandle::onDetachedAccess(const iommu::FaultRecord &rec)
{
    iommu_.faultLog().record(rec);
}

void
BaselineDmaHandle::acknowledgeFaults()
{
    // The fault interrupt handler drains the fault-recording ring and
    // clears the overflow bit; the cycle cost is the engine's
    // fault_report constant.
    iommu_.faultLog().drain();
    iommu_.faultLog().clearOverflow();
}

template <typename Access>
Status
BaselineDmaHandle::deviceAccess(u64 device_addr, const Access &access)
{
    if (!fault_.armed())
        return access();

    // One draw per top-level access, mirrored by the test oracle.
    if (fault_.shouldInject()) {
        // Damage the live translation the way an errant driver would:
        // zero the leaf PTE behind the IOMMU's back and shoot down
        // the cached copy so the walker sees the damage.
        const u64 pfn = device_addr >> kPageShift;
        const PhysAddr slot = table_.leafSlot(pfn);
        const u64 saved = slot ? pm_.read64(slot) : 0;
        if (slot) {
            pm_.write64(slot, 0);
            iommu_.invalidateIotlbEntry(bdf_, pfn);
        }
        auto repair = [this, slot, saved] {
            acknowledgeFaults();
            if (slot)
                pm_.write64(slot, saved);
        };
        Status s = access();
        if (s.isOk()) {
            // The damaged page was not touched (unmapped hierarchy or
            // access elsewhere); restore silently.
            repair();
            return s;
        }
        return fault_.recover(s, bdf().pack(), repair, access);
    }

    Status s = access();
    if (s.isOk())
        return s;
    // Organic fault (corrupted table, errant address): recovery can
    // acknowledge the report but has nothing to re-install.
    return fault_.recover(
        s, bdf().pack(), [this] { acknowledgeFaults(); }, access);
}

Status
BaselineDmaHandle::readImpl(u64 device_addr, void *dst, u64 len)
{
    return deviceAccess(device_addr, [&] {
        return iommu_.dmaRead(bdf_, device_addr, dst, len);
    });
}

Status
BaselineDmaHandle::writeImpl(u64 device_addr, const void *src, u64 len)
{
    return deviceAccess(device_addr, [&] {
        return iommu_.dmaWrite(bdf_, device_addr, src, len);
    });
}

} // namespace rio::dma
