#include "iommu/iommu.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "iommu/virt_hooks.h"

namespace rio::iommu {

namespace {

/** Context entries are 16 bytes in VT-d; we use the low 8 for the
 * page-table root pointer with bit 0 as the present flag. */
constexpr u64 kCtxEntrySize = 16;
constexpr u64 kCtxPresent = 1;

} // namespace

Iommu::Iommu(mem::PhysicalMemory &pm, const cycles::CostModel &cost,
             IotlbConfig iotlb_config)
    : pm_(pm), cost_(cost), iotlb_(iotlb_config), fault_log_(pm)
{
    root_table_ = pm_.allocFrame();
    context_tables_.assign(256, 0);
}

Iommu::~Iommu()
{
    for (PhysAddr ct : context_tables_) {
        if (ct)
            pm_.freeFrame(ct);
    }
    pm_.freeFrame(root_table_);
}

PhysAddr
Iommu::contextSlot(Bdf bdf)
{
    PhysAddr &ct = context_tables_[bdf.bus];
    if (!ct) {
        ct = pm_.allocFrame();
        // Root entry: low 8 bytes hold the context-table pointer.
        pm_.write64(root_table_ + bdf.bus * kCtxEntrySize, ct | kCtxPresent);
    }
    const unsigned devfn = static_cast<unsigned>((bdf.dev << 3) | bdf.fn);
    return ct + devfn * kCtxEntrySize;
}

void
Iommu::attachDevice(Bdf bdf, IoPageTable *table)
{
    RIO_ASSERT(table != nullptr, "attaching null page table");
    pm_.write64(contextSlot(bdf), table->rootAddr() | kCtxPresent);
    tables_by_root_[table->rootAddr()] = table;
    // The context entry just changed in memory; any cached copy is
    // stale (hardware requires a context invalidation here too).
    invalidateContextCache(bdf);
}

void
Iommu::detachDevice(Bdf bdf)
{
    const PhysAddr slot = contextSlot(bdf);
    const u64 entry = pm_.read64(slot);
    if (entry & kCtxPresent)
        tables_by_root_.erase(entry & ~u64{0xfff});
    pm_.write64(slot, 0);
    iotlb_.invalidateDevice(bdf.pack());
    invalidateContextCache(bdf);
}

void
Iommu::invalidateContextCache(Bdf bdf)
{
    if (ctx_cache_.erase(bdf.pack()))
        ++ctx_stats_.purges;
}

void
Iommu::recordFault(Bdf bdf, IovaAddr iova, Access access,
                   FaultReason reason)
{
    // The debug vector is for tests; cap it so fault storms cannot
    // grow memory without bound. The hardware log has its own
    // fixed-size overflow semantics.
    constexpr size_t kMaxDebugFaults = 65536;
    if (faults_.size() < kMaxDebugFaults)
        faults_.push_back({bdf, iova, access, reason});
    fault_log_.record({bdf, iova, access, reason});
}

IoPageTable *
Iommu::lookupContext(Bdf bdf)
{
    // Context cache first: a hit skips the root/context memory reads
    // entirely, exactly like VT-d's context-entry cache.
    auto cached = ctx_cache_.find(bdf.pack());
    if (cached != ctx_cache_.end()) {
        ++ctx_stats_.hits;
        return cached->second;
    }
    ++ctx_stats_.misses;
    // Walk the in-memory root and context tables the way hardware
    // does; the IoPageTable object is then recovered from the root
    // pointer found in memory.
    const u64 root_entry =
        pm_.read64(root_table_ + bdf.bus * kCtxEntrySize);
    if (!(root_entry & kCtxPresent))
        return nullptr;
    const PhysAddr ct = root_entry & ~u64{0xfff};
    const unsigned devfn = static_cast<unsigned>((bdf.dev << 3) | bdf.fn);
    const u64 ctx_entry = pm_.read64(ct + devfn * kCtxEntrySize);
    if (!(ctx_entry & kCtxPresent))
        return nullptr;
    auto it = tables_by_root_.find(ctx_entry & ~u64{0xfff});
    if (it == tables_by_root_.end())
        return nullptr;
    // Only present, resolvable entries are cached; negative results
    // must keep re-reading memory so a later attach is seen.
    ctx_cache_[bdf.pack()] = it->second;
    return it->second;
}

Result<Translation>
Iommu::translate(Bdf bdf, IovaAddr iova, Access access)
{
    if (passthrough_) {
        return Translation{iova, /*iotlb_hit=*/false, /*walk_levels=*/0,
                           /*hw_cycles=*/0};
    }

    const u64 iova_pfn = iova >> kPageShift;
    const u64 offset = iova & kPageMask;
    const u16 sid = bdf.pack();

    if (auto pte = iotlb_.lookup(sid, iova_pfn)) {
        if (!pte->permits(access)) {
            recordFault(bdf, iova, access, FaultReason::kPermission);
            return Status(ErrorCode::kPermission, "DMA direction violation");
        }
        return Translation{pte->addr() + offset, true, 0, cost_.hw_tlb_hit};
    }

    IoPageTable *table = lookupContext(bdf);
    if (!table) {
        recordFault(bdf, iova, access, FaultReason::kNoContext);
        return Status(ErrorCode::kIoPageFault, "device has no context");
    }

    int levels = 0;
    int refs = 0;
    auto pte = table->walk(iova_pfn, &levels, stage2_, &refs);
    PhysAddr page_pa = pte.isOk() ? pte.value().addr() : 0;
    if (pte.isOk() && pte.value().huge()) {
        // A stage-1 2 MB leaf holds the region base; compose the
        // 4K page's address inside it so the per-pfn IOTLB entry and
        // the stage-2 data translation both see the right frame.
        page_pa +=
            (iova_pfn & (IoPageTable::kHugePfns - 1)) << kPageShift;
    }
    if (pte.isOk() && stage2_) {
        // The leaf PTE holds a guest-physical frame; the data access
        // itself needs one more stage-2 translation. This completes
        // the 2-D count: n*m table-address walks + n table reads +
        // m data-page walks = 24 for 4x4 levels.
        page_pa = stage2_->deviceTranslate(page_pa, &refs);
    }
    const Cycles hw =
        cost_.hw_tlb_hit + static_cast<Cycles>(refs) * cost_.hw_walk_level;
    ++walks_;
    walk_mem_refs_ += static_cast<u64>(refs);
    if (!pte.isOk()) {
        if (pte.status().code() == ErrorCode::kCorrupted) {
            recordFault(bdf, iova, access, FaultReason::kReservedBit);
            return Status(ErrorCode::kCorrupted,
                          "reserved bits set in PTE");
        }
        recordFault(bdf, iova, access, FaultReason::kNotPresent);
        return Status(ErrorCode::kIoPageFault, "translation not present");
    }
    if (!pte.value().permits(access)) {
        recordFault(bdf, iova, access, FaultReason::kPermission);
        return Status(ErrorCode::kPermission, "DMA direction violation");
    }
    // The IOTLB caches the *combined* translation (IOVA -> host
    // physical), so hits cost no stage-2 work — like hardware.
    iotlb_.insert(sid, iova_pfn,
                  Pte{(page_pa & Pte::kAddrMask) |
                      (pte.value().raw & ~Pte::kAddrMask)});
    return Translation{page_pa + offset, false, levels, hw, refs};
}

Status
Iommu::dmaWrite(Bdf bdf, IovaAddr iova, const void *src, u64 len)
{
    const auto *bytes = static_cast<const u8 *>(src);
    while (len > 0) {
        const u64 chunk = std::min(len, kPageSize - (iova & kPageMask));
        auto tr = translate(bdf, iova, Access::kWrite);
        if (!tr.isOk())
            return tr.status();
        pm_.write(tr.value().pa, bytes, chunk);
        bytes += chunk;
        iova += chunk;
        len -= chunk;
    }
    return Status::ok();
}

Status
Iommu::dmaRead(Bdf bdf, IovaAddr iova, void *dst, u64 len)
{
    auto *bytes = static_cast<u8 *>(dst);
    while (len > 0) {
        const u64 chunk = std::min(len, kPageSize - (iova & kPageMask));
        auto tr = translate(bdf, iova, Access::kRead);
        if (!tr.isOk())
            return tr.status();
        pm_.read(tr.value().pa, bytes, chunk);
        bytes += chunk;
        iova += chunk;
        len -= chunk;
    }
    return Status::ok();
}

void
Iommu::invalidateIotlbEntry(Bdf bdf, u64 iova_pfn)
{
    iotlb_.invalidateEntry(bdf.pack(), iova_pfn);
}

void
Iommu::flushIotlb()
{
    iotlb_.flushAll();
}

} // namespace rio::iommu
