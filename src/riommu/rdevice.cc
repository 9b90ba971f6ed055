#include "riommu/rdevice.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "iommu/virt_hooks.h"

namespace rio::riommu {

namespace {

std::vector<RingSpec>
sequentialSpecs(const std::vector<u32> &sizes)
{
    std::vector<RingSpec> specs;
    specs.reserve(sizes.size());
    for (u32 size : sizes)
        specs.push_back(RingSpec{size, RingMode::kSequential});
    return specs;
}

} // namespace

RDevice::RDevice(Riommu &riommu, mem::PhysicalMemory &pm, Bdf bdf,
                 std::vector<u32> ring_sizes, bool coherent,
                 const cycles::CostModel &cost, cycles::CycleAccount *acct)
    : RDevice(riommu, pm, bdf, sequentialSpecs(ring_sizes), coherent,
              cost, acct)
{
}

RDevice::RDevice(Riommu &riommu, mem::PhysicalMemory &pm, Bdf bdf,
                 std::vector<RingSpec> rings, bool coherent,
                 const cycles::CostModel &cost, cycles::CycleAccount *acct)
    : riommu_(riommu), pm_(pm), bdf_(bdf), coherent_(coherent),
      cost_(cost), acct_(acct)
{
    RIO_ASSERT(!rings.empty(), "device needs at least one rRING");
    RIO_ASSERT(rings.size() <= kMaxRingsPerDevice, "too many rRINGs");

    rdevice_bytes_ = rings.size() * RRingDesc::kBytes;
    rdevice_base_ = pm_.allocContiguous(rdevice_bytes_);

    rings_.reserve(rings.size());
    for (size_t rid = 0; rid < rings.size(); ++rid) {
        const u32 size = rings[rid].size;
        RIO_ASSERT(size >= 1 && size <= kMaxRingSize,
                   "bad rRING size ", size);
        RingState ring;
        ring.size = size;
        ring.mode = rings[rid].mode;
        if (ring.mode == RingMode::kFreeList) {
            // Descending so the first allocation takes entry 0.
            ring.free_slots.reserve(size);
            for (u32 i = size; i > 0; --i)
                ring.free_slots.push_back(i - 1);
        }
        ring.table = pm_.allocContiguous(static_cast<u64>(size) *
                                         RPte::kBytes);
        rings_.push_back(std::move(ring));

        const PhysAddr slot = rdevice_base_ + rid * RRingDesc::kBytes;
        pm_.write64(slot, rings_.back().table);
        pm_.write32(slot + 8, size);
    }
    riommu_.attachDevice(bdf_, rdevice_base_,
                         static_cast<u16>(rings_.size()));
}

RDevice::~RDevice()
{
    riommu_.detachDevice(bdf_);
    for (const RingState &ring : rings_) {
        const u64 bytes = static_cast<u64>(ring.size) * RPte::kBytes;
        for (u64 off = 0; off < pageAlignUp(bytes); off += kPageSize)
            pm_.freeFrame(ring.table + off);
    }
    for (u64 off = 0; off < pageAlignUp(rdevice_bytes_); off += kPageSize)
        pm_.freeFrame(rdevice_base_ + off);
}

void
RDevice::chargeSync(cycles::Cat cat, Cycles update_cost)
{
    // sync_mem (Figure 11): non-coherent walks need a barrier plus a
    // cacheline flush before the trailing barrier; coherent walks
    // need the trailing barrier only.
    Cycles c = update_cost;
    if (!coherent_)
        c += cost_.memory_barrier + cost_.cacheline_flush;
    c += cost_.memory_barrier;
    charge(cat, c);
}

Result<RIova>
RDevice::map(u16 rid, PhysAddr pa, u32 size, DmaDir dir)
{
    if (rid >= rings_.size())
        return Status(ErrorCode::kInvalidArgument, "bad rid");
    if (size == 0 || size > kMaxOffset)
        return Status(ErrorCode::kInvalidArgument, "bad mapping size");
    if (dir == DmaDir::kNone)
        return Status(ErrorCode::kInvalidArgument, "no direction");
    RingState &r = rings_[rid];

    // Locked section of Figure 11: the whole "IOVA allocation" is
    // two integer bumps — the contrast with Table 1's 3,986 cycles.
    charge(cycles::Cat::kMapIovaAlloc, cost_.locked_rmw);
    if (r.nmapped == r.size)
        return Status(ErrorCode::kOverflow, "rRING overflow");

    u32 t;
    if (r.mode == RingMode::kFreeList) {
        // §4's AHCI extension: entries come from a free list, so
        // (un)maps may happen in any order.
        t = r.free_slots.back();
        r.free_slots.pop_back();
    } else {
        t = r.tail;
        // Out-of-order unmaps can leave the tail entry still valid
        // even though nmapped < size; ring semantics forbid reusing
        // it.
        if (readPte(rid, t).valid) {
            return Status(ErrorCode::kOverflow,
                          "tail rPTE still valid (out-of-order unmap)");
        }
        r.tail = (r.tail + 1) % r.size;
    }
    ++r.nmapped;

    RPte pte;
    pte.phys_addr = pa;
    pte.size = size;
    pte.dir = dir;
    pte.valid = true;
    const PhysAddr slot = r.table + static_cast<u64>(t) * RPte::kBytes;
    pm_.write64(slot, pte.word0());
    pm_.write64(slot + 8, pte.word1());
    chargeSync(cycles::Cat::kMapPageTable, cost_.table_store);
    if (traps_)
        traps_->onTableWrite({iommu::TableWrite::Kind::kRpte,
                              RIova::pack(0, t, rid).raw,
                              pa >> kPageShift, true},
                             acct_);

    charge(cycles::Cat::kMapOther, cost_.map_other);
    return RIova::pack(0, t, rid);
}

Status
RDevice::unmap(RIova iova, bool end_of_burst)
{
    if (iova.rid() >= rings_.size())
        return Status(ErrorCode::kInvalidArgument, "bad rid");
    RingState &r = rings_[iova.rid()];
    if (iova.rentry() >= r.size)
        return Status(ErrorCode::kInvalidArgument, "bad rentry");

    const PhysAddr slot =
        r.table + static_cast<u64>(iova.rentry()) * RPte::kBytes;
    RPte pte = RPte::fromWords(pm_.read64(slot), pm_.read64(slot + 8));
    if (!pte.valid)
        return Status(ErrorCode::kNotFound, "unmap of invalid rPTE");

    pte.valid = false;
    pm_.write64(slot + 8, pte.word1());
    chargeSync(cycles::Cat::kUnmapPageTable, cost_.table_store);
    if (traps_)
        traps_->onTableWrite(
            {iommu::TableWrite::Kind::kRpte, iova.raw, 0, false}, acct_);

    RIO_ASSERT(r.nmapped > 0, "nmapped underflow");
    --r.nmapped;
    if (r.mode == RingMode::kFreeList) {
        r.free_slots.push_back(iova.rentry());
        // Out-of-order rings cannot amortize invalidations: a freed
        // slot may be remapped immediately, and a stale single-entry
        // rIOTLB copy of its old rPTE would then mistranslate. Every
        // unmap must invalidate — which is exactly why §4 judges
        // rIOMMU support for AHCI-style devices not worthwhile.
        end_of_burst = true;
    }
    charge(cycles::Cat::kUnmapIovaFree, cost_.locked_rmw);

    if (end_of_burst) {
        riommu_.invalidateRing(bdf_, iova.rid());
        charge(cycles::Cat::kUnmapIotlbInv, cost_.iotlb_invalidate_entry);
    }
    charge(cycles::Cat::kUnmapOther, cost_.unmap_other);
    return Status::ok();
}

RPte
RDevice::readPte(u16 rid, u32 rentry) const
{
    const RingState &r = rings_.at(rid);
    RIO_ASSERT(rentry < r.size, "rentry out of range");
    const PhysAddr slot =
        r.table + static_cast<u64>(rentry) * RPte::kBytes;
    return RPte::fromWords(pm_.read64(slot), pm_.read64(slot + 8));
}

void
RDevice::forEachValidPte(
    u16 rid, const std::function<void(u32, const RPte &)> &fn) const
{
    constexpr u32 kPerFrame = kPageSize / RPte::kBytes;
    const RingState &r = rings_.at(rid);
    RIO_ASSERT(isPageAligned(r.table), "rPTE table not page-aligned");
    for (u32 first = 0; first < r.size; first += kPerFrame) {
        const u8 *frame =
            pm_.frameData(r.table + static_cast<u64>(first) * RPte::kBytes);
        if (!frame)
            continue;
        const u32 n = std::min(kPerFrame, r.size - first);
        for (u32 i = 0; i < n; ++i) {
            u64 w0, w1;
            std::memcpy(&w0, frame + i * RPte::kBytes, sizeof(w0));
            std::memcpy(&w1, frame + i * RPte::kBytes + 8, sizeof(w1));
            const RPte pte = RPte::fromWords(w0, w1);
            if (pte.valid)
                fn(first + i, pte);
        }
    }
}

} // namespace rio::riommu
