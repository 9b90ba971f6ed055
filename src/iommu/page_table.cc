#include "iommu/page_table.h"

#include <vector>

#include "base/logging.h"
#include "iommu/virt_hooks.h"
#include "obs/registry.h"

namespace rio::iommu {

IoPageTable::IoPageTable(mem::PhysicalMemory &pm, bool coherent,
                         const cycles::CostModel &cost,
                         cycles::CycleAccount *acct)
    : pm_(pm), coherent_(coherent), cost_(cost), acct_(acct)
{
    root_ = pm_.allocFrame();
    ++table_pages_;
    for (int level = 1; level <= kLevels; ++level)
        level_reads_[level - 1] = &obs::registry().counter(
            "iommu.pt_walk.level_reads",
            {{"level", std::to_string(level)}});
}

IoPageTable::~IoPageTable()
{
    // Free the hierarchy depth-first so PhysicalMemory leak counters
    // stay meaningful in tests.
    std::vector<std::pair<PhysAddr, int>> stack{{root_, 1}};
    while (!stack.empty()) {
        auto [table, level] = stack.back();
        stack.pop_back();
        if (level < kLevels) {
            for (unsigned i = 0; i < kEntriesPerTable; ++i) {
                Pte e{pm_.read64(table + i * 8)};
                // A huge leaf maps data frames, not a child table.
                if (e.present() && !e.huge())
                    stack.emplace_back(e.addr(), level + 1);
            }
        }
        pm_.freeFrame(table);
    }
}

unsigned
IoPageTable::levelIndex(u64 iova_pfn, int level)
{
    // level 1 indexes with the top 9 bits of the 36-bit vpn.
    const int shift = 9 * (kLevels - level);
    return static_cast<unsigned>((iova_pfn >> shift) & 0x1ff);
}

PhysAddr
IoPageTable::descend(u64 iova_pfn, bool create, int *levels,
                     int leaf_level)
{
    PhysAddr table = root_;
    int walked = 1;
    for (int level = 1; level < leaf_level; ++level, ++walked) {
        const PhysAddr slot = table + levelIndex(iova_pfn, level) * 8;
        Pte entry{pm_.read64(slot)};
        if (!entry.present()) {
            if (!create) {
                if (levels)
                    *levels = walked;
                return 0;
            }
            const PhysAddr next = pm_.allocFrame();
            ++table_pages_;
            pm_.write64(slot, Pte::make(next, DmaDir::kBidir).raw);
            entry = Pte{pm_.read64(slot)};
        }
        if (entry.huge()) {
            // A 2 MB leaf blocks this path; callers report kExists.
            if (levels)
                *levels = walked;
            return 0;
        }
        table = entry.addr();
    }
    if (levels)
        *levels = walked;
    return table;
}

void
IoPageTable::chargeUpdate(cycles::Cat cat, int levels_walked)
{
    if (!acct_)
        return;
    const Cycles per_level = cat == cycles::Cat::kMapPageTable
                                 ? cost_.pt_walk_level_insert
                                 : cost_.pt_walk_level_remove;
    Cycles c = per_level * static_cast<Cycles>(levels_walked) +
               cost_.table_store;
    // sync_mem (paper Fig. 11): a flush is needed only when the
    // I/O page walk is incoherent with the CPU caches.
    if (!coherent_)
        c += cost_.memory_barrier + cost_.cacheline_flush;
    c += cost_.memory_barrier;
    acct_->charge(cat, c);
}

Status
IoPageTable::map(u64 iova_pfn, u64 phys_pfn, DmaDir dir)
{
    RIO_ASSERT(dir != DmaDir::kNone, "mapping with no permitted direction");
    int levels = 0;
    const PhysAddr leaf_table = descend(iova_pfn, true, &levels);
    chargeUpdate(cycles::Cat::kMapPageTable, levels);
    if (!leaf_table) {
        return Status(ErrorCode::kExists,
                      "iova pfn inside a huge mapping: " +
                          std::to_string(iova_pfn));
    }
    const PhysAddr slot = leaf_table + levelIndex(iova_pfn, kLevels) * 8;
    Pte existing{pm_.read64(slot)};
    if (existing.present()) {
        return Status(ErrorCode::kExists,
                      "iova pfn already mapped: " + std::to_string(iova_pfn));
    }
    pm_.write64(slot, Pte::make(phys_pfn << kPageShift, dir).raw);
    ++mapped_pages_;
    if (traps_)
        traps_->onTableWrite({TableWrite::Kind::kRadixPte, iova_pfn,
                              phys_pfn, true},
                             acct_);
    return Status::ok();
}

Status
IoPageTable::mapRange(u64 iova_pfn, u64 phys_pfn, u64 npages, DmaDir dir)
{
    for (u64 i = 0; i < npages; ++i) {
        Status s = map(iova_pfn + i, phys_pfn + i, dir);
        if (!s)
            return s;
    }
    return Status::ok();
}

Status
IoPageTable::mapHuge(u64 iova_pfn, u64 phys_pfn, DmaDir dir)
{
    RIO_ASSERT(dir != DmaDir::kNone, "mapping with no permitted direction");
    RIO_ASSERT(iova_pfn % kHugePfns == 0 && phys_pfn % kHugePfns == 0,
               "huge mapping must be 2 MB aligned");
    int levels = 0;
    const PhysAddr leaf_table =
        descend(iova_pfn, true, &levels, kLevels - 1);
    chargeUpdate(cycles::Cat::kMapPageTable, levels);
    if (!leaf_table) {
        return Status(ErrorCode::kExists,
                      "huge pfn inside a huge mapping: " +
                          std::to_string(iova_pfn));
    }
    const PhysAddr slot =
        leaf_table + levelIndex(iova_pfn, kLevels - 1) * 8;
    Pte existing{pm_.read64(slot)};
    if (existing.present()) {
        // Either a huge leaf or a populated child table: both mean
        // the 2 MB region is not free to claim.
        return Status(ErrorCode::kExists,
                      "huge slot already populated: " +
                          std::to_string(iova_pfn));
    }
    pm_.write64(slot,
                Pte::makeHuge(phys_pfn << kPageShift, dir).raw);
    mapped_pages_ += kHugePfns;
    ++huge_mappings_;
    if (traps_)
        traps_->onTableWrite({TableWrite::Kind::kRadixPte, iova_pfn,
                              phys_pfn, true, /*huge=*/true},
                             acct_);
    return Status::ok();
}

Status
IoPageTable::unmapHuge(u64 iova_pfn)
{
    RIO_ASSERT(iova_pfn % kHugePfns == 0,
               "huge unmap must be 2 MB aligned");
    int levels = 0;
    const PhysAddr leaf_table =
        descend(iova_pfn, false, &levels, kLevels - 1);
    chargeUpdate(cycles::Cat::kUnmapPageTable, levels);
    if (!leaf_table)
        return Status(ErrorCode::kNotFound,
                      "huge unmap of unmapped region");
    const PhysAddr slot =
        leaf_table + levelIndex(iova_pfn, kLevels - 1) * 8;
    Pte existing{pm_.read64(slot)};
    if (!existing.present() || !existing.huge())
        return Status(ErrorCode::kNotFound,
                      "huge unmap of non-huge slot");
    pm_.write64(slot, 0);
    mapped_pages_ -= kHugePfns;
    --huge_mappings_;
    if (traps_)
        traps_->onTableWrite({TableWrite::Kind::kRadixPte, iova_pfn, 0,
                              false, /*huge=*/true},
                             acct_);
    return Status::ok();
}

Status
IoPageTable::unmap(u64 iova_pfn)
{
    int levels = 0;
    const PhysAddr leaf_table = descend(iova_pfn, false, &levels);
    chargeUpdate(cycles::Cat::kUnmapPageTable, levels);
    if (!leaf_table)
        return Status(ErrorCode::kNotFound, "unmap of unmapped iova pfn");
    const PhysAddr slot = leaf_table + levelIndex(iova_pfn, kLevels) * 8;
    Pte existing{pm_.read64(slot)};
    if (!existing.present())
        return Status(ErrorCode::kNotFound, "unmap of unmapped iova pfn");
    pm_.write64(slot, 0);
    --mapped_pages_;
    if (traps_)
        traps_->onTableWrite(
            {TableWrite::Kind::kRadixPte, iova_pfn, 0, false}, acct_);
    return Status::ok();
}

Status
IoPageTable::unmapRange(u64 iova_pfn, u64 npages)
{
    for (u64 i = 0; i < npages; ++i) {
        Status s = unmap(iova_pfn + i);
        if (!s)
            return s;
    }
    return Status::ok();
}

Result<Pte>
IoPageTable::walk(u64 iova_pfn, int *levels_touched, VirtStage2 *s2,
                  int *mem_refs) const
{
    PhysAddr table = root_;
    int touched = 0;
    for (int level = 1; level <= kLevels; ++level) {
        ++touched;
        // Under nested translation the table address the walker holds
        // is guest-physical; resolve it through stage 2 before the
        // hardware can read the entry (the 2-D walk of §"nested").
        if (s2)
            table = s2->deviceTranslate(table, mem_refs);
        if (mem_refs)
            ++*mem_refs;
        level_reads_[level - 1]->inc();
        const PhysAddr slot = table + levelIndex(iova_pfn, level) * 8;
        const Pte entry{pm_.read64(slot)};
        if (!entry.present()) {
            if (levels_touched)
                *levels_touched = touched;
            return Status(ErrorCode::kIoPageFault, "translation not present");
        }
        if (entry.reservedBitsSet()) {
            if (levels_touched)
                *levels_touched = touched;
            return Status(ErrorCode::kCorrupted,
                          "reserved bits set in PTE");
        }
        if (level == kLevels || entry.huge()) {
            // 4K leaf, or a 2 MB leaf terminating the walk one level
            // early (the caller composes the 2 MB offset).
            if (levels_touched)
                *levels_touched = touched;
            return entry;
        }
        table = entry.addr();
    }
    RIO_PANIC("unreachable");
}

PhysAddr
IoPageTable::leafSlot(u64 iova_pfn) const
{
    PhysAddr table = root_;
    for (int level = 1; level < kLevels; ++level) {
        const Pte entry{pm_.read64(table + levelIndex(iova_pfn, level) * 8)};
        if (!entry.present() || entry.huge())
            return 0; // no 4K leaf under a huge mapping
        table = entry.addr();
    }
    return table + levelIndex(iova_pfn, kLevels) * 8;
}

} // namespace rio::iommu
