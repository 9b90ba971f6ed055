#include "iommu/iotlb.h"

#include "base/logging.h"

namespace rio::iommu {

Iotlb::Iotlb(IotlbConfig config)
    : config_(config)
{
    RIO_ASSERT(config_.sets > 0 && config_.ways > 0, "empty IOTLB");
    pow2_sets_ = (config_.sets & (config_.sets - 1)) == 0;
    entries_.resize(static_cast<size_t>(config_.sets) * config_.ways);
}

unsigned
Iotlb::setIndex(u16 sid, u64 iova_pfn) const
{
    // Mix the requester id in so devices do not alias trivially.
    const u64 h = (iova_pfn ^ (static_cast<u64>(sid) * 0x9e3779b9)) *
                  0xff51afd7ed558ccdULL;
    const auto top = static_cast<unsigned>(h >> 32);
    return pow2_sets_ ? top & (config_.sets - 1) : top % config_.sets;
}

Iotlb::Entry *
Iotlb::findEntry(u16 sid, u64 iova_pfn)
{
    const unsigned set = setIndex(sid, iova_pfn);
    for (unsigned w = 0; w < config_.ways; ++w) {
        Entry &e = entries_[set * config_.ways + w];
        if (e.valid && e.sid == sid && e.iova_pfn == iova_pfn)
            return &e;
    }
    return nullptr;
}

const Iotlb::Entry *
Iotlb::findEntry(u16 sid, u64 iova_pfn) const
{
    return const_cast<Iotlb *>(this)->findEntry(sid, iova_pfn);
}

std::optional<Pte>
Iotlb::lookup(u16 sid, u64 iova_pfn)
{
    Entry *e = findEntry(sid, iova_pfn);
    if (!e) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    e->lru_tick = ++tick_;
    return e->pte;
}

void
Iotlb::insert(u16 sid, u64 iova_pfn, Pte pte)
{
    if (Entry *hit = findEntry(sid, iova_pfn)) {
        hit->pte = pte;
        hit->lru_tick = ++tick_;
        return;
    }
    const unsigned set = setIndex(sid, iova_pfn);
    Entry *victim = nullptr;
    for (unsigned w = 0; w < config_.ways; ++w) {
        Entry &e = entries_[set * config_.ways + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.lru_tick < victim->lru_tick)
            victim = &e;
    }
    if (victim->valid)
        ++stats_.evictions;
    *victim = Entry{true, sid, iova_pfn, pte, ++tick_};
}

bool
Iotlb::invalidateEntry(u16 sid, u64 iova_pfn)
{
    if (Entry *e = findEntry(sid, iova_pfn)) {
        e->valid = false;
        return true;
    }
    return false;
}

void
Iotlb::invalidateDevice(u16 sid)
{
    for (Entry &e : entries_) {
        if (e.valid && e.sid == sid)
            e.valid = false;
    }
}

void
Iotlb::flushAll()
{
    ++stats_.global_flushes;
    for (Entry &e : entries_)
        e.valid = false;
}

u64
Iotlb::validEntries() const
{
    u64 n = 0;
    for (const Entry &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

u64
Iotlb::validEntriesFor(u16 sid) const
{
    u64 n = 0;
    for (const Entry &e : entries_)
        n += (e.valid && e.sid == sid) ? 1 : 0;
    return n;
}

bool
Iotlb::contains(u16 sid, u64 iova_pfn) const
{
    return findEntry(sid, iova_pfn) != nullptr;
}

} // namespace rio::iommu
