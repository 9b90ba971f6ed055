#include "riommu/riotlb.h"

#include "base/logging.h"

namespace rio::riommu {

RiotlbEntry *
Riotlb::find(u16 bdf, u16 rid)
{
    auto it = entries_.find(key(bdf, rid));
    return it == entries_.end() ? nullptr : &it->second;
}

void
Riotlb::insert(const RiotlbEntry &entry)
{
    const bool fresh =
        entries_.emplace(key(entry.bdf, entry.rid), entry).second;
    RIO_ASSERT(fresh, "riotlb insert over a live entry");
}

bool
Riotlb::invalidate(u16 bdf, u16 rid)
{
    ++stats_.invalidations;
    return entries_.erase(key(bdf, rid)) > 0;
}

const RiotlbEntry *
Riotlb::peek(u16 bdf, u16 rid) const
{
    auto it = entries_.find(key(bdf, rid));
    return it == entries_.end() ? nullptr : &it->second;
}

} // namespace rio::riommu
