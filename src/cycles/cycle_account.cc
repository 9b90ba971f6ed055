#include "cycles/cycle_account.h"

#include "base/logging.h"

namespace rio::cycles {

const char *
catName(Cat cat)
{
    switch (cat) {
      case Cat::kMapIovaAlloc: return "map/iova alloc";
      case Cat::kMapPageTable: return "map/page table";
      case Cat::kMapOther: return "map/other";
      case Cat::kUnmapIovaFind: return "unmap/iova find";
      case Cat::kUnmapIovaFree: return "unmap/iova free";
      case Cat::kUnmapPageTable: return "unmap/page table";
      case Cat::kUnmapIotlbInv: return "unmap/iotlb inv";
      case Cat::kUnmapOther: return "unmap/other";
      case Cat::kProcessing: return "processing";
      case Cat::kLockWait: return "lock wait";
      case Cat::kFaultHandling: return "fault handling";
      case Cat::kLifecycle: return "lifecycle";
      case Cat::kVirt: return "virt";
      case Cat::kNumCats: break;
    }
    RIO_PANIC("bad Cat");
}

Cycles
CycleAccount::mapTotal() const
{
    return get(Cat::kMapIovaAlloc) + get(Cat::kMapPageTable) +
           get(Cat::kMapOther);
}

Cycles
CycleAccount::unmapTotal() const
{
    return get(Cat::kUnmapIovaFind) + get(Cat::kUnmapIovaFree) +
           get(Cat::kUnmapPageTable) + get(Cat::kUnmapIotlbInv) +
           get(Cat::kUnmapOther);
}

void
CycleAccount::reset()
{
    cycles_.fill(0);
    ops_.fill(0);
    total_ = 0;
}

CycleAccount
CycleAccount::since(const CycleAccount &earlier) const
{
    CycleAccount delta;
    for (unsigned i = 0; i < kNumCats; ++i) {
        delta.cycles_[i] = cycles_[i] - earlier.cycles_[i];
        delta.ops_[i] = ops_[i] - earlier.ops_[i];
    }
    delta.total_ = total_ - earlier.total_;
    return delta;
}

} // namespace rio::cycles
