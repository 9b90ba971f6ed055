/**
 * @file
 * DMA trace capture (§5.4 methodology): the paper logged the DMAs of
 * emulated devices under KVM/QEMU and fed them to simulated TLB
 * prefetchers. Here a DmaHandle bound to a DmaTrace (bindTrace)
 * records map/unmap/access events at IOVA-page granularity; the
 * prefetch module replays the traces.
 */
#ifndef RIO_DMA_DMA_TRACE_H
#define RIO_DMA_DMA_TRACE_H

#include <vector>

#include "base/types.h"

namespace rio::dma {

/** One event in a DMA trace. */
struct TraceEvent
{
    enum class Kind : u8 {
        kMap = 0,
        kUnmap = 1,
        kAccess = 2,
        kFault = 3 //!< a device access came back faulted
    };

    Kind kind = Kind::kAccess;
    u64 iova_pfn = 0;
};

/** An in-memory DMA trace. */
class DmaTrace
{
  public:
    void
    add(TraceEvent::Kind kind, u64 iova_pfn)
    {
        events_.push_back({kind, iova_pfn});
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    u64 size() const { return events_.size(); }
    void clear() { events_.clear(); }

  private:
    std::vector<TraceEvent> events_;
};

} // namespace rio::dma

#endif // RIO_DMA_DMA_TRACE_H
