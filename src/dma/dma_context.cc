#include "dma/dma_context.h"

#include "base/logging.h"
#include "base/strings.h"
#include "dma/baseline_handle.h"
#include "dma/none_handle.h"
#include "dma/riommu_handle.h"
#include "obs/flight.h"

namespace rio::dma {

DmaContext::DmaContext(const cycles::CostModel &cost,
                       iommu::IotlbConfig iotlb_config)
    : cost_(cost), pm_(), iommu_(pm_, cost_, iotlb_config),
      riommu_(pm_, cost_), iova_lock_(cost_, "iova"),
      inval_lock_(cost_, "qi")
{
}

DmaContext::~DmaContext()
{
    const iommu::IotlbStats &tlb = iommu_.iotlb().stats();
    obs::registry().merge(
        {{"iotlb.hits", {}, tlb.hits},
         {"iotlb.misses", {}, tlb.misses},
         {"riotlb.implicit_invalidations", {},
          riommu_.riotlb().stats().implicit_invalidations}});
}

std::unique_ptr<DmaHandle>
DmaContext::makeHandle(ProtectionMode mode, iommu::Bdf bdf,
                       cycles::CycleAccount *acct,
                       std::vector<u32> ring_sizes, des::Core *core)
{
    std::vector<riommu::RingSpec> specs;
    specs.reserve(ring_sizes.size());
    for (u32 size : ring_sizes)
        specs.push_back(riommu::RingSpec{size, riommu::RingMode::kSequential});
    return makeHandleWithSpecs(mode, bdf, acct, std::move(specs), core);
}

std::unique_ptr<DmaHandle>
DmaContext::makeHandleWithSpecs(ProtectionMode mode, iommu::Bdf bdf,
                                cycles::CycleAccount *acct,
                                std::vector<riommu::RingSpec> ring_specs,
                                des::Core *core)
{
    std::unique_ptr<DmaHandle> handle;
    switch (mode) {
      case ProtectionMode::kStrict:
      case ProtectionMode::kStrictPlus:
      case ProtectionMode::kDefer:
      case ProtectionMode::kDeferPlus: {
        auto baseline = std::make_unique<BaselineDmaHandle>(mode, iommu_,
                                                            pm_, bdf,
                                                            cost_, acct);
        if (core)
            baseline->setContention(&iova_lock_, &inval_lock_, core);
        handle = std::move(baseline);
        break;
      }
      case ProtectionMode::kRiommuNc:
      case ProtectionMode::kRiommu:
        RIO_ASSERT(!ring_specs.empty(),
                   "rIOMMU modes need ring sizes at handle creation");
        handle = std::make_unique<RiommuDmaHandle>(
            mode, riommu_, pm_, bdf, std::move(ring_specs), cost_, acct);
        break;
      case ProtectionMode::kNone:
        handle = std::make_unique<NoneDmaHandle>(pm_, bdf, cost_, acct);
        break;
    }
    RIO_ASSERT(handle != nullptr, "bad protection mode");
    handle->bindObs(modeName(mode), acct, core);
    return handle;
}

std::string
LeakReport::toString() const
{
    if (clean())
        return "clean";
    std::string s = strprintf(
        "%llu leaked mapping(s), %llu stale IOTLB, %llu stale rIOTLB",
        (unsigned long long)leaked, (unsigned long long)stale_iotlb,
        (unsigned long long)stale_riotlb);
    for (const LeakRecord &r : records) {
        s += strprintf("\n  %s ring %u device_addr 0x%llx size %u",
                       r.bdf.toString().c_str(), r.rid,
                       (unsigned long long)r.device_addr, r.size);
    }
    return s;
}

LeakReport
DmaContext::checkHandleLeaks(const DmaHandle &handle) const
{
    LeakReport report;
    report.leaked = handle.liveMappings();
    for (const LiveMappingInfo &m : handle.liveMappingList()) {
        report.records.push_back(
            LeakRecord{handle.bdf(), m.rid, m.device_addr, m.size});
    }
    const u16 sid = handle.bdf().pack();
    report.stale_iotlb = iommu_.iotlb().validEntriesFor(sid);
    report.stale_riotlb = riommu_.riotlb().entriesFor(sid);
    if (!report.clean())
        obs::flightDump("handle_leak");
    return report;
}

} // namespace rio::dma
