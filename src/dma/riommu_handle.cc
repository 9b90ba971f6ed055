#include "dma/riommu_handle.h"

#include "base/logging.h"

namespace rio::dma {

RiommuDmaHandle::RiommuDmaHandle(ProtectionMode mode,
                                 riommu::Riommu &riommu,
                                 mem::PhysicalMemory &pm, iommu::Bdf bdf,
                                 std::vector<riommu::RingSpec> rings,
                                 const cycles::CostModel &cost,
                                 cycles::CycleAccount *acct)
    : riommu_(riommu), pm_(pm), cost_(cost), acct_(acct),
      rdevice_(riommu, pm, bdf, std::move(rings),
               /*coherent=*/mode == ProtectionMode::kRiommu, cost, acct)
{
    RIO_ASSERT(modeUsesRiommu(mode),
               "RiommuDmaHandle with non-rIOMMU mode");
    fault_.bind(&cost, acct);
}

Result<DmaMapping>
RiommuDmaHandle::mapImpl(u16 rid, PhysAddr pa, u32 size, iommu::DmaDir dir)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    auto iova = rdevice_.map(rid, pa, size, dir);
    if (!iova.isOk())
        return iova.status();
    DmaMapping m;
    m.device_addr = iova.value().raw;
    m.pa = pa;
    m.size = size;
    return m;
}

Status
RiommuDmaHandle::unmapImpl(const DmaMapping &mapping, bool end_of_burst)
{
    return rdevice_.unmap(riommu::RIova{mapping.device_addr},
                          end_of_burst);
}

template <typename Access>
Status
RiommuDmaHandle::deviceAccess(u64 device_addr, const Access &access)
{
    if (!fault_.armed())
        return access();

    const riommu::RIova iova{device_addr};
    const iommu::Bdf dev_bdf = rdevice_.bdf();
    const u16 rid = iova.rid();

    // One draw per top-level access, mirrored by the test oracle.
    if (fault_.shouldInject()) {
        // Damage the exact rPTE this access resolves through: clear
        // its valid bit in the flat table and invalidate the ring's
        // rIOTLB entry so the walk sees the damage.
        PhysAddr slot = 0;
        u64 saved_word1 = 0;
        if (rid < rdevice_.nrings() &&
            iova.rentry() < rdevice_.ringSize(rid)) {
            slot = rdevice_.tableAddr(rid) +
                   static_cast<u64>(iova.rentry()) * riommu::RPte::kBytes;
            saved_word1 = pm_.read64(slot + 8);
            constexpr u64 kValid = u64{1} << 32; // size(30) | dir(2) | valid
            pm_.write64(slot + 8, saved_word1 & ~kValid);
            riommu_.invalidateRing(dev_bdf, rid);
        }
        auto repair = [this, slot, saved_word1, dev_bdf, rid] {
            riommu_.clearRingFault(dev_bdf, rid);
            if (slot) {
                pm_.write64(slot + 8, saved_word1);
                riommu_.invalidateRing(dev_bdf, rid);
            }
        };
        Status s = access();
        if (s.isOk()) {
            repair();
            return s;
        }
        return fault_.recover(s, dev_bdf.pack(), repair, access);
    }

    Status s = access();
    if (s.isOk())
        return s;
    return fault_.recover(
        s, dev_bdf.pack(),
        [this, dev_bdf, rid] { riommu_.clearRingFault(dev_bdf, rid); },
        access);
}

Status
RiommuDmaHandle::readImpl(u64 device_addr, void *dst, u64 len)
{
    return deviceAccess(device_addr, [&] {
        return riommu_.dmaRead(rdevice_.bdf(),
                               riommu::RIova{device_addr}, dst, len);
    });
}

Status
RiommuDmaHandle::writeImpl(u64 device_addr, const void *src, u64 len)
{
    return deviceAccess(device_addr, [&] {
        return riommu_.dmaWrite(rdevice_.bdf(),
                                riommu::RIova{device_addr}, src, len);
    });
}

u64
RiommuDmaHandle::liveMappings() const
{
    u64 live = 0;
    for (u16 rid = 0; rid < rdevice_.nrings(); ++rid)
        live += rdevice_.nmapped(rid);
    return live;
}

Status
RiommuDmaHandle::quiesceFlush()
{
    // Nothing is ever queued (rIOMMU needs no invalidation queue);
    // the flush phase just drops the per-ring rIOTLB entries so no
    // cached translation outlives the quiesce.
    for (u16 rid = 0; rid < rdevice_.nrings(); ++rid) {
        riommu_.invalidateRing(rdevice_.bdf(), rid);
        if (acct_)
            acct_->charge(cycles::Cat::kLifecycle,
                          cost_.iotlb_invalidate_entry);
    }
    return Status::ok();
}

Status
RiommuDmaHandle::detach()
{
    if (detached_)
        return Status::ok();
    if (acct_)
        acct_->charge(cycles::Cat::kLifecycle, cost_.lifecycle_quiesce);
    // Removing the rDEVICE drops every ring's rIOTLB entry with it.
    riommu_.detachDevice(rdevice_.bdf());
    detached_ = true;
    return Status::ok();
}

void
RiommuDmaHandle::surpriseRemove()
{
    if (detached_)
        return;
    riommu_.detachDevice(rdevice_.bdf());
    detached_ = true;
}

Status
RiommuDmaHandle::reattach()
{
    if (!detached_)
        return Status::ok();
    riommu_.attachDevice(rdevice_.bdf(), rdevice_.rdeviceBase(),
                         rdevice_.nrings());
    detached_ = false;
    return Status::ok();
}

std::vector<LiveMappingInfo>
RiommuDmaHandle::liveMappingList() const
{
    // Scan the flat tables for valid rPTEs; each one names its owner
    // ring and reconstructs the rIOVA the driver handed out.
    std::vector<LiveMappingInfo> out;
    for (u16 rid = 0; rid < rdevice_.nrings(); ++rid) {
        rdevice_.forEachValidPte(
            rid, [&out, rid](u32 rentry, const riommu::RPte &pte) {
                out.push_back(LiveMappingInfo{
                    riommu::RIova::pack(0, rentry, rid).raw, pte.size,
                    rid});
            });
    }
    return out;
}

void
RiommuDmaHandle::onDetachedAccess(const iommu::FaultRecord &rec)
{
    riommu_.recordDetachedFault(rec.bdf, riommu::RIova{rec.iova},
                                rec.access);
}

} // namespace rio::dma
