#include "dma/none_handle.h"

#include "base/logging.h"

namespace rio::dma {

namespace {

/**
 * Fault-injection wrapper for a mode with no (modeled) translation to
 * damage: an injected fault is a synthesized bus abort — the access
 * never ran — and recovery decides whether it is replayed.
 */
Status
injectedAccess(FaultEngine &fault, const std::function<Status()> &access)
{
    if (!fault.armed())
        return access();
    if (fault.shouldInject()) {
        const Status fail(ErrorCode::kIoPageFault, "injected bus abort");
        return fault.recover(fail, [] {}, access);
    }
    Status s = access();
    if (!s.isOk())
        return fault.recover(s, [] {}, access);
    return s;
}

} // namespace

Result<DmaMapping>
NoneDmaHandle::mapImpl(u16 /*rid*/, PhysAddr pa, u32 size,
                   iommu::DmaDir /*dir*/)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    ++live_;
    return DmaMapping{pa, pa, size};
}

Status
NoneDmaHandle::unmapImpl(const DmaMapping & /*mapping*/, bool /*end_of_burst*/)
{
    RIO_ASSERT(live_ > 0, "unmap with no live mappings");
    --live_;
    return Status::ok();
}

Status
NoneDmaHandle::readImpl(u64 device_addr, void *dst, u64 len)
{
    return injectedAccess(fault_, [&] {
        pm_.read(device_addr, dst, len);
        return Status::ok();
    });
}

Status
NoneDmaHandle::writeImpl(u64 device_addr, const void *src, u64 len)
{
    return injectedAccess(fault_, [&] {
        pm_.write(device_addr, src, len);
        return Status::ok();
    });
}

} // namespace rio::dma
