#include "dma/dma_handle.h"

#include "cycles/cycle_account.h"
#include "des/core.h"
#include "obs/registry.h"
#include "obs/timeline.h"

namespace rio::dma {

namespace {

/** Timeline span for one map/unmap call on @p core's track. */
void
emitDmaSpan(obs::Ev kind, des::Core *core, Nanos t0, Cycles cycles,
            u16 bdf, u16 rid)
{
    obs::timeline().emitInPlace([&](obs::Event &e) {
        e.kind = kind;
        e.arg = cycles;
        e.bdf = bdf;
        e.rid = rid;
        if (core) {
            e.t = core->virtualNow();
            e.dur_ns = e.t > t0 ? e.t - t0 : 0;
            e.pid = core->obsPid();
            e.tid = core->obsTid();
        }
    });
}

} // namespace

DmaHandle::~DmaHandle()
{
    if (!obs_mode_)
        return;
    const obs::Labels mode = {{"mode", obs_mode_}};
    obs::registry().merge({{"dma.map_cycles", mode, 0, &map_cycles_},
                           {"dma.unmap_cycles", mode, 0, &unmap_cycles_}});
}

void
DmaHandle::bindObs(const char *mode, cycles::CycleAccount *acct,
                   des::Core *core)
{
    obs_mode_ = mode ? mode : "?";
    obs_acct_ = acct;
    obs_core_ = core;
}

Result<DmaMapping>
DmaHandle::map(u16 rid, PhysAddr pa, u32 size, iommu::DmaDir dir)
{
    const bool observed = obs_mode_ != nullptr;
    const Cycles c0 = observed && obs_acct_ ? obs_acct_->total() : 0;
    const Nanos t0 = observed && obs_core_ ? obs_core_->virtualNow() : 0;
    auto m = mapImpl(rid, pa, size, dir);
    if (observed) {
        const Cycles dc = obs_acct_ ? obs_acct_->total() - c0 : 0;
        map_cycles_.observe(dc);
        emitDmaSpan(obs::Ev::kMap, obs_core_, t0, dc, bdf().pack(), rid);
    }
    if (m.isOk())
        traceEvent(TraceEvent::Kind::kMap, m.value().device_addr);
    return m;
}

Status
DmaHandle::unmap(const DmaMapping &mapping, bool end_of_burst)
{
    const bool observed = obs_mode_ != nullptr;
    const Cycles c0 = observed && obs_acct_ ? obs_acct_->total() : 0;
    const Nanos t0 = observed && obs_core_ ? obs_core_->virtualNow() : 0;
    Status s = unmapImpl(mapping, end_of_burst);
    if (observed) {
        const Cycles dc = obs_acct_ ? obs_acct_->total() - c0 : 0;
        unmap_cycles_.observe(dc);
        emitDmaSpan(obs::Ev::kUnmap, obs_core_, t0, dc, bdf().pack(), 0);
    }
    if (s.isOk())
        traceEvent(TraceEvent::Kind::kUnmap, mapping.device_addr);
    return s;
}

Status
DmaHandle::deviceRead(u64 device_addr, void *dst, u64 len)
{
    traceEvent(TraceEvent::Kind::kAccess, device_addr);
    Status s = guardDetached(device_addr, iommu::Access::kRead);
    if (s.isOk())
        s = readImpl(device_addr, dst, len);
    if (!s.isOk())
        traceEvent(TraceEvent::Kind::kFault, device_addr);
    return s;
}

Status
DmaHandle::deviceWrite(u64 device_addr, const void *src, u64 len)
{
    traceEvent(TraceEvent::Kind::kAccess, device_addr);
    Status s = guardDetached(device_addr, iommu::Access::kWrite);
    if (s.isOk())
        s = writeImpl(device_addr, src, len);
    if (!s.isOk())
        traceEvent(TraceEvent::Kind::kFault, device_addr);
    return s;
}

Status
DmaHandle::guardDetached(u64 device_addr, iommu::Access access)
{
    if (!detached_)
        return Status::ok();
    const iommu::FaultRecord rec{bdf(), device_addr, access,
                                 iommu::FaultReason::kDetached};
    constexpr size_t kMaxDetachFaults = 65536;
    if (detach_faults_.size() < kMaxDetachFaults)
        detach_faults_.push_back(rec);
    onDetachedAccess(rec);
    return Status(ErrorCode::kDetached, "DMA through detached BDF");
}

Result<std::vector<DmaMapping>>
DmaHandle::mapSg(u16 rid, const std::vector<SgEntry> &sg,
                 iommu::DmaDir dir)
{
    if (sg.empty())
        return Status(ErrorCode::kInvalidArgument, "empty sg list");
    std::vector<DmaMapping> out;
    out.reserve(sg.size());
    for (const SgEntry &e : sg) {
        auto m = map(rid, e.pa, e.len, dir);
        if (!m.isOk()) {
            // Roll back what was mapped so far (reverse ring order is
            // irrelevant here: partial lists never reach the device).
            for (auto it = out.rbegin(); it != out.rend(); ++it)
                (void)unmap(*it, /*end_of_burst=*/std::next(it) ==
                                      out.rend());
            return m.status();
        }
        out.push_back(m.value());
    }
    return out;
}

Status
DmaHandle::unmapSg(const std::vector<DmaMapping> &mappings,
                   bool end_of_burst)
{
    for (size_t i = 0; i < mappings.size(); ++i) {
        Status s = unmap(mappings[i],
                         end_of_burst && i + 1 == mappings.size());
        if (!s)
            return s;
    }
    return Status::ok();
}

} // namespace rio::dma
