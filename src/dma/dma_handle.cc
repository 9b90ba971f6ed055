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
    obs::Event e;
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
    obs::timeline().emit(e);
}

} // namespace

void
DmaHandle::bindObs(const char *mode, cycles::CycleAccount *acct,
                   des::Core *core)
{
    const obs::Labels labels = {{"mode", mode ? mode : "?"}};
    obs_map_cycles_ = &obs::registry().histogram("dma.map_cycles", labels);
    obs_unmap_cycles_ = &obs::registry().histogram("dma.unmap_cycles", labels);
    obs_acct_ = acct;
    obs_core_ = core;
}

Result<DmaMapping>
DmaHandle::map(u16 rid, PhysAddr pa, u32 size, iommu::DmaDir dir)
{
    if (!obs_map_cycles_)
        return mapImpl(rid, pa, size, dir);
    const Cycles c0 = obs_acct_ ? obs_acct_->total() : 0;
    const Nanos t0 = obs_core_ ? obs_core_->virtualNow() : 0;
    auto m = mapImpl(rid, pa, size, dir);
    const Cycles dc = obs_acct_ ? obs_acct_->total() - c0 : 0;
    obs_map_cycles_->observe(dc);
    emitDmaSpan(obs::Ev::kMap, obs_core_, t0, dc, bdf().pack(), rid);
    return m;
}

Status
DmaHandle::unmap(const DmaMapping &mapping, bool end_of_burst)
{
    if (!obs_unmap_cycles_)
        return unmapImpl(mapping, end_of_burst);
    const Cycles c0 = obs_acct_ ? obs_acct_->total() : 0;
    const Nanos t0 = obs_core_ ? obs_core_->virtualNow() : 0;
    Status s = unmapImpl(mapping, end_of_burst);
    const Cycles dc = obs_acct_ ? obs_acct_->total() - c0 : 0;
    obs_unmap_cycles_->observe(dc);
    emitDmaSpan(obs::Ev::kUnmap, obs_core_, t0, dc, bdf().pack(), 0);
    return s;
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
