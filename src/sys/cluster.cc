#include "sys/cluster.h"

#include "base/logging.h"

namespace rio::sys {

Cluster::Cluster(const ClusterConfig &cfg)
    : cfg_(cfg)
{
    RIO_ASSERT(cfg_.machines >= 1, "empty cluster");
    RIO_ASSERT(!cfg_.wire.armed() || cfg_.reliability.enabled,
               "hostile wire without the reliability layer would stall "
               "the closed loop forever");
    // Conservative lookahead: every wire crossing pays at least
    // wire_ns beyond the sender's now, so this is a valid lower bound
    // (serialization only adds). Must precede the first sendTo.
    engine_.setLookahead(cfg_.profile.wire_ns);

    const std::vector<u32> ring_sizes =
        rdma::ringSizes(cfg_.profile, cfg_.max_qps);
    machines_.reserve(cfg_.machines);
    nics_.reserve(cfg_.machines);
    for (unsigned m = 0; m < cfg_.machines; ++m) {
        des::Lane &lane = engine_.addLane();
        machines_.push_back(std::make_unique<Machine>(
            lane.sim(), cfg_.mode, /*ncores=*/1u));
        Machine &mach = *machines_.back();
        mach.recorder().setPid(static_cast<u16>(m));
        dma::DmaHandle &handle = mach.attachDeviceHandle(0, ring_sizes);
        handles_.push_back(&handle);
        if (dma::modeUsesRiommu(cfg_.mode))
            mach.ctx().riommu().setRdCache(cfg_.rdcache);
        handle.setIovaCoreCache(cfg_.iova_cache_rounds);
        if (cfg_.fault_rate > 0.0)
            mach.setFaultInjection(cfg_.fault_rate, cfg_.fault_seed);
        nics_.push_back(std::make_unique<rdma::RdmaNic>(
            lane.sim(), mach.core(0), mach.ctx().memory(), handle,
            cfg_.profile, cfg_.max_qps, m));
        nics_.back()->setReliability(cfg_.reliability);
        if (cfg_.migration) {
            // Hypervisor NIC (id = machines + m): the migration
            // stream's own verbs stack behind the same IOMMU and core.
            dma::DmaHandle &mh = mach.attachDeviceHandle(
                0, rdma::ringSizes(cfg_.profile, cfg_.mig_qps));
            mig_handles_.push_back(&mh);
            mh.setIovaCoreCache(cfg_.iova_cache_rounds);
            mig_nics_.push_back(std::make_unique<rdma::RdmaNic>(
                lane.sim(), mach.core(0), mach.ctx().memory(), mh,
                cfg_.profile, cfg_.mig_qps, cfg_.machines + m));
            mig_nics_.back()->setReliability(cfg_.reliability);
        }
    }
    // Hostile wire, when armed: each machine owns an ingress port
    // living on its *own* lane — faults and congestion are decided in
    // the destination lane's deterministic mail-drain order.
    if (cfg_.wire.armed()) {
        ports_.reserve(cfg_.machines);
        for (unsigned m = 0; m < cfg_.machines; ++m) {
            ports_.push_back(std::make_unique<WirePort>(
                engine_.lane(m).sim(), cfg_.wire, *nics_[m], m,
                machines_[m]->core(0)));
            if (cfg_.migration)
                ports_.back()->setAltTarget(mig_nics_[m].get());
        }
    }
    // The wire: a send from NIC i lands in lane(dst) at the
    // pre-computed arrival time. The target NIC is touched only from
    // its own lane's callbacks — the ParallelEngine handoff contract.
    // Unarmed, the hook is byte-identical to the lossless wire.
    // NIC id space: guest NICs are 0..machines-1, hypervisor NICs
    // machines..2*machines-1; both live on lane (id % machines).
    const unsigned nmach = cfg_.machines;
    auto installSend = [this, nmach](rdma::RdmaNic *src, unsigned m) {
        if (cfg_.wire.armed()) {
            src->setSendFn([this, m, nmach](u32 dst, Nanos when,
                                            rdma::WireMsg msg) {
                const unsigned dm = dst % nmach;
                RIO_ASSERT(dst < (hasMigration() ? 2 : 1) * nmach,
                           "send to unknown machine");
                WirePort *port = ports_[dm].get();
                engine_.lane(m).sendTo(
                    engine_.lane(dm), when,
                    [port, msg = std::move(msg)]() mutable {
                        port->deliver(std::move(msg));
                    });
            });
            return;
        }
        src->setSendFn([this, m, nmach](u32 dst, Nanos when,
                                        rdma::WireMsg msg) {
            const unsigned dm = dst % nmach;
            RIO_ASSERT(dst < (hasMigration() ? 2 : 1) * nmach,
                       "send to unknown machine");
            rdma::RdmaNic *target = dst < nmach ? nics_[dm].get()
                                                : mig_nics_[dm].get();
            engine_.lane(m).sendTo(
                engine_.lane(dm), when,
                [target, msg = std::move(msg)] { target->fromWire(msg); });
        });
    };
    for (unsigned m = 0; m < cfg_.machines; ++m) {
        installSend(nics_[m].get(), m);
        if (cfg_.migration)
            installSend(mig_nics_[m].get(), m);
    }
}

std::vector<obs::Recording>
Cluster::takeRecordings()
{
    std::vector<obs::Recording> row;
    row.reserve(machines_.size());
    for (auto &m : machines_)
        row.push_back(m->recorder().take());
    return row;
}

void
Cluster::bringUp()
{
    for (auto &nic : nics_)
        nic->bringUp();
    for (auto &nic : mig_nics_)
        nic->bringUp();
}

void
Cluster::quiesce()
{
    for (unsigned m = 0; m < size(); ++m) {
        // A migrated-away source's guest handle is already detached
        // (five-phase quiesce during blackout); leave it be.
        if (!handles_[m]->detached()) {
            nics_[m]->quiesceAll();
            handles_[m]->quiesceFlush();
        }
        if (hasMigration()) {
            mig_nics_[m]->quiesceAll();
            if (!mig_handles_[m]->detached())
                mig_handles_[m]->quiesceFlush();
        }
    }
}

dma::LeakReport
Cluster::checkLeaks(unsigned m) const
{
    return machines_[m]->ctx().checkHandleLeaks(*handles_[m]);
}

dma::LeakReport
Cluster::checkMigLeaks(unsigned m) const
{
    return machines_[m]->ctx().checkHandleLeaks(*mig_handles_[m]);
}

} // namespace rio::sys
