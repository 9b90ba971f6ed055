#include "sys/machine.h"

#include <algorithm>

#include "base/logging.h"

namespace rio::sys {

Machine::Machine(des::Simulator &sim, dma::ProtectionMode mode,
                 unsigned ncores, const cycles::CostModel &cost)
    : sim_(sim), mode_(mode), ctx_(cost)
{
    RIO_ASSERT(ncores > 0, "machine with no cores");
    cores_.reserve(ncores);
    // One recorder per machine, one track per core.
    for (unsigned i = 0; i < ncores; ++i) {
        cores_.push_back(std::make_unique<des::Core>(sim_, cost));
        cores_.back()->setRecorder(&recorder_, static_cast<u16>(i));
    }
}

Machine::Machine(des::Simulator &sim, dma::ProtectionMode mode,
                 const nic::NicProfile &profile,
                 const cycles::CostModel &cost, dma::DmaTrace *trace)
    : Machine(sim, mode, /*ncores=*/1, cost)
{
    attachNic(profile, 0, trace);
}

iommu::Bdf
Machine::nextBdf()
{
    RIO_ASSERT(next_dev_ < 32, "PCI device numbers exhausted on bus 0");
    return iommu::Bdf{0, next_dev_++, 0};
}

void
Machine::applyFaultConfig(dma::DmaHandle &handle)
{
    handle.setFaultPolicy(fault_policy_);
    dma::FaultInjectConfig cfg;
    cfg.rate = fault_rate_;
    // Per-handle stream: same machine seed, decorrelated by BDF, so
    // attach order cannot change which accesses fault.
    cfg.seed = fault_seed_ ^
               (0x9e3779b97f4a7c15ULL * (handle.bdf().pack() + 1));
    handle.setFaultInjection(cfg);
}

void
Machine::setFaultPolicy(dma::FaultPolicy policy)
{
    fault_policy_ = policy;
    for (auto &node : nodes_)
        node->handle->setFaultPolicy(policy);
    for (auto &handle : extra_handles_)
        handle->setFaultPolicy(policy);
}

void
Machine::setFaultInjection(double rate, u64 seed)
{
    fault_rate_ = rate;
    fault_seed_ = seed;
    for (auto &node : nodes_)
        applyFaultConfig(*node->handle);
    for (auto &handle : extra_handles_)
        applyFaultConfig(*handle);
}

dma::FaultStats
Machine::faultStats() const
{
    dma::FaultStats total;
    for (const auto &node : nodes_)
        total += node->handle->faultStats();
    for (const auto &handle : extra_handles_)
        total += handle->faultStats();
    return total;
}

unsigned
Machine::attachNic(const nic::NicProfile &profile, unsigned core_idx,
                   dma::DmaTrace *trace)
{
    RIO_ASSERT(core_idx < cores_.size(), "pin to nonexistent core ",
               core_idx);
    auto node = std::make_unique<Node>(profile, core_idx);
    des::Core &core = *cores_[core_idx];
    node->handle =
        ctx_.makeHandle(mode_, nextBdf(), &core.acct(),
                        node->profile.riommuRingSizes(), &core);
    applyFaultConfig(*node->handle);
    node->handle->bindTrace(trace);
    node->nic = std::make_unique<nic::Nic>(sim_, core, ctx_.memory(),
                                           *node->handle, node->profile);
    nodes_.push_back(std::move(node));
    return static_cast<unsigned>(nodes_.size() - 1);
}

void
Machine::journal(unsigned nic_idx, LifecyclePhase phase)
{
    journalAt(*nodes_[nic_idx]->handle, nodes_[nic_idx]->core_idx,
              nic_idx, phase);
}

void
Machine::journalAt(dma::DmaHandle &h, unsigned core_idx,
                   unsigned log_idx, LifecyclePhase phase)
{
    des::Core &core = *cores_[core_idx];
    obs::Event e;
    e.kind = obs::Ev::kQuiescePhase;
    e.t = sim_.now();
    e.arg = static_cast<u64>(phase);
    e.bdf = h.bdf().pack();
    core.emit(e);
    // Capped so churn soaks stay bounded; the stats keep counting.
    constexpr size_t kMaxLog = 1u << 20;
    if (lifecycle_log_.size() < kMaxLog)
        lifecycle_log_.push_back({sim_.now(), log_idx, phase});
}

void
Machine::surpriseUnplugNic(unsigned i)
{
    nic::Nic &n = nic(i);
    RIO_ASSERT(n.isUp(), "surprise unplug of a down NIC");
    // Hardware side first: the device disappears mid-burst and stops
    // answering invalidations; the bus then reports it gone.
    n.surpriseUnplug();
    nodes_[i]->handle->surpriseRemove();
    ++lifecycle_stats_.surprise_unplugs;
    journal(i, LifecyclePhase::kSurpriseUnplug);
}

void
Machine::removeCleanupNic(unsigned i)
{
    nic(i).removeCleanup();
    journal(i, LifecyclePhase::kRemoveCleanup);
}

Status
Machine::replugNic(unsigned i)
{
    Status s = nodes_[i]->handle->reattach();
    if (!s.isOk())
        return s;
    journal(i, LifecyclePhase::kReattach);
    nic(i).replug();
    ++lifecycle_stats_.replugs;
    journal(i, LifecyclePhase::kReplug);
    return Status::ok();
}

Status
Machine::quiesceNic(unsigned i)
{
    RIO_ASSERT(nic(i).isUp(), "quiesce of a down NIC");
    // The quiesce protocol, in order: stop posting, drain the rings,
    // unmap everything, flush invalidations, detach. Nic::shutDown
    // performs the first three at one instant; the journal serializes
    // them in protocol order.
    journal(i, LifecyclePhase::kStopPosting);
    nic(i).shutDown();
    journal(i, LifecyclePhase::kDrain);
    journal(i, LifecyclePhase::kUnmapAll);
    Status fs = nodes_[i]->handle->quiesceFlush();
    if (!fs.isOk())
        return fs;
    journal(i, LifecyclePhase::kFlush);
    Status ds = nodes_[i]->handle->detach();
    if (!ds.isOk())
        return ds;
    journal(i, LifecyclePhase::kDetach);
    ++lifecycle_stats_.quiesces;
    return Status::ok();
}

Status
Machine::quiesceHandle(dma::DmaHandle &h, unsigned core_idx, bool detach)
{
    unsigned log_idx = numNics();
    for (size_t k = 0; k < extra_handles_.size(); ++k) {
        if (extra_handles_[k].get() == &h) {
            log_idx = numNics() + static_cast<unsigned>(k);
            break;
        }
    }
    journalAt(h, core_idx, log_idx, LifecyclePhase::kStopPosting);
    journalAt(h, core_idx, log_idx, LifecyclePhase::kDrain);
    journalAt(h, core_idx, log_idx, LifecyclePhase::kUnmapAll);
    Status fs = h.quiesceFlush();
    if (!fs.isOk())
        return fs;
    journalAt(h, core_idx, log_idx, LifecyclePhase::kFlush);
    if (detach) {
        Status ds = h.detach();
        if (!ds.isOk())
            return ds;
        journalAt(h, core_idx, log_idx, LifecyclePhase::kDetach);
    }
    ++lifecycle_stats_.quiesces;
    return Status::ok();
}

void
Machine::armLifecycleChurn(const LifecycleChurnConfig &cfg)
{
    churn_ = cfg;
    if (cfg.events_per_ms <= 0.0)
        return; // rate 0: no events, no RNG draws — bit-for-bit no-op
    churn_rng_ = Rng(cfg.seed);
    scheduleChurnEvent();
}

void
Machine::scheduleChurnEvent()
{
    if (churn_.events_per_ms <= 0.0)
        return; // disarmed mid-run
    const double mean_gap_ns = 1e6 / churn_.events_per_ms;
    const Nanos gap = std::max<Nanos>(
        1, static_cast<Nanos>(churn_rng_.exponential(mean_gap_ns)));
    if (churn_.until_ns != 0 && sim_.now() + gap >= churn_.until_ns)
        return;
    sim_.scheduleAfter(gap, [this] { churnEvent(); });
}

void
Machine::churnEvent()
{
    if (churn_.events_per_ms <= 0.0)
        return; // disarmed after this event was scheduled
    const unsigned i =
        numNics() <= 1
            ? 0
            : static_cast<unsigned>(churn_rng_.below(numNics()));
    // Skip a NIC still mid-outage; the draw itself stays in the
    // stream so the event schedule is independent of outcome.
    if (nic(i).isUp() && !nodes_[i]->handle->detached()) {
        surpriseUnplugNic(i);
        // The hotplug notification reaches the driver on the NIC's
        // core: orphaned mappings are recovered there (charged work —
        // strict modes eat invalidation time-outs), and the device
        // returns after the configured outage.
        nicCore(i).post([this, i] { removeCleanupNic(i); });
        sim_.scheduleAfter(churn_.down_ns, [this, i] {
            nicCore(i).post([this, i] {
                Status s = replugNic(i);
                RIO_ASSERT(s.isOk(), "replug failed: ", s.toString());
            });
        });
    }
    scheduleChurnEvent();
}

u64
Machine::detachFaultCount() const
{
    u64 n = 0;
    for (const auto &node : nodes_)
        n += node->handle->detachFaults().size();
    for (const auto &handle : extra_handles_)
        n += handle->detachFaults().size();
    return n;
}

dma::DmaHandle &
Machine::attachDeviceHandle(unsigned core_idx, std::vector<u32> ring_sizes)
{
    RIO_ASSERT(core_idx < cores_.size(), "pin to nonexistent core ",
               core_idx);
    des::Core &core = *cores_[core_idx];
    extra_handles_.push_back(ctx_.makeHandle(mode_, nextBdf(),
                                             &core.acct(),
                                             std::move(ring_sizes), &core));
    applyFaultConfig(*extra_handles_.back());
    return *extra_handles_.back();
}

} // namespace rio::sys
