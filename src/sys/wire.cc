#include "sys/wire.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "net/packet.h"

namespace rio::sys {

WirePort::WirePort(des::Simulator &sim, const WireFaultConfig &cfg,
                   rdma::RdmaNic &target, unsigned machine,
                   des::Core &core)
    : sim_(sim), cfg_(cfg), target_(target),
      // One stream per destination machine: draws happen in the
      // deterministic order that machine's lane runs its mail.
      rng_(cfg.seed * 0xBF58476D1CE4E5B9ULL + machine + 1),
      core_(core)
{
    RIO_ASSERT(cfg_.delay_min_ns <= cfg_.delay_max_ns,
               "empty wire delay range");
    RIO_ASSERT(cfg_.port_gbps > 0.0, "port with zero drain rate");
}

bool
WirePort::isDataPlane(rdma::MsgKind kind)
{
    switch (kind) {
    case rdma::MsgKind::kWrite:
    case rdma::MsgKind::kRead:
    case rdma::MsgKind::kReadResp:
    case rdma::MsgKind::kAck:
    case rdma::MsgKind::kNak:
    case rdma::MsgKind::kNakSeq:
    case rdma::MsgKind::kMigPage:
    case rdma::MsgKind::kMigState:
        return true;
    case rdma::MsgKind::kConnect:
    case rdma::MsgKind::kAccept:
    case rdma::MsgKind::kReject:
    case rdma::MsgKind::kClose:
    case rdma::MsgKind::kCloseAck:
    case rdma::MsgKind::kQpError:
        return false;
    }
    return false;
}

rdma::RdmaNic &
WirePort::sink(const rdma::WireMsg &msg)
{
    if (alt_ && msg.dst_nic == alt_->nicId())
        return *alt_;
    return target_;
}

Nanos
WirePort::delayDraw()
{
    return static_cast<Nanos>(
        rng_.range(static_cast<u64>(cfg_.delay_min_ns),
                   static_cast<u64>(cfg_.delay_max_ns)));
}

Nanos
WirePort::serviceNs(const rdma::WireMsg &msg) const
{
    const u64 bits =
        (static_cast<u64>(msg.payload.size()) + net::kRdmaHeaderBytes) * 8;
    return cfg_.port_overhead_ns +
           static_cast<Nanos>(static_cast<double>(bits) / cfg_.port_gbps);
}

void
WirePort::deliver(rdma::WireMsg msg)
{
    if (!isDataPlane(msg.kind)) {
        // Control plane: out-of-band reliable CM, untouched.
        sink(msg).fromWire(msg);
        return;
    }
    // Every knob gated on rate > 0: the inert config draws nothing.
    if (cfg_.drop_rate > 0.0 && rng_.chance(cfg_.drop_rate)) {
        ++stats_.drops;
        return;
    }
    if (cfg_.dup_rate > 0.0 && rng_.chance(cfg_.dup_rate)) {
        ++stats_.dups;
        // The copy re-enters the port later (lane-local reschedule);
        // it skips the fault stage so a duplicate cannot multiply.
        rdma::WireMsg copy = msg;
        sim_.scheduleAt(sim_.now() + delayDraw(),
                        [this, copy = std::move(copy)]() mutable {
                            enqueue(std::move(copy));
                        });
    }
    if (cfg_.delay_rate > 0.0 && rng_.chance(cfg_.delay_rate)) {
        ++stats_.delays;
        sim_.scheduleAt(sim_.now() + delayDraw(),
                        [this, msg = std::move(msg)]() mutable {
                            enqueue(std::move(msg));
                        });
        return;
    }
    enqueue(std::move(msg));
}

void
WirePort::enqueue(rdma::WireMsg msg)
{
    if (cfg_.ingress_cap == 0) {
        ++stats_.delivered;
        sink(msg).fromWire(msg);
        return;
    }
    // Deterministic incast collapse: the port serializes messages at
    // port_gbps; arrivals finding the queue full are tail-dropped.
    if (queued_ >= cfg_.ingress_cap) {
        ++stats_.congestion_drops;
        return;
    }
    ++queued_;
    stats_.peak_queue = std::max<u64>(stats_.peak_queue, queued_);
    const Nanos start = std::max(sim_.now(), busy_until_);
    busy_until_ = start + serviceNs(msg);
    if (msg.trace) {
        // Ingress-queueing child span: arrival → drain through the
        // serializing port, on the destination machine's track.
        obs::Event ev;
        ev.kind = obs::Ev::kIngressQ;
        ev.t = busy_until_;
        ev.dur_ns = busy_until_ - sim_.now();
        ev.trace = msg.trace;
        ev.arg = queued_;
        ev.arg2 = msg.psn;
        core_.emit(ev);
    }
    sim_.scheduleAt(busy_until_, [this, msg = std::move(msg)]() mutable {
        --queued_;
        ++stats_.delivered;
        sink(msg).fromWire(msg);
    });
}

} // namespace rio::sys
