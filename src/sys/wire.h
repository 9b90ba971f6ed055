/**
 * @file
 * Hostile-wire model for sys::Cluster: a seeded fault injector
 * (Bernoulli drop / duplicate / bounded extra delay) plus a bounded
 * ingress port per destination machine whose overflow under incast
 * drops messages — congestion without any randomness.
 *
 * Placement and determinism: all state is *receiver-side* and
 * lane-local. The cluster's send hook still ships every message
 * as ParallelEngine mail (Lane::sendTo) at the sender-computed
 * arrival time (>= lookahead, as before); the fault model runs inside
 * the delivered callback on the destination lane, where mail of equal
 * arrival time runs in the engine's fixed (source lane, send order)
 * order. RNG draws
 * therefore happen in an order fixed by simulation content, and
 * re-deliveries (duplicates, delays, queue drains) are plain
 * lane-local scheduleAt events — no second lookahead crossing is
 * ever needed. A cluster runs on one thread; `--threads N` only runs
 * N clusters side by side, byte-for-byte the same as `--threads 1`,
 * the same contract the lossless wire had (DESIGN.md §14).
 *
 * Inertness: every knob is gated on `rate > 0`, so the default
 * config draws zero random numbers and the Cluster bypasses the
 * port entirely (bit-for-bit identical to the lossless wire; pinned
 * by the golden_wire ctest).
 *
 * Scope: faults apply to the RDMA *data plane* only (kWrite/kRead/
 * kReadResp/kAck/kNak/kNakSeq). Connection management (connect/
 * accept/close/error notify) models an out-of-band reliable CM
 * channel, as real RDMA CM runs over its own retransmitting
 * transport — otherwise a dropped handshake would wedge a QP
 * forever in a layer that has no timer to notice.
 */
#ifndef RIO_SYS_WIRE_H
#define RIO_SYS_WIRE_H

#include "base/rng.h"
#include "base/types.h"
#include "des/simulator.h"
#include "rdma/rdma.h"

namespace rio::sys {

/** Knobs of the hostile wire; defaults are fully inert. */
struct WireFaultConfig
{
    double drop_rate = 0.0; //!< Bernoulli loss per data-plane message
    double dup_rate = 0.0;  //!< Bernoulli duplication (copy re-enters
                            //!< the port after a delay draw)
    double delay_rate = 0.0; //!< Bernoulli extra-delay injection

    /** Extra delay drawn uniform in [min, max]. The minimum defaults
     * to the profile wire latency (= the engine lookahead), honoring
     * the "all added latency >= lookahead" contract even though the
     * receiver-side placement would tolerate any value. */
    Nanos delay_min_ns = 600;
    Nanos delay_max_ns = 5000;

    u64 seed = 1;

    /** Bounded ingress port: >0 arms the congestion model. Messages
     * are serialized through the destination port at @p port_gbps
     * (+ fixed per-message overhead); arrivals beyond @p ingress_cap
     * queued messages are tail-dropped. Purely deterministic. */
    u32 ingress_cap = 0;
    double port_gbps = 40.0;
    Nanos port_overhead_ns = 50;

    bool
    armed() const
    {
        return drop_rate > 0.0 || dup_rate > 0.0 || delay_rate > 0.0 ||
               ingress_cap > 0;
    }
};

/** Per-destination-port counters (summed by the bench). */
struct WireStats
{
    u64 delivered = 0;   //!< handed to the NIC (incl. duplicates)
    u64 drops = 0;       //!< Bernoulli losses
    u64 dups = 0;        //!< duplicates injected
    u64 delays = 0;      //!< extra-delay injections
    u64 congestion_drops = 0; //!< ingress-queue tail drops
    u64 peak_queue = 0;  //!< high-water mark of the ingress queue
};

/**
 * One machine's ingress port. Owned by the Cluster, touched only
 * from the destination lane's callbacks.
 */
class WirePort
{
  public:
    /** @p core: the destination machine's core, whose track gets the
     * ingress-queueing spans. */
    WirePort(des::Simulator &sim, const WireFaultConfig &cfg,
             rdma::RdmaNic &target, unsigned machine, des::Core &core);

    WirePort(const WirePort &) = delete;
    WirePort &operator=(const WirePort &) = delete;

    /** Deliver @p msg through the fault model (dst-lane context). */
    void deliver(rdma::WireMsg msg);

    /**
     * Second NIC behind the same port (the machine's hypervisor
     * migration NIC): messages whose dst_nic matches it are routed
     * there, so migration traffic shares — and contends for — the
     * guest port's ingress queue and fault stream.
     */
    void setAltTarget(rdma::RdmaNic *alt) { alt_ = alt; }

    const WireStats &stats() const { return stats_; }

  private:
    static bool isDataPlane(rdma::MsgKind kind);
    rdma::RdmaNic &sink(const rdma::WireMsg &msg);
    Nanos delayDraw();
    Nanos serviceNs(const rdma::WireMsg &msg) const;
    void enqueue(rdma::WireMsg msg);

    des::Simulator &sim_;
    const WireFaultConfig cfg_; //!< stable copy
    rdma::RdmaNic &target_;
    rdma::RdmaNic *alt_ = nullptr;
    Rng rng_;
    des::Core &core_;
    u32 queued_ = 0;
    Nanos busy_until_ = 0;
    WireStats stats_;
};

} // namespace rio::sys

#endif // RIO_SYS_WIRE_H
