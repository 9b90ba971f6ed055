/**
 * @file
 * Netperf UDP request-response model (§5.1): two full machines under
 * the same protection mode exchange 1-byte messages in a ping-pong.
 * Latency is the inverse of the transaction rate (Table 3); the
 * workload is latency-sensitive, so rIOMMU's end-of-burst
 * invalidation is NOT amortized here — exactly the regime §4
 * discusses.
 *
 * With RrParams::cores = K both machines have K cores x K NICs, each
 * sharing its machine's DmaContext; flow i ping-pongs between
 * initiator NIC i and echoer NIC i.
 */
#ifndef RIO_WORKLOADS_NETPERF_RR_H
#define RIO_WORKLOADS_NETPERF_RR_H

#include <memory>
#include <vector>

#include "dma/fault.h"
#include "dma/protection_mode.h"
#include "nic/profile.h"
#include "virt/platform.h"
#include "workloads/result.h"

namespace rio::des {
class Simulator;
}
namespace rio::sys {
class Machine;
}

namespace rio::workloads {

/** Parameters of a Netperf RR run. */
struct RrParams
{
    u64 measure_transactions = 4000;
    u64 warmup_transactions = 500;
    u32 payload = 1; //!< netperf RR default: one byte each way
    /** Per-message stack cost (UDP path + syscall + wakeup). */
    Cycles per_message_cycles = 2600;
    /**
     * Deterministic DMA fault injection (0 = off), armed on BOTH
     * machines after bring-up. A dropped message would deadlock the
     * ping-pong, so a netperf-style retransmit timer (active only
     * while injecting) re-fires the request when no echo arrives.
     */
    double fault_rate = 0.0;
    u64 fault_seed = 1;
    dma::FaultPolicy fault_policy = dma::FaultPolicy::kRetryRemap;
    /** Surprise-unplug/replug churn on the measured machine
     * (events/ms of virtual time, 0 = off). The retransmit timer
     * restarts the ping-pong after each outage. */
    double churn_per_ms = 0.0;
    u64 churn_seed = 1;
    Nanos churn_down_ns = 20000;
    /**
     * Execution platform of the MEASURED machine (the netserver echo
     * side always runs bare: the paper's question is what the
     * initiator's DMA management costs under virtualization).
     */
    virt::Platform platform = virt::Platform::kBare;

    /** Flows = cores of each machine, one NIC each; the transaction
     * targets apply per flow. */
    unsigned cores = 1;
};

/** Calibrated parameters (Table 3's none RTT anchors the wire). */
RrParams rrParamsFor(const nic::NicProfile &profile);

/**
 * A ping-pong run split into setup and collection (see StreamRun in
 * workloads/stream.h for the pattern). BOTH machines — initiator and
 * echoer — live on the one simulator passed in: they are causally
 * coupled every few microseconds of virtual time, far tighter than
 * any useful lookahead, so a sweep parallelizes across RR pairs, not
 * within one.
 */
class RrRun
{
  public:
    RrRun(des::Simulator &sim, dma::ProtectionMode mode,
          const nic::NicProfile &profile, const RrParams &params,
          const cycles::CostModel &cost = cycles::defaultCostModel());
    ~RrRun();
    RrRun(const RrRun &) = delete;
    RrRun &operator=(const RrRun &) = delete;

    /** Initiator metrics summed over the flows plus its whole-run
     * counters; asserts every flow hit its target. */
    RunResult collect();

    /** Per-flow initiator window metrics, index == core. */
    std::vector<RunResult> collectFlows();

    /** The measured machine and its peer (for post-run audits). */
    sys::Machine &initiator();
    sys::Machine &echoer();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run the ping-pong. Returns the initiating machine's metrics;
 * transactions_per_sec is the RR rate, so RTT in microseconds is
 * 1e6 / transactions_per_sec.
 */
RunResult runNetperfRr(dma::ProtectionMode mode,
                       const nic::NicProfile &profile,
                       const RrParams &params,
                       const cycles::CostModel &cost =
                           cycles::defaultCostModel());

} // namespace rio::workloads

#endif // RIO_WORKLOADS_NETPERF_RR_H
