#include "workloads/stream.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "des/simulator.h"
#include "net/packet.h"
#include "virt/guest.h"
#include "workloads/flow.h"

namespace rio::workloads {

StreamParams
streamParamsFor(const nic::NicProfile &profile)
{
    StreamParams p;
    if (std::string_view(profile.name) == "brcm") {
        // Calibrated so the none mode lands near the paper's brcm
        // figures: all modes but strict saturate the 10 GbE line and
        // none consumes ~1/3 of a core (§5.2, Table 2 CPU column).
        p.per_packet_cycles = 1000;
        p.per_ack_cycles = 912;
        p.ack_every = 4;
    } else {
        // mlx: C_none = 1516 + 1200/4 = 1,816 cycles per packet,
        // the bottom grid line of Figure 7.
        p.per_packet_cycles = 1516;
        p.per_ack_cycles = 1200;
        p.ack_every = 4;
    }
    return p;
}

/**
 * All the state runStream() used to keep on its stack, plus the
 * machine itself. Members that the machine or the armed callbacks
 * reference (cost model, profile, params) are owned copies declared
 * before the machine: DmaContext keeps a CostModel reference for its
 * whole life, and under a sweep this object is built long before the
 * engine drives the lane — the constructor's arguments may be gone
 * by then.
 */
struct StreamRun::Impl
{
    /** Driver state of one flow (core and NIC @c idx). */
    struct Flow
    {
        unsigned idx = 0;
        nic::Nic *nic = nullptr;
        des::Core *core = nullptr;
        FlowSnapshot start, end;
        bool started = false;
        bool stopped = false;
        bool pump_posted = false;
        u64 data_on_wire = 0;
    };

    StreamParams params;
    nic::NicProfile profile;
    cycles::CostModel cost;

    des::Simulator &sim;
    sys::Machine m;
    // The guest attaches before bring-up: registration hypercalls and
    // Rx-prefill traps are boot cost, outside the snapshot window.
    std::optional<virt::Guest> guest;

    // Sized once in setup(): callbacks keep pointers into it.
    std::vector<Flow> flows;
    unsigned stopped_flows = 0;
    u64 total_target = 0;
    u64 message_segments = 1;

    Impl(des::Simulator &s, dma::ProtectionMode mode,
         const nic::NicProfile &prof, const StreamParams &p,
         const cycles::CostModel &c)
        : params(p), profile(prof), cost(c), sim(s),
          m(sim, mode, params.cores, cost)
    {
        for (unsigned i = 0; i < params.cores; ++i)
            m.attachNic(profile, i, params.trace);
    }

    void
    postPump(Flow &f)
    {
        if (f.pump_posted || f.stopped)
            return;
        f.pump_posted = true;
        f.core->post([this, &f] { pump(f); });
    }

    // Application side: saturate the socket. Netperf writes one
    // message (16 KB -> ~12 MSS segments) per send call; processing
    // one message per core work-item lets Rx (ACK) interrupt handling
    // interleave with transmission at realistic granularity — which
    // is what keeps resetting the stock allocator's cached node
    // between Tx allocation runs (§3.2).
    void
    pump(Flow &f)
    {
        f.pump_posted = false;
        if (f.stopped)
            return;
        nic::Nic &nic = *f.nic;
        u64 sent = 0;
        while (sent < message_segments &&
               nic.txSpacePackets(net::kMss) > 0) {
            f.core->acct().charge(cycles::Cat::kProcessing,
                                  params.per_packet_cycles);
            net::Packet pkt;
            pkt.payload_bytes = net::kMss;
            pkt.kind = 1;
            Status s = nic.sendPacket(pkt);
            RIO_ASSERT(s.isOk(), "sendPacket: ", s.toString());
            ++sent;
        }
        if (sent > 0 && nic.txSpacePackets(net::kMss) > 0)
            postPump(f); // next message; Rx handlers slot in between
    }

    void
    onWireTx(Flow &f)
    {
        nic::Nic &nic = *f.nic;
        ++f.data_on_wire;
        if (!f.started && nic.stats().tx_packets >= params.warmup_packets) {
            f.started = true;
            f.start = snapFlow(m, f.idx);
        }
        if (f.started && !f.stopped &&
            nic.stats().tx_packets >= total_target) {
            f.stopped = true;
            f.end = snapFlow(m, f.idx);
            if (++stopped_flows == flows.size() && params.churn_per_ms > 0)
                m.disarmLifecycleChurn(); // let the event queue drain
        }
        if (!f.stopped && f.data_on_wire % params.ack_every == 0) {
            sim.scheduleAfter(2 * profile.wire_ns, [this, &nic] {
                net::Packet ack;
                ack.payload_bytes = params.ack_payload;
                ack.kind = 2;
                ack.flow = 0; // one TCP connection -> one RSS ring
                nic.packetFromWire(ack);
            });
        }
    }

    void
    setup()
    {
        if (params.platform != virt::Platform::kBare) {
            guest.emplace(m, params.platform);
            if (params.huge_stage2)
                guest->setHugeStage2(true);
        }
        m.bringUp();
        armFaults(m, params, params.fault_seed);
        armChurn(m, params);

        total_target = params.warmup_packets + params.measure_packets;
        message_segments =
            std::max<u64>(net::segmentsFor(params.message_bytes), 1);

        flows.resize(params.cores);
        for (unsigned i = 0; i < params.cores; ++i) {
            Flow &f = flows[i];
            f.idx = i;
            f.nic = &m.nic(i);
            f.core = &m.nicCore(i);
            f.nic->setTxSpaceCallback([this, &f] { postPump(f); });

            // ACK receive path: protocol processing per ACK; the
            // buffer recycling (unmap + map) was already charged by
            // the driver.
            f.nic->setRxCallback([this, &f](const net::Packet &) {
                f.core->acct().charge(cycles::Cat::kProcessing,
                                      params.per_ack_cycles);
            });

            // Remote sink: consumes data, returns an ACK every
            // ack_every packets after a round-trip wire delay.
            f.nic->setWireTxCallback(
                [this, &f](const net::Packet &) { onWireTx(f); });
        }
        for (Flow &f : flows)
            postPump(f);
    }

    std::vector<RunResult>
    collectFlows()
    {
        std::vector<RunResult> out;
        for (const Flow &f : flows) {
            RIO_ASSERT(f.stopped, "stream flow ", f.idx,
                       " ended before reaching its target");
            RunResult r = windowResult(f.start, f.end, cost.core_ghz);
            r.nic = statsDelta(f.end.nic, f.start.nic);
            r.tx_packets = r.nic.tx_packets;
            r.rx_packets = r.nic.rx_packets;
            r.tx_payload_bytes = r.nic.tx_payload_bytes;
            r.transactions = r.nic.tx_packets;
            r.throughput_gbps = static_cast<double>(r.tx_payload_bytes) *
                                8 / r.duration_s / 1e9;
            r.transactions_per_sec =
                static_cast<double>(r.transactions) / r.duration_s;
            finishWindow(r);
            out.push_back(r);
        }
        return out;
    }

    RunResult
    collect()
    {
        RunResult r = sumFlows(collectFlows());
        addMachineTotals(r, m);
        // One of the two is always zero: modes use either the radix
        // IOMMU or the rIOMMU, never both.
        r.walks = m.ctx().iommu().walkCount() +
                  m.ctx().riommu().riotlb().stats().walks;
        r.walk_mem_refs = m.ctx().iommu().walkMemRefs() +
                          m.ctx().riommu().walkMemRefs();
        return r;
    }
};

StreamRun::StreamRun(des::Simulator &sim, dma::ProtectionMode mode,
                     const nic::NicProfile &profile,
                     const StreamParams &params,
                     const cycles::CostModel &cost)
    : impl_(std::make_unique<Impl>(sim, mode, profile, params, cost))
{
    impl_->setup();
}

StreamRun::~StreamRun() = default;

RunResult
StreamRun::collect()
{
    return impl_->collect();
}

std::vector<RunResult>
StreamRun::collectFlows()
{
    return impl_->collectFlows();
}

sys::Machine &
StreamRun::machine()
{
    return impl_->m;
}

RunResult
runStream(dma::ProtectionMode mode, const nic::NicProfile &profile,
          const StreamParams &params, const cycles::CostModel &cost)
{
    des::Simulator sim;
    StreamRun run(sim, mode, profile, params, cost);
    sim.run();
    RunResult r = run.collect();
    publishRow({&run.machine()});
    return r;
}

} // namespace rio::workloads
