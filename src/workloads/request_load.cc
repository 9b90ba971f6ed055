#include "workloads/request_load.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "base/logging.h"
#include "net/packet.h"
#include "sys/machine.h"
#include "workloads/flow.h"

namespace rio::workloads {

namespace {

// Packet kinds on this connection.
constexpr u32 kReqPart = 1;  // handshake / leading request packet
constexpr u32 kReqLast = 2;  // final packet of a request
constexpr u32 kRespData = 3; // response segment
constexpr u32 kRespLast = 4; // final response packet
constexpr u32 kAck = 5;      // client ack during response streaming
constexpr u32 kSmallPayload = 4;

} // namespace

RequestLoadParams
apacheParams(u64 response_bytes)
{
    RequestLoadParams p;
    p.concurrency = 32;
    p.request_payload = 100;
    p.response_bytes = response_bytes;
    // ApacheBench opens a connection per request: model the extra
    // handshake/teardown packets both ways.
    p.extra_rx_small = 3;
    p.extra_tx_small = 2;
    // ~250K cycles of HTTP parsing + file serving per request puts
    // the none mode at the paper's ~12K requests/s for 1 KB files on
    // a 3.1 GHz core (§5.2).
    p.per_request_cycles = 235000;
    p.per_tx_packet_cycles = 500;
    p.per_rx_packet_cycles = 300;
    if (response_bytes >= (u64{1} << 20)) {
        p.measure_requests = 600;
        p.warmup_requests = 60;
    } else {
        p.measure_requests = 4000;
        p.warmup_requests = 400;
    }
    return p;
}

RequestLoadParams
memcachedParams()
{
    RequestLoadParams p;
    p.concurrency = 32;
    p.request_payload = 100; // get <64B-key>
    p.response_bytes = 1024; // 1 KB value
    p.extra_rx_small = 0;    // persistent connections
    p.extra_tx_small = 0;
    p.set_fraction = 0.10;   // memslap default 90% get / 10% set
    // Simple LRU-cache logic: an order of magnitude less processing
    // than Apache (§5.2), putting none near ~120K requests/s.
    p.per_request_cycles = 22000;
    p.per_tx_packet_cycles = 450;
    p.per_rx_packet_cycles = 300;
    p.measure_requests = 25000;
    p.warmup_requests = 3000;
    return p;
}

RunResult
runRequestLoad(dma::ProtectionMode mode, const nic::NicProfile &profile,
               const RequestLoadParams &params,
               const cycles::CostModel &cost)
{
    des::Simulator sim;
    sys::Machine m(sim, mode, profile, cost);
    m.bringUp();

    auto &nic = m.nic();
    auto &core = m.core();
    Rng rng(params.seed);

    FlowSnapshot start, end;
    bool started = false;
    bool stopped = false;
    u64 transactions = 0;
    const u64 total_target =
        params.warmup_requests + params.measure_requests;

    // ---- abstract client ---------------------------------------------------
    // Sends the request packets of one slot, staggered on the wire.
    std::function<void(u64)> client_issue = [&](u64 slot) {
        const bool is_set = rng.chance(params.set_fraction);
        const u64 req_bytes =
            is_set ? params.response_bytes : params.request_payload;
        const u64 req_segments = net::segmentsFor(req_bytes);
        const u64 total_pkts = params.extra_rx_small + req_segments;
        for (u64 i = 0; i < total_pkts; ++i) {
            net::Packet pkt;
            if (i < params.extra_rx_small) {
                pkt.payload_bytes = kSmallPayload;
                pkt.kind = kReqPart;
            } else {
                pkt.payload_bytes = static_cast<u32>(std::max<u64>(
                    net::segmentPayload(req_bytes,
                                        i - params.extra_rx_small),
                    1));
                pkt.kind = (i + 1 == total_pkts) ? kReqLast : kReqPart;
            }
            pkt.flow = (slot << 1) | (is_set ? 1 : 0);
            sim.scheduleAfter(profile.wire_ns + i * 150,
                              [&, pkt] { nic.packetFromWire(pkt); });
        }
    };

    // ---- server ------------------------------------------------------------
    std::deque<net::Packet> send_queue;

    std::function<void()> pump = [&] {
        while (!send_queue.empty()) {
            const net::Packet &pkt = send_queue.front();
            if (nic.txSpacePackets(pkt.payload_bytes) == 0)
                return;
            core.acct().charge(cycles::Cat::kProcessing,
                               params.per_tx_packet_cycles);
            Status s = nic.sendPacket(pkt);
            RIO_ASSERT(s.isOk(), "response send failed: ", s.toString());
            send_queue.pop_front();
        }
    };
    nic.setTxSpaceCallback(pump);

    nic.setRxCallback([&](const net::Packet &pkt) {
        core.acct().charge(cycles::Cat::kProcessing,
                           params.per_rx_packet_cycles);
        if (pkt.kind != kReqLast)
            return; // handshake packet or client ack
        // Full request received: run the application, queue the
        // response (data segments + connection-teardown packets).
        core.acct().charge(cycles::Cat::kProcessing,
                           params.per_request_cycles);
        const bool is_set = (pkt.flow & 1) != 0;
        const u64 resp_bytes =
            is_set ? kSmallPayload : params.response_bytes;
        const u64 segments = net::segmentsFor(resp_bytes);
        const u64 total_pkts = segments + params.extra_tx_small;
        for (u64 i = 0; i < total_pkts; ++i) {
            net::Packet out;
            if (i < segments) {
                out.payload_bytes = static_cast<u32>(std::max<u64>(
                    net::segmentPayload(resp_bytes, i), 1));
                out.kind = kRespData;
            } else {
                out.payload_bytes = kSmallPayload;
                out.kind = kRespData;
            }
            if (i + 1 == total_pkts)
                out.kind = kRespLast;
            out.flow = pkt.flow;
            send_queue.push_back(out);
        }
        pump();
    });

    // ---- wire (server -> client) --------------------------------------------
    u64 resp_data_on_wire = 0;
    nic.setWireTxCallback([&](const net::Packet &pkt) {
        if (pkt.kind == kRespData && pkt.payload_bytes >= net::kMss / 2) {
            // Client acks the response stream (matters for 1 MB).
            if (++resp_data_on_wire % params.ack_every == 0 && !stopped) {
                net::Packet ack;
                ack.payload_bytes = kSmallPayload;
                ack.kind = kAck;
                sim.scheduleAfter(2 * profile.wire_ns,
                                  [&, ack] { nic.packetFromWire(ack); });
            }
        }
        if (pkt.kind != kRespLast)
            return;
        ++transactions;
        if (!started && transactions >= params.warmup_requests) {
            started = true;
            start = snapFlow(m, 0);
        }
        if (started && !stopped && transactions >= total_target) {
            stopped = true;
            end = snapFlow(m, 0);
            return;
        }
        if (!stopped) {
            const u64 slot = pkt.flow >> 1;
            sim.scheduleAfter(profile.wire_ns,
                              [&, slot] { client_issue(slot); });
        }
    });

    for (u64 slot = 0; slot < params.concurrency; ++slot)
        client_issue(slot);
    sim.run();
    RIO_ASSERT(stopped, "request load ended early at ", transactions,
               " transactions");

    RunResult r = windowResult(start, end, cost.core_ghz);
    r.nic = statsDelta(end.nic, start.nic);
    r.tx_packets = r.nic.tx_packets;
    r.rx_packets = r.nic.rx_packets;
    r.tx_payload_bytes = r.nic.tx_payload_bytes;
    r.transactions = params.measure_requests;
    r.transactions_per_sec =
        static_cast<double>(r.transactions) / r.duration_s;
    r.throughput_gbps = static_cast<double>(r.tx_payload_bytes) * 8 /
                        r.duration_s / 1e9;
    // Per-packet cost over both directions (the flow drivers'
    // finishWindow divides by tx only).
    r.cycles_per_packet = static_cast<double>(r.acct.total()) /
                          static_cast<double>(std::max<u64>(
                              r.tx_packets + r.rx_packets, 1));
    r.avg_unmap_burst =
        r.nic.unmap_bursts
            ? static_cast<double>(r.nic.unmap_burst_len_sum) /
                  static_cast<double>(r.nic.unmap_bursts)
            : 0.0;
    return r;
}

} // namespace rio::workloads
