#include "rdma/rdma.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"
#include "obs/flight.h"
#include "obs/trace_ctx.h"
#include "riommu/structures.h"

namespace rio::rdma {

static_assert(cycles::kNumCats <= obs::kSloMaxCats,
              "OpRecord cat array cannot hold every cycles::Cat");

const RdmaProfile &
rnicProfile()
{
    static const RdmaProfile p;
    return p;
}

std::vector<u32>
ringSizes(const RdmaProfile &profile, u32 max_qps)
{
    RIO_ASSERT(max_qps > 0, "NIC with zero QPs");
    RIO_ASSERT(1 + 2ull * max_qps <= riommu::kMaxRingsPerDevice,
               "QP fabric exceeds rDEVICE capacity");
    std::vector<u32> sizes;
    sizes.reserve(1 + 2 * max_qps);
    sizes.push_back(4); // static: the CQ mapping
    for (u32 q = 0; q < max_qps; ++q) {
        sizes.push_back(4); // ctrl: WQE ring + MR, connect-lived
        // Data ring: twice the window so mildly out-of-order
        // completions (a locally-faulted young op finishing before an
        // in-flight older one) never trip the sequential tail check.
        sizes.push_back(2 * profile.sq_depth);
    }
    return sizes;
}

RdmaNic::RdmaNic(des::Simulator &sim, des::Core &core,
                 mem::PhysicalMemory &pm, dma::DmaHandle &handle,
                 const RdmaProfile &profile, u32 max_qps, u32 nic_id)
    : sim_(sim), core_(core), pm_(pm), handle_(handle),
      profile_(profile), max_qps_(max_qps), nic_id_(nic_id)
{
    RIO_ASSERT(profile_.sq_depth > 0, "zero send-queue depth");
    qps_.resize(max_qps_);
    qp_poll_stamp_.assign(max_qps_, 0);
    free_slots_.reserve(max_qps_);
    for (u32 q = max_qps_; q > 0; --q)
        free_slots_.push_back(q - 1);
}

void
RdmaNic::charge(Cycles c)
{
    core_.acct().charge(cycles::Cat::kProcessing, c);
}

std::array<u64, obs::kSloMaxCats>
RdmaNic::sloSnapshot() const
{
    std::array<u64, obs::kSloMaxCats> out{};
    for (unsigned c = 0; c < cycles::kNumCats; ++c)
        out[c] = core_.acct().get(static_cast<cycles::Cat>(c));
    return out;
}

Nanos
RdmaNic::wireArrival(Nanos from, u32 payload_bytes) const
{
    // RoCE framing, not the TCP stack net::wireTimeNs assumes.
    const double ser_ns =
        static_cast<double>((payload_bytes + net::kRdmaHeaderBytes) * 8) /
        profile_.gbps;
    return from + profile_.wire_ns + static_cast<Nanos>(ser_ns);
}

void
RdmaNic::sendAt(u32 dst_nic, Nanos when, WireMsg msg)
{
    RIO_ASSERT(send_, "RdmaNic wire not connected");
    msg.src_nic = nic_id_;
    msg.dst_nic = dst_nic;
    if (msg.trace) {
        // Wire-transit child span of the op: [send, arrival] on the
        // sender's track (propagation + serialization; hostile-wire
        // extra delay shows up as ingress queueing at the far end).
        emitEvent(obs::Ev::kWireTx, when, msg.trace, msg.len, msg.psn,
                  wireArrival(0, static_cast<u32>(msg.payload.size())));
    }
    send_(dst_nic, when, std::move(msg));
}

void
RdmaNic::emitEvent(obs::Ev kind, Nanos t, u64 trace, u64 arg, u64 arg2,
                   Nanos dur_ns)
{
    core_.emitInPlace([&](obs::Event &ev) {
        ev.kind = kind;
        ev.t = t;
        ev.dur_ns = dur_ns;
        ev.trace = trace;
        ev.arg = arg;
        ev.arg2 = arg2;
    });
}

void
RdmaNic::bringUp()
{
    if (cq_mapped_)
        return;
    cq_pa_ = pm_.allocContiguous(
        static_cast<u64>(profile_.cq_entries) * kCqeBytes);
    auto m = handle_.map(/*rid=*/0, cq_pa_,
                         profile_.cq_entries * kCqeBytes,
                         iommu::DmaDir::kFromDevice);
    RIO_ASSERT(m.isOk(), "CQ registration failed");
    cq_map_ = m.value();
    cq_mapped_ = true;
}

void
RdmaNic::shutDown()
{
    if (!cq_mapped_)
        return;
    handle_.unmap(cq_map_, /*end_of_burst=*/true);
    cq_mapped_ = false;
}

void
RdmaNic::allocQpBuffers(Qp &q)
{
    if (q.bufs_allocated)
        return;
    q.sq_pa = pm_.allocContiguous(
        static_cast<u64>(profile_.sq_depth) * kWqeBytes);
    q.mr_pa = pm_.allocContiguous(profile_.max_req_bytes);
    q.src_pa = pm_.allocContiguous(profile_.max_req_bytes);
    q.rd_pa = pm_.allocContiguous(profile_.max_req_bytes);
    q.ops.resize(profile_.sq_depth);
    q.bufs_allocated = true;
}

Status
RdmaNic::registerQp(u32 idx)
{
    Qp &q = qps_[idx];
    allocQpBuffers(q);
    const u16 rid = ctrlRid(idx);
    auto wm = handle_.map(rid, q.sq_pa, profile_.sq_depth * kWqeBytes,
                          iommu::DmaDir::kToDevice);
    if (!wm.isOk())
        return wm.status();
    auto mm = handle_.map(rid, q.mr_pa, profile_.max_req_bytes,
                          iommu::DmaDir::kBidir);
    if (!mm.isOk()) {
        handle_.unmap(wm.value(), /*end_of_burst=*/true);
        return mm.status();
    }
    q.wqe_map = wm.value();
    q.mr_map = mm.value();
    return Status::ok();
}

void
RdmaNic::unregisterQp(u32 idx)
{
    // FIFO order within the control ring (WQE then MR); the MR unmap
    // closes the teardown burst, so a whole QP close costs one
    // explicit invalidation under rIOMMU.
    Qp &q = qps_[idx];
    handle_.unmap(q.wqe_map, /*end_of_burst=*/false);
    handle_.unmap(q.mr_map, /*end_of_burst=*/true);
}

void
RdmaNic::freeQp(u32 idx)
{
    Qp &q = qps_[idx];
    const bool was_established = q.state == QpState::kEstablished ||
                                 q.state == QpState::kClosing ||
                                 q.state == QpState::kCloseWait ||
                                 q.state == QpState::kError;
    disarmRto(idx);
    q.state = QpState::kFree;
    q.peer_nic = q.peer_qp = 0;
    q.remote_rkey = 0;
    q.sq_tail = 0;
    q.inflight = 0;
    q.on_connected = nullptr;
    q.on_closed = nullptr;
    q.next_psn = q.epsn = 0;
    q.nak_armed = false;
    q.retries = q.backoff = 0;
    for (Op &op : q.ops)
        op = Op{};
    if (was_established && established_ > 0)
        --established_;
    free_slots_.push_back(idx);
}

Result<u32>
RdmaNic::connect(u32 peer_nic, ConnectCb cb)
{
    if (free_slots_.empty())
        return Status(ErrorCode::kResourceExhausted, "no free QP");
    const u32 idx = free_slots_.back();
    free_slots_.pop_back();
    Qp &q = qps_[idx];
    Status reg = registerQp(idx);
    if (!reg) {
        free_slots_.push_back(idx);
        return reg;
    }
    charge(profile_.connect_cycles);
    q.state = QpState::kConnecting;
    q.peer_nic = peer_nic;
    q.on_connected = std::move(cb);
    WireMsg msg;
    msg.kind = MsgKind::kConnect;
    msg.src_qp = idx;
    msg.rkey = q.mr_map.device_addr;
    sendAt(peer_nic, wireArrival(core_.virtualNow(), 0), std::move(msg));
    return idx;
}

void
RdmaNic::onConnect(const WireMsg &msg)
{
    // Passive open: driver work on our core.
    const u32 peer_nic = msg.src_nic;
    const u32 peer_qp = msg.src_qp;
    const u64 peer_rkey = msg.rkey;
    core_.post([this, peer_nic, peer_qp, peer_rkey] {
        WireMsg reply;
        reply.dst_qp = peer_qp;
        if (free_slots_.empty()) {
            reply.kind = MsgKind::kReject;
            sendAt(peer_nic, wireArrival(core_.virtualNow(), 0),
                   std::move(reply));
            return;
        }
        const u32 idx = free_slots_.back();
        free_slots_.pop_back();
        Qp &q = qps_[idx];
        Status reg = registerQp(idx);
        if (!reg) {
            free_slots_.push_back(idx);
            reply.kind = MsgKind::kReject;
            sendAt(peer_nic, wireArrival(core_.virtualNow(), 0),
                   std::move(reply));
            return;
        }
        charge(profile_.connect_cycles);
        q.state = QpState::kEstablished;
        q.peer_nic = peer_nic;
        q.peer_qp = peer_qp;
        q.remote_rkey = peer_rkey;
        ++established_;
        ++stats_.connects;
        reply.kind = MsgKind::kAccept;
        reply.src_qp = idx;
        reply.rkey = q.mr_map.device_addr;
        sendAt(peer_nic, wireArrival(core_.virtualNow(), 0),
               std::move(reply));
    });
}

void
RdmaNic::onAcceptReject(const WireMsg &msg)
{
    const WireMsg m = msg;
    core_.post([this, m] {
        Qp &q = qps_[m.dst_qp];
        if (q.state != QpState::kConnecting)
            return; // raced with a force-quiesce
        ConnectCb cb = std::move(q.on_connected);
        q.on_connected = nullptr;
        if (m.kind == MsgKind::kReject) {
            unregisterQp(m.dst_qp);
            freeQp(m.dst_qp);
            if (cb)
                cb(m.dst_qp, false);
            return;
        }
        q.state = QpState::kEstablished;
        q.peer_qp = m.src_qp;
        q.remote_rkey = m.rkey;
        ++established_;
        ++stats_.connects;
        if (cb)
            cb(m.dst_qp, true);
    });
}

bool
RdmaNic::postWrite(u32 qp, u32 bytes, u64 roffset)
{
    return post(qp, MsgKind::kWrite, qps_[qp].src_pa, bytes, roffset);
}

bool
RdmaNic::postRead(u32 qp, u32 bytes, u64 roffset)
{
    return post(qp, MsgKind::kRead, qps_[qp].rd_pa, bytes, roffset);
}

bool
RdmaNic::postMigPage(u32 qp, PhysAddr src_pa, u32 bytes, u64 gfn)
{
    return post(qp, MsgKind::kMigPage, src_pa, bytes, gfn);
}

bool
RdmaNic::postMigState(u32 qp, PhysAddr src_pa, u32 bytes, u64 tag)
{
    return post(qp, MsgKind::kMigState, src_pa, bytes, tag);
}

bool
RdmaNic::post(u32 qp, MsgKind kind, PhysAddr pa, u32 bytes, u64 roffset)
{
    // A migration chunk's source is an arbitrary physical page (guest
    // RAM or a serialized-state scratch buffer), so its ceiling is a
    // whole page; the other verbs are bounded by the MR size.
    const bool mig = kind == MsgKind::kMigPage || kind == MsgKind::kMigState;
    const u32 ceiling = mig ? kMigChunkBytes : profile_.max_req_bytes;
    Qp &q = qps_[qp];
    // The SQ is a ring: under loss, acks (and error flushes) can settle
    // a young WQE before an older retransmitting one, so a freed credit
    // does not imply the tail slot drained. Posting over a live WQE
    // would orphan its op — block instead.
    if (q.state != QpState::kEstablished ||
        q.inflight >= profile_.sq_depth || bytes == 0 || bytes > ceiling ||
        q.ops[q.sq_tail].active) {
        ++stats_.posts_blocked;
        return false;
    }
    const bool slo = obs::sloRecording();
    std::array<u64, obs::kSloMaxCats> cat0{};
    if (slo)
        cat0 = sloSnapshot();
    // Op injection: the distributed-trace identity is allocated here,
    // so the map below — and every downstream hop — attributes to it.
    const u64 trace = core_.nextTraceId();
    obs::TraceScope tscope(trace);
    charge(profile_.post_cycles);
    auto m = handle_.map(dataRid(qp), pa, bytes,
                         kind == MsgKind::kRead ? iommu::DmaDir::kFromDevice
                                                : iommu::DmaDir::kToDevice);
    if (!m.isOk()) {
        ++stats_.posts_blocked;
        return false;
    }
    const u32 w = q.sq_tail;
    q.sq_tail = (q.sq_tail + 1) % profile_.sq_depth;
    Op op;
    op.active = true;
    op.kind = kind;
    op.bytes = bytes;
    op.psn = q.next_psn++;
    op.roffset = roffset;
    op.post_ns = core_.virtualNow();
    op.trace = trace;
    op.map = m.value();
    q.ops[w] = op;
    // The WQE the device will fetch: opcode (1 write, 2 read, 3 mig
    // page, 4 mig state) and length in word 0, the data-ring device
    // address of the buffer in word 1.
    const u64 opcode = kind == MsgKind::kWrite     ? 1
                       : kind == MsgKind::kRead    ? 2
                       : kind == MsgKind::kMigPage ? 3
                                                   : 4;
    const PhysAddr wqe = q.sq_pa + static_cast<u64>(w) * kWqeBytes;
    pm_.write64(wqe, (opcode << 32) | bytes);
    pm_.write64(wqe + 8, m.value().device_addr);
    ++q.inflight;
    ++inflight_total_;
    ++stats_.posts;
    const u64 key = (static_cast<u64>(qp) << 32) | w;
    if (slo) {
        auto delta = sloSnapshot();
        for (size_t c = 0; c < obs::kSloMaxCats; ++c)
            delta[c] -= cat0[c];
        slo_post_cats_[key] = delta;
    }
    emitEvent(obs::Ev::kOpPost, core_.virtualNow(), trace, bytes, key);
    sim_.scheduleAt(core_.virtualNow() + profile_.doorbell_ns,
                    [this, qp, w] { deviceFetchWqe(qp, w); });
    return true;
}

void
RdmaNic::deviceFetchWqe(u32 qp, u32 w)
{
    Qp &q = qps_[qp];
    Op &op = q.ops[w];
    if (!op.active || op.acked)
        return; // force-quiesced or flushed under the doorbell
    if (q.state == QpState::kError)
        return; // error drain: no new transmissions
    // Fetch (and any replay of it) runs on behalf of the posted op:
    // re-entering the scope here means retransmissions re-attach to
    // the ORIGINAL trace instead of minting a new one.
    obs::TraceScope tscope(op.trace);
    // Device side: fetch the WQE through our own translation (the
    // control-ring mapping), then the payload of every verb but a
    // read (data ring).
    u8 wqe_buf[kWqeBytes];
    Status s = handle_.deviceRead(
        q.wqe_map.device_addr + static_cast<u64>(w) * kWqeBytes, wqe_buf,
        kWqeBytes);
    WireMsg msg;
    msg.kind = op.kind;
    msg.src_qp = qp;
    msg.dst_qp = q.peer_qp;
    msg.wqe = w;
    msg.psn = op.psn;
    msg.rkey = q.remote_rkey;
    msg.offset = op.roffset;
    msg.len = op.bytes;
    msg.trace = op.trace;
    if (s && op.kind != MsgKind::kRead) {
        msg.payload.resize(op.bytes);
        s = handle_.deviceRead(op.map.device_addr, msg.payload.data(),
                               op.bytes);
    }
    if (!s) {
        ++stats_.local_fault_drops;
        completeOp(qp, w, false);
        return;
    }
    op.sent = true;
    op.last_tx = sim_.now();
    const Nanos arrival =
        wireArrival(sim_.now(), static_cast<u32>(msg.payload.size()));
    sendAt(q.peer_nic, arrival, std::move(msg));
    armRto(qp);
}

void
RdmaNic::onDataAccess(const WireMsg &msg)
{
    // Target side of every verb: pure device work — the access
    // translates through OUR handle (a migration chunk through the
    // sink's own mapping), costing zero local driver cycles. This is
    // the VA-RDMA property under test, whichever verb posted the op.
    WireMsg reply;
    reply.dst_qp = msg.src_qp;
    reply.wqe = msg.wqe;
    reply.psn = msg.psn;
    reply.trace = msg.trace;
    bool late = false;
    if (rel_.enabled) {
        Qp *rq = msg.dst_qp < max_qps_ ? &qps_[msg.dst_qp] : nullptr;
        if (rq && rq->state == QpState::kError)
            return; // dead responder; the kQpError notify explains it
        const bool live =
            rq &&
            (rq->state == QpState::kEstablished ||
             rq->state == QpState::kClosing) &&
            rq->mr_map.device_addr == msg.rkey;
        if (!live) {
            // Late arrival: the QP is gone (or its slot was recycled
            // under a new MR). No PSN state survives to consult — the
            // access goes to the IOMMU anyway, which is precisely the
            // VA-RDMA last-line-of-defense moment: a revoked mapping
            // must fault, a stale deferred window lets it land.
            late = true;
            ++stats_.late_arrivals;
            if (migrated_away_)
                ++stats_.migrated_away_arrivals;
        } else if (msg.psn == rq->epsn) {
            ++rq->epsn;
            rq->nak_armed = false;
        } else if (msg.psn > rq->epsn) {
            // Gap: a predecessor was lost. Go-back-N keeps no
            // out-of-order buffer — drop the packet and NAK once per
            // episode with the expected PSN.
            if (!rq->nak_armed) {
                rq->nak_armed = true;
                WireMsg nak;
                nak.kind = MsgKind::kNakSeq;
                nak.dst_qp = msg.src_qp;
                nak.psn = rq->epsn;
                nak.trace = msg.trace;
                sendAt(msg.src_nic, wireArrival(sim_.now(), 0),
                       std::move(nak));
            }
            return;
        }
        // A PSN below epsn is a duplicate (retransmit overlap or wire
        // dup). Every verb is idempotent, so hardware replays the DMA
        // and re-acknowledges under the duplicate's own PSN.
    }
    Status s;
    if (msg.kind == MsgKind::kRead) {
        reply.payload.resize(msg.len);
        s = handle_.deviceRead(msg.rkey + msg.offset, reply.payload.data(),
                               msg.len);
    } else if (msg.kind == MsgKind::kWrite) {
        s = handle_.deviceWrite(msg.rkey + msg.offset, msg.payload.data(),
                                msg.len);
    } else {
        // Migration chunk: the hypervisor sink applies it (a page
        // into guest RAM through THIS machine's IOMMU, or a state
        // blob). A chunk that outlived its stream — or arrived
        // where no migration is in progress — NAKs.
        s = mig_sink_ ? mig_sink_(msg)
                      : Status(ErrorCode::kInvalidArgument,
                               "no migration sink");
    }
    if (late) {
        if (s.isOk()) {
            ++stats_.late_landed;
            if (migrated_away_)
                ++stats_.migrated_away_landed;
        } else {
            ++stats_.late_faulted;
            if (migrated_away_)
                ++stats_.migrated_away_faulted;
        }
    }
    // Target-IOMMU walk instant: the moment the remote access
    // translated (or faulted) on THIS machine's track, stitched into
    // the initiator's op by the carried trace id.
    if (msg.trace)
        emitEvent(obs::Ev::kTargetWalk, sim_.now(), msg.trace, msg.len,
                  (static_cast<u64>(late) << 1) | (s.isOk() ? 1 : 0));
    reply.ok = s.isOk();
    if (!reply.ok) {
        ++stats_.remote_faults;
        reply.payload.clear();
    }
    if (msg.kind == MsgKind::kRead) {
        reply.kind = MsgKind::kReadResp;
        reply.len = msg.len;
    } else {
        reply.kind = reply.ok ? MsgKind::kAck : MsgKind::kNak;
    }
    const Nanos arrival =
        wireArrival(sim_.now(), static_cast<u32>(reply.payload.size()));
    sendAt(msg.src_nic, arrival, std::move(reply));
}

void
RdmaNic::onCompletionMsg(const WireMsg &msg)
{
    Qp &q = qps_[msg.dst_qp];
    Op &op = q.ops[msg.wqe];
    if (!op.active)
        return; // force-quiesced while the reply was in flight
    if (rel_.enabled) {
        if (q.state == QpState::kError)
            return; // flushed: an error CQE already covers this op
        if (!op.sent || op.acked || op.psn != msg.psn) {
            // Duplicate ack, or an ack for a previous occupant of
            // this WQE slot — the PSN check makes slot reuse safe
            // under arbitrary wire delays.
            return;
        }
        // Forward progress: reset the go-back-N budget and backoff.
        q.retries = 0;
        q.backoff = 0;
    }
    bool ok = msg.ok;
    if (msg.kind == MsgKind::kReadResp && ok) {
        // Land the read payload in the local buffer — again through
        // our own translation (the op's data-ring mapping).
        Status s = handle_.deviceWrite(op.map.device_addr,
                                       msg.payload.data(), msg.len);
        if (!s) {
            ++stats_.local_fault_drops;
            ok = false;
        }
    }
    completeOp(msg.dst_qp, msg.wqe, ok);
}

void
RdmaNic::completeOp(u32 qp, u32 w, bool ok)
{
    // The op is now settled: whatever else the wire delivers for this
    // PSN is stale, and the retransmit machinery must leave it alone.
    qps_[qp].ops[w].acked = true;
    // Device writes the CQE through the static-ring mapping, then
    // arms the moderated completion interrupt.
    const PhysAddr slot_off = static_cast<u64>(cq_tail_) * kCqeBytes;
    u8 cqe[kCqeBytes] = {};
    const u64 word0 = (static_cast<u64>(qp) << 32) | w;
    std::memcpy(cqe, &word0, 8);
    cqe[8] = ok ? 1 : 0;
    handle_.deviceWrite(cq_map_.device_addr + slot_off, cqe, kCqeBytes);
    cq_tail_ = (cq_tail_ + 1) % profile_.cq_entries;
    pending_cqes_.push_back(PendingCqe{qp, w, ok});
    if (!irq_scheduled_) {
        irq_scheduled_ = true;
        sim_.scheduleAt(sim_.now() + profile_.completion_irq_ns, [this] {
            irq_scheduled_ = false;
            core_.post([this] { pollCq(); });
        });
    }
}

void
RdmaNic::pollCq()
{
    // The batch is what queued before this poll. on_completion_ may
    // post new work whose CQEs land in pending_cqes_ during the loop;
    // they wait for the next poll. Both buffers keep their capacity.
    std::vector<PendingCqe> &batch = poll_batch_;
    batch.clear();
    batch.swap(pending_cqes_);
    if (batch.empty())
        return;
    // end_of_burst goes to the LAST completion of each QP in the
    // batch: under rIOMMU that is the one explicit per-ring
    // invalidation the whole burst pays. At low connection counts a
    // batch concentrates on few rings (strong amortization); at 16K
    // connections nearly every completion is its ring's last — the
    // erosion the cluster bench quantifies. A QP's stamp marks "seen
    // later in this batch" (one stamp per poll, no per-poll set).
    ++poll_stamp_;
    for (size_t i = batch.size(); i > 0; --i) {
        PendingCqe &c = batch[i - 1];
        c.last = qp_poll_stamp_[c.qp] != poll_stamp_;
        qp_poll_stamp_[c.qp] = poll_stamp_;
    }
    drained_.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
        const PendingCqe &c = batch[i];
        Qp &q = qps_[c.qp];
        Op &op = q.ops[c.wqe];
        if (!op.active)
            continue;
        // Terminal CQE: the op's trace closes here. Save identity
        // before the slot reset below.
        const u64 trace = op.trace;
        const u32 rtx = op.rtx;
        obs::TraceScope tscope(trace);
        const bool slo = obs::sloRecording();
        std::array<u64, obs::kSloMaxCats> cat0{};
        if (slo)
            cat0 = sloSnapshot();
        charge(profile_.poll_cycles);
        handle_.unmap(op.map, /*end_of_burst=*/c.last);
        if (c.last)
            ++stats_.eob_unmaps;
        const Nanos latency = sim_.now() - op.post_ns;
        op_latencies_.push_back(latency);
        op = Op{};
        --q.inflight;
        --inflight_total_;
        ++stats_.completions;
        if (!c.ok)
            ++stats_.comp_errors;
        if (slo) {
            // Per-op breakdown: poll-path delta (this iteration) plus
            // the post-path delta banked at injection.
            obs::OpRecord rec;
            rec.latency_ns = latency;
            rec.retransmits = rtx;
            rec.error = !c.ok;
            rec.cat_cycles = sloSnapshot();
            for (size_t ci = 0; ci < obs::kSloMaxCats; ++ci)
                rec.cat_cycles[ci] -= cat0[ci];
            const u64 key = (static_cast<u64>(c.qp) << 32) | c.wqe;
            auto it = slo_post_cats_.find(key);
            if (it != slo_post_cats_.end()) {
                for (size_t ci = 0; ci < obs::kSloMaxCats; ++ci)
                    rec.cat_cycles[ci] += it->second[ci];
                slo_post_cats_.erase(it);
            }
            slo_recorder_.record(rec);
        }
        if (trace)
            emitEvent(obs::Ev::kOpCqe, core_.virtualNow(), trace, latency,
                      (static_cast<u64>(rtx) << 1) | (c.ok ? 1 : 0));
        if (on_completion_)
            on_completion_(c.qp, c.wqe, c.ok);
        if ((q.state == QpState::kClosing ||
             q.state == QpState::kError) &&
            q.inflight == 0)
            drained_.push_back(c.qp);
    }
    for (u32 qp : drained_) {
        if (qps_[qp].inflight != 0)
            continue;
        if (qps_[qp].state == QpState::kClosing)
            finishClose(qp);
        else if (qps_[qp].state == QpState::kError)
            finishErrorRecovery(qp);
    }
}

void
RdmaNic::armRto(u32 qp)
{
    // Lazy single timer per QP: armed on the first unacked
    // transmission, re-aimed (not cancelled) when acks make progress,
    // and dead whenever the window is fully acked — zero events at
    // loss 0 would be wrong (the timer must exist to notice a loss),
    // but a fully-acked window keeps no timer alive, so the
    // simulation still drains. Device-side hardware state: uncharged.
    if (!rel_.enabled)
        return;
    Qp &q = qps_[qp];
    if (q.rto_armed)
        return;
    const Nanos rto = rel_.rto_ns
                      << std::min(q.backoff, rel_.rto_max_backoff);
    q.rto_armed = true;
    q.rto_event =
        sim_.scheduleAt(sim_.now() + rto, [this, qp] { onRto(qp); });
}

void
RdmaNic::disarmRto(u32 qp)
{
    Qp &q = qps_[qp];
    if (!q.rto_armed)
        return;
    sim_.cancel(q.rto_event);
    q.rto_armed = false;
}

bool
RdmaNic::hasUnacked(const Qp &q, Nanos *oldest_tx) const
{
    bool any = false;
    Nanos oldest = 0;
    for (const Op &op : q.ops) {
        if (!op.active || !op.sent || op.acked)
            continue;
        if (!any || op.last_tx < oldest)
            oldest = op.last_tx;
        any = true;
    }
    if (oldest_tx)
        *oldest_tx = oldest;
    return any;
}

void
RdmaNic::onRto(u32 qp)
{
    Qp &q = qps_[qp];
    q.rto_armed = false;
    if (q.state != QpState::kEstablished && q.state != QpState::kClosing)
        return;
    Nanos oldest = 0;
    if (!hasUnacked(q, &oldest))
        return; // window fully acked; re-armed by the next send
    const Nanos rto = rel_.rto_ns
                      << std::min(q.backoff, rel_.rto_max_backoff);
    if (sim_.now() < oldest + rto) {
        // Acks made progress since arming: re-aim at the oldest
        // in-flight transmission instead of firing.
        q.rto_armed = true;
        q.rto_event = sim_.scheduleAt(oldest + rto,
                                      [this, qp] { onRto(qp); });
        return;
    }
    ++stats_.rto_fires;
    ++q.retries;
    ++q.backoff;
    if (q.retries > rel_.retry_limit) {
        enterError(qp, "retry budget exhausted", /*notify_peer=*/true);
        return;
    }
    retransmit(qp);
    armRto(qp);
}

void
RdmaNic::retransmit(u32 qp)
{
    // Go-back-N: replay every transmitted-unacked op in PSN order
    // (the responder executes in sequence; duplicates replay
    // idempotently). Ops still waiting on their first doorbell keep
    // higher PSNs and go out behind these, preserving order.
    Qp &q = qps_[qp];
    std::vector<std::pair<u32, u32>> order; // (psn, slot)
    for (u32 w = 0; w < q.ops.size(); ++w) {
        const Op &op = q.ops[w];
        if (op.active && op.sent && !op.acked)
            order.emplace_back(op.psn, w);
    }
    std::sort(order.begin(), order.end());
    for (const auto &[psn, w] : order) {
        Op &op = q.ops[w];
        ++op.rtx;
        ++stats_.retransmits;
        // Retransmit episode: a child instant of the ORIGINAL trace —
        // the replay must not mint a new identity.
        if (op.trace)
            emitEvent(obs::Ev::kRetransmit, sim_.now(), op.trace, psn,
                      op.rtx);
        deviceFetchWqe(qp, w);
    }
}

void
RdmaNic::onNakSeq(const WireMsg &msg)
{
    if (!rel_.enabled || msg.dst_qp >= max_qps_)
        return;
    Qp &q = qps_[msg.dst_qp];
    if (q.state != QpState::kEstablished && q.state != QpState::kClosing)
        return;
    ++stats_.nak_seq_recv;
    ++q.retries;
    if (q.retries > rel_.retry_limit) {
        enterError(msg.dst_qp, "sequence-NAK retry budget exhausted",
                   /*notify_peer=*/true);
        return;
    }
    retransmit(msg.dst_qp);
}

void
RdmaNic::enterError(u32 qp, const char *reason, bool notify_peer)
{
    Qp &q = qps_[qp];
    if (q.state == QpState::kError || q.state == QpState::kFree)
        return;
    const QpState prev = q.state;
    disarmRto(qp);
    q.state = QpState::kError;
    ++stats_.qp_errors;
    emitEvent(obs::Ev::kQpError, sim_.now(), /*trace=*/0, qp, 0);
    // Journal the last 256 events around the transition — the
    // wire-storm debugging trigger (free when rate-limited away).
    core_.dump(strprintf("rdma_qp_error nic=%u qp=%u peer=%u: %s",
                         nic_id_, qp, q.peer_nic, reason));
    if (notify_peer &&
        (prev == QpState::kEstablished || prev == QpState::kClosing)) {
        // Async error notify rides the out-of-band CM channel so the
        // peer's half doesn't linger until its own budget blows.
        WireMsg note;
        note.kind = MsgKind::kQpError;
        note.src_qp = qp;
        note.dst_qp = q.peer_qp;
        sendAt(q.peer_nic, wireArrival(sim_.now(), 0), std::move(note));
    }
    // RoCE flush semantics: every outstanding WQE completes in error;
    // their data-ring unmaps happen at the poll, keeping the one-CQE-
    // per-post conservation intact.
    for (u32 w = 0; w < q.ops.size(); ++w) {
        Op &op = q.ops[w];
        if (!op.active || op.acked)
            continue;
        // Flush CQEs attribute to the flushed ops' own traces.
        obs::TraceScope tscope(op.trace);
        completeOp(qp, w, false);
    }
    if (q.inflight == 0)
        finishErrorRecovery(qp);
}

void
RdmaNic::finishErrorRecovery(u32 qp)
{
    Qp &q = qps_[qp];
    RIO_ASSERT(q.state == QpState::kError && q.inflight == 0,
               "error recovery before the drain finished");
    // Driver side: read the async error, destroy the verbs objects,
    // decide the policy — the recovery work of the fault-handling
    // budget, not ordinary processing.
    core_.acct().charge(cycles::Cat::kFaultHandling,
                        rel_.recovery_cycles);
    const u32 peer = q.peer_nic;
    unregisterQp(qp);
    ++stats_.qp_error_recovered;
    freeQp(qp);
    if (on_qp_error_)
        on_qp_error_(qp, peer);
}

void
RdmaNic::onQpErrorMsg(const WireMsg &msg)
{
    const u32 qp = msg.dst_qp;
    if (qp >= max_qps_)
        return;
    core_.post([this, qp] {
        Qp &q = qps_[qp];
        if (q.state != QpState::kEstablished &&
            q.state != QpState::kClosing)
            return; // already closed or freed locally
        enterError(qp, "peer QP error", /*notify_peer=*/false);
    });
}

Status
RdmaNic::teardown(u32 qp, ClosedCb cb)
{
    Qp &q = qps_[qp];
    if (q.state != QpState::kEstablished)
        return Status(ErrorCode::kInvalidArgument,
                      "teardown of non-established QP");
    charge(profile_.teardown_cycles);
    q.state = QpState::kClosing;
    q.on_closed = std::move(cb);
    if (q.inflight == 0)
        finishClose(qp);
    return Status::ok();
}

Status
RdmaNic::abortQp(u32 qp)
{
    if (!rel_.enabled)
        return Status(ErrorCode::kInvalidArgument,
                      "abortQp needs the reliability layer");
    if (qp >= max_qps_)
        return Status(ErrorCode::kInvalidArgument, "bad QP index");
    Qp &q = qps_[qp];
    if (q.state != QpState::kEstablished && q.state != QpState::kClosing)
        return Status(ErrorCode::kInvalidArgument,
                      "abort of non-established QP");
    enterError(qp, "local abort", /*notify_peer=*/true);
    return Status::ok();
}

void
RdmaNic::finishClose(u32 qp)
{
    Qp &q = qps_[qp];
    unregisterQp(qp);
    q.state = QpState::kCloseWait;
    WireMsg msg;
    msg.kind = MsgKind::kClose;
    msg.src_qp = qp;
    msg.dst_qp = q.peer_qp;
    sendAt(q.peer_nic, wireArrival(core_.virtualNow(), 0),
           std::move(msg));
}

void
RdmaNic::onClose(const WireMsg &msg)
{
    const WireMsg m = msg;
    core_.post([this, m] {
        Qp &q = qps_[m.dst_qp];
        if (q.state != QpState::kEstablished)
            return; // already quiesced locally
        charge(profile_.teardown_cycles);
        unregisterQp(m.dst_qp);
        freeQp(m.dst_qp);
        ++stats_.teardowns;
        WireMsg reply;
        reply.kind = MsgKind::kCloseAck;
        reply.dst_qp = m.src_qp;
        sendAt(m.src_nic, wireArrival(core_.virtualNow(), 0),
               std::move(reply));
    });
}

void
RdmaNic::onCloseAck(const WireMsg &msg)
{
    const u32 qp = msg.dst_qp;
    core_.post([this, qp] {
        Qp &q = qps_[qp];
        if (q.state != QpState::kCloseWait)
            return;
        ClosedCb cb = std::move(q.on_closed);
        freeQp(qp);
        ++stats_.teardowns;
        if (cb)
            cb(qp);
    });
}

void
RdmaNic::quiesceAll()
{
    for (u32 idx = 0; idx < max_qps_; ++idx) {
        Qp &q = qps_[idx];
        if (q.state == QpState::kFree)
            continue;
        for (Op &op : q.ops) {
            if (!op.active)
                continue;
            handle_.unmap(op.map, /*end_of_burst=*/false);
            op = Op{};
            --q.inflight;
            --inflight_total_;
        }
        if (q.state != QpState::kCloseWait)
            unregisterQp(idx); // kCloseWait already unregistered
        freeQp(idx);
    }
    pending_cqes_.clear();
    slo_post_cats_.clear();
    shutDown();
}

void
RdmaNic::fromWire(const WireMsg &msg)
{
    // Everything this delivery does — translations, CQE writes,
    // NAKs — runs on behalf of the op the packet serves (no-op for
    // control-plane messages, which carry trace 0).
    obs::TraceScope tscope(msg.trace);
    switch (msg.kind) {
    case MsgKind::kConnect:
        onConnect(msg);
        return;
    case MsgKind::kAccept:
    case MsgKind::kReject:
        onAcceptReject(msg);
        return;
    case MsgKind::kWrite:
    case MsgKind::kRead:
    case MsgKind::kMigPage:
    case MsgKind::kMigState:
        onDataAccess(msg);
        return;
    case MsgKind::kAck:
    case MsgKind::kNak:
    case MsgKind::kReadResp:
        onCompletionMsg(msg);
        return;
    case MsgKind::kClose:
        onClose(msg);
        return;
    case MsgKind::kCloseAck:
        onCloseAck(msg);
        return;
    case MsgKind::kNakSeq:
        onNakSeq(msg);
        return;
    case MsgKind::kQpError:
        onQpErrorMsg(msg);
        return;
    }
}

} // namespace rio::rdma
