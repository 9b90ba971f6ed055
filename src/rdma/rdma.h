/**
 * @file
 * RDMA-style NIC device model for the cluster-scale study: per
 * connection a queue pair (send-queue ring + memory region) whose
 * buffers are registered through the machine's DMA handle, so that a
 * remote machine's reads and writes of our memory translate through
 * *our* IOMMU with zero local driver cycles — the VA-RDMA shape that
 * multiplies ring count by connection count and stresses the rDEVICE
 * table far beyond the paper's single-NIC setup.
 *
 * rRING layout under the rIOMMU modes (ignored by baseline modes):
 *   rid 0            — static ring: the completion queue mapping
 *   rid 1 + 2q       — QP q control ring: WQE-ring + MR mappings,
 *                      mapped at connect, unmapped at teardown
 *   rid 2 + 2q       — QP q data ring: one short-lived mapping per
 *                      posted operation (the hot path)
 * A fabric of Q QPs therefore owns 1 + 2Q rDEVICE entries; this is
 * the structure whose erosion bench_cluster_rdma measures.
 *
 * Every verb (write, read, migration page, migration state) takes the
 * same driver path, the paper's ring shape (§2.3): map the buffer into
 * the QP's data ring, write the WQE, ring the doorbell; the device
 * fetches the WQE and payload through our IOMMU, and the poll unmaps
 * at the end of the burst. The verb only picks the size ceiling, the
 * map direction (device-to-memory for reads) and the WQE opcode.
 *
 * Determinism: the model draws no random numbers and all latencies
 * are profile constants; cross-machine delivery order is fixed by the
 * ParallelEngine's (when, src lane, seq) mail sort, and a cluster's
 * lanes all run on one thread.
 */
#ifndef RIO_RDMA_RDMA_H
#define RIO_RDMA_RDMA_H

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "des/core.h"
#include "des/simulator.h"
#include "dma/dma_handle.h"
#include "mem/phys_mem.h"
#include "net/packet.h"
#include "obs/event.h"
#include "obs/slo.h"

namespace rio::rdma {

/** Model parameters of one RDMA NIC + driver ("verbs") stack. */
struct RdmaProfile
{
    const char *name = "rnic40";
    double gbps = 40.0;

    /** One-way wire latency between any two machines. Doubles as the
     * cluster's conservative lookahead, so it must lower-bound every
     * message (serialization time only adds). */
    Nanos wire_ns = 600;
    /** Doorbell MMIO + PCIe + WQE fetch start. */
    Nanos doorbell_ns = 300;
    /** Completion interrupt moderation: CQEs arriving within this
     * window of the first unsignalled one share a poll batch — the
     * lever that amortizes end-of-burst invalidations per ring. */
    Nanos completion_irq_ns = 4000;

    u32 sq_depth = 16;       //!< max in-flight ops per QP
    u32 cq_entries = 4096;   //!< shared completion queue entries
    u32 max_req_bytes = 2048; //!< MR size; request-size upper bound

    Cycles post_cycles = 600;    //!< verbs post_send/post_read path
    Cycles poll_cycles = 250;    //!< per-CQE poll + bookkeeping
    Cycles connect_cycles = 3500; //!< QP create + address handshake
    Cycles teardown_cycles = 1800; //!< QP destroy path
};

/** 40 Gbps RoCE-flavored profile used by the fleet workload. */
const RdmaProfile &rnicProfile();

inline constexpr u32 kWqeBytes = 32;
inline constexpr u32 kCqeBytes = 16;

/** Migration chunk ceiling: one guest page. Mig posts are exempt
 * from RdmaProfile::max_req_bytes (the NIC segments large requests
 * internally; modeled as one wire message) but never exceed this. */
inline constexpr u32 kMigChunkBytes = 4096;

/** rRING id helpers (see file header). */
inline u16 ctrlRid(u32 qp) { return static_cast<u16>(1 + 2 * qp); }
inline u16 dataRid(u32 qp) { return static_cast<u16>(2 + 2 * qp); }

/** rRING geometry for Machine::attachDeviceHandle. */
std::vector<u32> ringSizes(const RdmaProfile &profile, u32 max_qps);

/** Everything that crosses the wire between two RdmaNics. */
enum class MsgKind : u8 {
    kConnect = 0, //!< active open: src_qp + our rkey
    kAccept,      //!< passive side's qp + rkey
    kReject,      //!< no QP slot free
    kWrite,       //!< RDMA write: payload into target MR
    kRead,        //!< RDMA read request
    kReadResp,    //!< read payload (or NAK via ok=false)
    kAck,         //!< write acknowledged
    kNak,         //!< write faulted at the target
    kNakSeq,      //!< out-of-sequence NAK: psn = expected PSN
    kClose,       //!< orderly teardown
    kCloseAck,
    kQpError,     //!< async peer notification of a QP error
    kMigPage,     //!< live-migration page: payload into the target sink
    kMigState     //!< live-migration vIOMMU/device state chunk
};

struct WireMsg
{
    MsgKind kind = MsgKind::kAck;
    u32 src_nic = 0;
    u32 dst_nic = 0; //!< receiver NIC id (routes multi-NIC machines)
    u32 src_qp = 0; //!< sender-side QP index
    u32 dst_qp = 0; //!< receiver-side QP index (except kConnect)
    u32 wqe = 0;    //!< initiator op slot, echoed in replies
    u32 psn = 0;    //!< packet sequence number (reliability layer)
    u64 rkey = 0;   //!< MR device address (handshake / data target)
    u64 offset = 0; //!< byte offset into the target MR
    u32 len = 0;
    bool ok = true;
    /** Distributed-trace identity of the op this packet serves (0 for
     * control-plane traffic). Host-side observability metadata only:
     * never read by protocol logic, costs no simulated bytes. */
    u64 trace = 0;
    std::vector<u8> payload;
};

/**
 * RoCE-style reliability knobs. Off by default: with `enabled`
 * false the NIC byte-for-byte matches the lossless-wire model (no
 * PSN checks, no timers, no extra events) — required by the
 * golden_cluster / golden_wire pins. Enable it whenever the wire
 * can lose or reorder (sys::WireFaultConfig armed).
 */
struct ReliabilityConfig
{
    bool enabled = false;
    /** Base retransmission timeout; doubles per fruitless fire up to
     * `rto_max_backoff` exponents. Must comfortably exceed the RTT
     * (wire_ns*2 + serialization + completion moderation). */
    Nanos rto_ns = 20000;
    u32 rto_max_backoff = 6;
    /** Go-back-N rounds (RTO fires + sequence NAKs) without forward
     * progress before the QP transitions to the error state. */
    u32 retry_limit = 7;
    /** Driver-side cost of the error path: reading the affected QP
     * state, flushing verbs resources, policy decision. Charged under
     * Cat::kFaultHandling when the error drain completes. */
    Cycles recovery_cycles = 4000;
};

/**
 * Counters the fleet report, the benches and the fuzz oracles read.
 * Only fields something outside the NIC reads live here; every verb
 * counts in the same `posts` / `completions` whatever its kind.
 */
struct RdmaStats
{
    u64 connects = 0;  //!< QPs established, either side
    u64 teardowns = 0; //!< QPs fully closed, either side
    u64 posts = 0;
    u64 posts_blocked = 0; //!< window full / ring overflow / closing
    u64 completions = 0;
    u64 comp_errors = 0;
    u64 remote_faults = 0; //!< target-side translation faults (NAKs)
    u64 local_fault_drops = 0; //!< initiator-side WQE/payload faults
    u64 eob_unmaps = 0;     //!< unmaps that closed a per-ring burst

    // Reliability layer (all zero while ReliabilityConfig is off).
    u64 retransmits = 0;  //!< data packets re-sent (go-back-N)
    u64 rto_fires = 0;    //!< RTO expirations that retransmitted
    u64 nak_seq_recv = 0; //!< sequence NAKs acted on (requester side)
    u64 qp_errors = 0;    //!< QPs that entered the error state
    u64 qp_error_recovered = 0; //!< error QPs drained + freed
    /** Data packets that addressed a dead QP (freed, or its MR
     * already unmapped) — the late-arrival window the headline
     * experiment measures. `late_faulted` were stopped by the
     * target's IOMMU; `late_landed` hit memory (the stale window a
     * deferred-invalidation policy leaves open). */
    u64 late_arrivals = 0;
    u64 late_faulted = 0;
    u64 late_landed = 0;

    /** The "migrated-away" tier of the late-arrival ledger: data
     * packets that reached this NIC after its guest was migrated
     * off the machine. Like late_*, faulted means the source IOMMU
     * (or the detached handle) stopped the stray; landed means it
     * hit memory the guest no longer owns. */
    u64 migrated_away_arrivals = 0;
    u64 migrated_away_faulted = 0;
    u64 migrated_away_landed = 0;
};

/**
 * One RDMA NIC: device model + driver ("verbs") front end sharing a
 * core. Connection setup, teardown, and completions run as driver
 * work on the core; remote accesses land on the device side and cost
 * no local cycles — only translations.
 */
class RdmaNic
{
  public:
    /** void(dst_nic, arrival_time, msg): install by the cluster. */
    using SendFn = std::function<void(u32, Nanos, WireMsg)>;
    /** void(qp, ok): connect() outcome. */
    using ConnectCb = std::function<void(u32, bool)>;
    /** void(qp): teardown finished (initiator side). */
    using ClosedCb = std::function<void(u32)>;
    /** void(qp, wqe, ok): one completed op (after its unmap). */
    using CompletionCb = std::function<void(u32, u32, bool)>;
    /** void(qp, peer_nic): a QP finished its error drain and was
     * freed; the driver decides reconnect vs abandon. */
    using QpErrorCb = std::function<void(u32, u32)>;
    /** Status(msg): target-side apply of one kMigPage / kMigState
     * chunk (the live-migration sink). Must be idempotent — under
     * loss the go-back-N layer replays chunks, and wire duplicates
     * re-deliver them. */
    using MigSinkFn = std::function<Status(const WireMsg &)>;

    RdmaNic(des::Simulator &sim, des::Core &core,
            mem::PhysicalMemory &pm, dma::DmaHandle &handle,
            const RdmaProfile &profile, u32 max_qps, u32 nic_id);

    RdmaNic(const RdmaNic &) = delete;
    RdmaNic &operator=(const RdmaNic &) = delete;

    void setSendFn(SendFn fn) { send_ = std::move(fn); }
    void setCompletionCallback(CompletionCb cb) { on_completion_ = std::move(cb); }
    void setQpErrorCallback(QpErrorCb cb) { on_qp_error_ = std::move(cb); }
    void setMigSink(MigSinkFn fn) { mig_sink_ = std::move(fn); }

    /**
     * Mark the guest this NIC served as migrated off the machine:
     * subsequent late arrivals are attributed to the migrated-away
     * tier of the ledger (see RdmaStats). The NIC itself keeps
     * running — strays must still hit the IOMMU to be classified.
     */
    void setMigratedAway(bool on) { migrated_away_ = on; }

    /** Arm the RoCE reliability layer. Call before any traffic. */
    void setReliability(const ReliabilityConfig &rel) { rel_ = rel; }
    const ReliabilityConfig &reliability() const { return rel_; }

    /** Allocate + map the CQ. Call once before any traffic. */
    void bringUp();

    /** Unmap the CQ (after all QPs are closed) — leak-check hygiene. */
    void shutDown();

    // ---- driver-side verbs (call from this machine's core/lane) -------
    /**
     * Active open toward @p peer_nic: allocates a QP, registers its
     * WQE ring + MR, and starts the handshake. @p cb fires with the
     * outcome. Returns the local QP index, or an error if no slot or
     * registration failed.
     */
    Result<u32> connect(u32 peer_nic, ConnectCb cb);

    /**
     * Post an RDMA write of @p bytes from the QP's source buffer into
     * the peer MR at @p roffset. False = flow-controlled (window or
     * data ring full) or QP not writable; the caller retries after a
     * completion.
     */
    bool postWrite(u32 qp, u32 bytes, u64 roffset = 0);

    /** Post an RDMA read of @p bytes from the peer MR at @p roffset
     * into the QP's read buffer. */
    bool postRead(u32 qp, u32 bytes, u64 roffset = 0);

    /**
     * Post one live-migration page: @p bytes from local physical
     * @p src_pa (mapped into the QP's data ring, so the fetch
     * translates through OUR IOMMU) toward the peer's migration
     * sink, tagged with @p gfn. Rides the same PSN window as writes —
     * exempt from max_req_bytes (pages are 4 KB; the NIC segments
     * internally, modeled as one request). Same false-means-retry
     * contract as postWrite.
     */
    bool postMigPage(u32 qp, PhysAddr src_pa, u32 bytes, u64 gfn);

    /** Post one vIOMMU/device state chunk (blackout phase): same
     * mechanics as postMigPage, delivered as kMigState with @p tag. */
    bool postMigState(u32 qp, PhysAddr src_pa, u32 bytes, u64 tag);

    /** Orderly close (drains in-flight ops first). */
    Status teardown(u32 qp, ClosedCb cb);

    /**
     * Hard local abort — the app died mid-traffic. The QP transitions
     * straight to the error state: outstanding WQEs flush as error
     * CQEs, the peer gets an async kQpError, and whatever data was on
     * the wire arrives at a dead QP (the late-arrival window the
     * hostile-wire experiments measure). Requires the reliability
     * layer (without it the error machinery is disabled). No-op on
     * QPs that are not established or closing.
     */
    Status abortQp(u32 qp);

    /**
     * Force-unmap everything still registered (in-flight ops, QP
     * control mappings, the CQ) without handshakes — end-of-run
     * cleanup so the leak detector sees a quiesced handle.
     */
    void quiesceAll();

    // ---- wire ----------------------------------------------------------
    /** A message arrives (already timestamped by the sender). */
    void fromWire(const WireMsg &msg);

    // ---- introspection -------------------------------------------------
    const RdmaStats &stats() const { return stats_; }
    u32 nicId() const { return nic_id_; }
    u32 maxQps() const { return max_qps_; }
    u64 establishedQps() const { return established_; }
    u64 inflightOps() const { return inflight_total_; }

    /** Virtual-time post→poll latency of every completed op, in
     * completion order (host-side record; free of simulated cost). */
    const std::vector<Nanos> &opLatencies() const { return op_latencies_; }

    /** Exact per-op SLO records (latency + per-Cat breakdown +
     * retransmit count), populated only while obs::sloRecording(). */
    const obs::OpLatencyRecorder &sloRecords() const { return slo_recorder_; }

    /** Physical addresses of a QP's buffers (tests write/verify). */
    PhysAddr srcBuffer(u32 qp) const { return qps_[qp].src_pa; }
    PhysAddr readBuffer(u32 qp) const { return qps_[qp].rd_pa; }
    PhysAddr mrBuffer(u32 qp) const { return qps_[qp].mr_pa; }
    u32 peerQp(u32 qp) const { return qps_[qp].peer_qp; }
    /** Next send-queue slot of @p qp — the WQE index the next
     * successful post will occupy (migration chunk tracking). */
    u32 sqTail(u32 qp) const { return qps_[qp].sq_tail; }
    u32 peerNic(u32 qp) const { return qps_[qp].peer_nic; }
    /** Device address of a QP's MR mapping (what the peer's rkey
     * names) — lets tests replay a remote access as a local DMA. */
    u64 mrDeviceAddr(u32 qp) const { return qps_[qp].mr_map.device_addr; }

  private:
    enum class QpState : u8 {
        kFree = 0,
        kConnecting,
        kEstablished,
        kClosing,   //!< draining, then kClose goes out
        kCloseWait, //!< kClose sent, waiting for kCloseAck
        kError      //!< retry budget blown; flushing error CQEs
    };

    struct Op
    {
        bool active = false;
        MsgKind kind = MsgKind::kWrite; //!< kWrite/kRead/kMigPage/kMigState
        bool sent = false;  //!< device fetched + transmitted at least once
        bool acked = false; //!< CQE generated; awaiting poll, not retx
        u32 bytes = 0;
        u32 psn = 0;       //!< sequence number (reliability layer)
        u64 roffset = 0;
        Nanos post_ns = 0; //!< verbs post time (latency record)
        Nanos last_tx = 0; //!< most recent transmission (RTO base)
        u64 trace = 0;     //!< distributed-trace id (observability)
        u32 rtx = 0;       //!< retransmit episodes (observability)
        dma::DmaMapping map;
    };

    struct Qp
    {
        QpState state = QpState::kFree;
        u32 peer_nic = 0;
        u32 peer_qp = 0;
        u64 remote_rkey = 0;
        dma::DmaMapping wqe_map, mr_map;
        bool bufs_allocated = false;
        PhysAddr sq_pa = 0; //!< WQE array
        PhysAddr mr_pa = 0; //!< remotely accessed region
        PhysAddr src_pa = 0; //!< local write source
        PhysAddr rd_pa = 0;  //!< local read destination
        u32 sq_tail = 0;     //!< next op slot
        u32 inflight = 0;
        std::vector<Op> ops;
        ConnectCb on_connected;
        ClosedCb on_closed;

        // Reliability state (untouched while the layer is off).
        u32 next_psn = 0;  //!< requester: next PSN to assign
        u32 epsn = 0;      //!< responder: next PSN expected
        bool nak_armed = false; //!< one kNakSeq per ooo episode
        u32 retries = 0;   //!< go-back-N rounds since last progress
        u32 backoff = 0;   //!< RTO exponent since last progress
        bool rto_armed = false;
        des::EventId rto_event = 0;
    };

    struct PendingCqe
    {
        u32 qp = 0;
        u32 wqe = 0;
        bool ok = false;
    };

    void charge(Cycles c);
    /** Current per-Cat totals of this NIC's core (SLO deltas). */
    std::array<u64, obs::kSloMaxCats> sloSnapshot() const;
    void allocQpBuffers(Qp &q);
    /** Register WQE ring + MR in the QP's control ring. */
    Status registerQp(u32 idx);
    void unregisterQp(u32 idx);
    void freeQp(u32 idx);
    /**
     * The one post path behind every verb: validate, map @p bytes at
     * @p pa into the QP's data ring, fill the WQE, count, bank the SLO
     * post delta, emit the op-post event and ring the doorbell.
     * @p roffset is the target MR offset (writes/reads) or the chunk
     * tag (migration).
     */
    bool post(u32 qp, MsgKind kind, PhysAddr pa, u32 bytes, u64 roffset);
    /** Emit one timeline event on this NIC's core track. */
    void emitEvent(obs::Ev kind, Nanos t, u64 trace, u64 arg, u64 arg2,
                   Nanos dur_ns = 0);
    void deviceFetchWqe(u32 qp, u32 wqe);
    void completeOp(u32 qp, u32 wqe, bool ok);
    void pollCq();
    void finishClose(u32 qp);
    void sendAt(u32 dst_nic, Nanos when, WireMsg msg);
    Nanos wireArrival(Nanos from, u32 payload_bytes) const;

    // Reliability layer (device-side; no-ops while rel_ is off).
    void armRto(u32 qp);
    void disarmRto(u32 qp);
    void onRto(u32 qp);
    void retransmit(u32 qp);
    bool hasUnacked(const Qp &q, Nanos *oldest_tx) const;
    void enterError(u32 qp, const char *reason, bool notify_peer);
    void finishErrorRecovery(u32 qp);

    // Wire handlers, split by which side of the QP they run on.
    void onConnect(const WireMsg &msg);
    void onAcceptReject(const WireMsg &msg);
    void onDataAccess(const WireMsg &msg);
    void onCompletionMsg(const WireMsg &msg);
    void onNakSeq(const WireMsg &msg);
    void onQpErrorMsg(const WireMsg &msg);
    void onClose(const WireMsg &msg);
    void onCloseAck(const WireMsg &msg);

    des::Simulator &sim_;
    des::Core &core_;
    mem::PhysicalMemory &pm_;
    dma::DmaHandle &handle_;
    const RdmaProfile profile_; //!< stable copy
    u32 max_qps_;
    u32 nic_id_;
    SendFn send_;
    CompletionCb on_completion_;
    QpErrorCb on_qp_error_;
    MigSinkFn mig_sink_;
    bool migrated_away_ = false;
    ReliabilityConfig rel_;

    std::vector<Qp> qps_;
    std::vector<u32> free_slots_; //!< pop_back yields lowest index
    PhysAddr cq_pa_ = 0;
    dma::DmaMapping cq_map_;
    bool cq_mapped_ = false;
    u32 cq_tail_ = 0;
    std::vector<PendingCqe> pending_cqes_;
    bool irq_scheduled_ = false;
    u64 established_ = 0;
    u64 inflight_total_ = 0;
    RdmaStats stats_;
    std::vector<Nanos> op_latencies_;
    obs::OpLatencyRecorder slo_recorder_;
    /** Post-path per-Cat cycle deltas of in-flight ops, merged with
     * the poll-path delta at the terminal CQE. Keyed (qp << 32) | wqe;
     * populated only while obs::sloRecording(). */
    std::unordered_map<u64, std::array<u64, obs::kSloMaxCats>> slo_post_cats_;
};

} // namespace rio::rdma

#endif // RIO_RDMA_RDMA_H
