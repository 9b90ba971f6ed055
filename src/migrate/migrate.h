/**
 * @file
 * Live guest migration over the RDMA fabric (DESIGN.md §16): a
 * deterministic pre-copy engine that moves a guest — its RAM arena,
 * its vIOMMU state, and its device attachment — from one
 * sys::Cluster machine to another.
 *
 *  - Pre-copy rounds: round 0 ships every arena page as a kMigPage
 *    message on the source machine's *hypervisor* NIC (the Cluster
 *    migration overlay), so migration traffic translates through the
 *    source IOMMU on the way out, the target IOMMU on the way in,
 *    and contends with guest traffic for the hostile wire and the
 *    destination ingress port. Dirty pages — tracked by a
 *    PhysicalMemory write observer over the arena, which sees guest
 *    CPU stores and device DMA alike — are re-shipped each round.
 *  - Convergence: when the dirty set shrinks under a threshold (or a
 *    round cap fires), stop-and-copy begins: the dirtier pauses, the
 *    guest's data-plane NIC is torn down with the journaled
 *    five-phase quiesce, the final dirty pages plus the per-platform
 *    vIOMMU state ship, and the guest resumes on the target. The
 *    blackout window is quiesce-start → resume-done.
 *  - Per-platform state transfer: emulated replays every live
 *    mapping as a vmexit on the target; shadow copies the merged
 *    shadow table wholesale; nested copies the stage-2 table for the
 *    whole arena; rIOMMU modes re-register each live ring with one
 *    hypercall — which is why the rIOMMU blackout is bounded by live
 *    ring count, not memory size.
 *  - Strays: once the source is migrated away, in-flight DMA and
 *    delayed wire duplicates aimed at its old QPs hit the
 *    migrated-away tier of the late-arrival ledger (rdma::RdmaStats)
 *    and, in protected modes, fault rather than land.
 *
 * Determinism: the engine draws random numbers only in the seeded
 * GuestDirtier; all cross-machine interaction rides the existing
 * QP/wire layer, so `--threads 1` ≡ `--threads N` byte-for-byte
 * (pinned by the golden_migrate ctest).
 */
#ifndef RIO_MIGRATE_MIGRATE_H
#define RIO_MIGRATE_MIGRATE_H

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"
#include "sys/cluster.h"
#include "virt/guest.h"
#include "virt/platform.h"

namespace rio::migrate {

/** Knobs of one migration. */
struct MigrateConfig
{
    unsigned src = 0; //!< cluster machine the guest leaves
    unsigned dst = 1; //!< cluster machine the guest lands on
    /** vIOMMU strategy of the migrating guest (kBare = passthrough
     * guest: no vIOMMU state beyond the device chunk). */
    virt::Platform platform = virt::Platform::kBare;

    u64 guest_pages = 1024; //!< RAM arena size, 4 KB pages
    u32 max_rounds = 8;     //!< pre-copy round cap (then stop-and-copy)
    u64 converge_dirty = 32; //!< stop-and-copy when dirty set <= this

    /** Background dirtier: guest CPU stores into the arena at this
     * rate (0 = off, zero RNG draws). */
    double dirty_pages_per_ms = 0.0;
    u64 dirty_seed = 1;

    /** NAK budget per chunk before the migration is declared failed. */
    u32 retry_cap = 64;
};

/** What one migration did (bench columns + test oracles). */
struct MigrationReport
{
    bool completed = false;
    bool failed = false;
    u32 rounds = 0;          //!< pre-copy rounds run (round 0 included)
    u64 pages_shipped = 0;   //!< kMigPage chunks acked
    u64 pages_reshipped = 0; //!< shipped again after a re-dirty
    u64 page_naks = 0;       //!< page applies the target refused
    u64 state_chunks = 0;    //!< kMigState chunks acked (commit incl.)
    u64 state_bytes = 0;     //!< state payload bytes (device chunk incl.)
    u64 mappings_replayed = 0; //!< emulated: vmexit-replayed mappings
    u64 reg_hypercalls = 0;  //!< rIOMMU: per-ring re-registrations
    u64 live_rings = 0;      //!< rIOMMU rings live at blackout
    u64 stream_qp_errors = 0; //!< migration-QP errors survived
    u64 dirtier_writes = 0;
    Nanos blackout_ns = 0; //!< quiesce start -> resume-done
    Nanos total_ns = 0;    //!< start() -> resume-done
};

/**
 * Seeded guest-CPU page dirtier: exponential inter-write gaps at
 * `pages_per_ms`, each write a single u64 store at a drawn offset of
 * a drawn arena page. Lane-local events on the source machine's
 * simulator; zero draws (and zero events) at rate 0.
 */
class GuestDirtier
{
  public:
    void arm(des::Simulator &sim, mem::PhysicalMemory &pm, PhysAddr base,
             u64 pages, double pages_per_ms, u64 seed);
    void pause() { paused_ = true; }
    void resume();
    u64 writes() const { return writes_; }

  private:
    void scheduleNext();
    void tick();

    des::Simulator *sim_ = nullptr;
    mem::PhysicalMemory *pm_ = nullptr;
    PhysAddr base_ = 0;
    u64 pages_ = 0;
    double rate_ = 0.0;
    Rng rng_{1};
    bool paused_ = false;
    u64 writes_ = 0;
};

/**
 * One live migration on a Cluster built with `cfg.migration` on.
 * Construct after the cluster (and any Guests), call start() before
 * the run, then run the engine to idle; done()/report() afterwards.
 * The object is host-shared between the two lanes but each half's
 * mutable state is touched only from its own lane's callbacks, per
 * the ParallelEngine handoff contract.
 */
class Migrator
{
  public:
    Migrator(sys::Cluster &cluster, const MigrateConfig &cfg);
    ~Migrator();

    Migrator(const Migrator &) = delete;
    Migrator &operator=(const Migrator &) = delete;

    /**
     * The migrating guest's two halves (null for kBare). @p src_binding
     * is the source guest's binding index of the machine's guest data
     * handle (what Guest::bindHandle returned), for the shadow-table
     * state capture.
     */
    void setGuests(virt::Guest *src_guest, virt::Guest *dst_guest,
                   unsigned src_binding = 0);

    /** Allocate + seed the arenas, hook dirty tracking, connect the
     * migration QP, and queue round 0. Call once, before running. */
    void start();

    bool done() const { return done_; }
    const MigrationReport &report() const { return rep_; }

    /**
     * Post-run cleanup (host context, after the engine idled and
     * before Cluster::quiesce / leak checks): unmaps the target sink
     * mapping. Idempotent; the destructor calls it too.
     */
    void cleanup();

    PhysAddr srcArena() const { return src_arena_; }
    PhysAddr dstArena() const { return dst_arena_; }

    /**
     * Hash of every byte of the arena (false = source, true = target):
     * an FNV-style multiply over 64-bit words in four interleaved
     * lanes, folded into one value. Any single-word difference changes
     * it; callers compare source against target.
     */
    u64 arenaHash(bool target) const;

    GuestDirtier &dirtier() { return dirtier_; }

  private:
    /** One unit of work on the migration stream. */
    struct Chunk
    {
        bool state = false;
        u64 tag = 0;    //!< gfn (pages) or (type<<32)|idx (state)
        PhysAddr pa = 0;
        u32 bytes = 0;
        u32 retries = 0;
        u64 seq = 0; //!< enqueue order (re-queue sort after QP error)
    };

    /** How the target applies one planned state chunk. */
    enum class Apply : u8 {
        kNone = 0,     //!< opaque device state
        kBulk,         //!< wholesale table copy (shadow / stage-2)
        kVmExitReplay, //!< one kVregWrite exit per unit (emulated)
        kHypercall     //!< one registration hypercall per unit (rIOMMU)
    };

    struct StateChunkPlan
    {
        u32 bytes = 0;
        u32 units = 0;
        Apply apply = Apply::kNone;
    };

    // Source half (source-lane context only).
    void onSrcWrite(PhysAddr addr, u64 size);
    void connectStream();
    void pump();
    void onStreamCompletion(u32 qp, u32 wqe, bool ok);
    void onStreamQpError(u32 qp, u32 peer);
    void endRound();
    void beginBlackout(const std::vector<u64> &final_dirty);
    void capturePlan();
    void enqueuePage(u64 gfn);
    void enqueueState(u32 idx);
    void enqueueCommit();
    void checkProgress();
    void finish();
    void fail(const char *why);
    void emitPhase(u64 arg, u64 arg2);
    Nanos srcNow() const;

    // Target half (target-lane context only).
    Status onSink(const rdma::WireMsg &msg);
    Status applyPage(const rdma::WireMsg &msg);
    void applyState(u32 idx);
    void onCommit();
    void sendResumeDone();

    sys::Cluster &cl_;
    MigrateConfig cfg_;
    virt::Guest *src_guest_ = nullptr;
    virt::Guest *dst_guest_ = nullptr;
    unsigned src_binding_ = 0;

    // ---- source half ---------------------------------------------------
    PhysAddr src_arena_ = 0;
    PhysAddr src_scratch_ = 0; //!< serialized-state staging page
    GuestDirtier dirtier_;
    std::unordered_set<u64> dirty_; //!< observer collector (gfns)
    std::deque<Chunk> queue_;
    std::unordered_map<u64, Chunk> inflight_; //!< (qp<<32)|wqe -> chunk
    std::unordered_set<u64> shipped_once_;
    u32 qp_ = 0;
    u64 chunk_seq_ = 0;
    bool connected_ = false;
    bool started_ = false;
    bool blackout_ = false;
    bool commit_sent_ = false;
    bool observer_on_ = false;
    bool done_ = false;
    Nanos t_start_ = 0;
    Nanos t_blackout_ = 0;
    MigrationReport rep_;

    // ---- plan: written at blackout (source lane), read strictly
    // after the chunks it describes crossed the wire (target lane) —
    // the mailbox handoff orders the accesses.
    std::vector<StateChunkPlan> plan_;
    u32 tgt_qp_ = 0; //!< target-side (accepted) QP index

    // ---- target half ---------------------------------------------------
    PhysAddr dst_arena_ = 0;
    PhysAddr dst_scratch_ = 0;
    dma::DmaMapping sink_map_;
    bool sink_mapped_ = false;
    bool resume_pending_ = false;
};

} // namespace rio::migrate

#endif // RIO_MIGRATE_MIGRATE_H
