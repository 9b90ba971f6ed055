#include "migrate/migrate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"

namespace rio::migrate {

namespace {

/** Tag-type field (bits 32+) of a kMigState chunk; pages use the
 * whole tag for the gfn (type 0). */
constexpr u64 kTagState = 1;
constexpr u64 kTagCommit = 2;
constexpr u64 kTagResume = 3;

/** One serialized ring/device descriptor. */
constexpr u32 kSmallChunk = 64;
/** One replayed mapping record (iova, pfn, perms, rid). */
constexpr u32 kMapChunk = 16;

/** kMigPhase arg values (timeline decoding). */
constexpr u64 kPhaseStart = 0;
constexpr u64 kPhaseRound = 1;
constexpr u64 kPhaseBlackout = 2;
constexpr u64 kPhaseResume = 3;

} // namespace

u64
hashArena(const mem::PhysicalMemory &pm, PhysAddr base, u64 pages)
{
    // Word-wise FNV-style hash over four page streams: lane k takes every
    // word of the arena's quarter k in order, and the tail pages past
    // the last whole quarter go to lane 3. Four streams keep four reads
    // in flight, so the pass runs near memory bandwidth instead of one
    // stream's. Each step (h ^ w) * P is a bijection in both h and w, so
    // a change to any single word changes its lane and, through the
    // bijective fold, the result. The lanes are named locals, not an
    // array: GCC kept an array of lanes in memory, and the hash ran at
    // half speed.
    constexpr u64 kBasis = 1469598103934665603ULL; // FNV offset basis
    constexpr u64 kPrime = 1099511628211ULL;
    const auto mix = [](u64 h, u64 w) { return (h ^ w) * kPrime; };
    RIO_ASSERT(isPageAligned(base), "arena not page-aligned");
    // Pages are hashed where they lie; a never-written one hashes as
    // this zero page, which is what reading it would return.
    static constexpr std::array<u8, kPageSize> kZeroPage{};
    const auto page = [&pm, base](u64 g) {
        const u8 *p = pm.frameData(base + g * kPageSize);
        return p ? p : kZeroPage.data();
    };
    const auto word = [](const u8 *p) {
        u64 w;
        std::memcpy(&w, p, sizeof(w));
        return w;
    };
    const u64 quarter = pages / 4;
    u64 h0 = kBasis, h1 = kBasis, h2 = kBasis, h3 = kBasis;
    for (u64 g = 0; g < quarter; ++g) {
        const u8 *p0 = page(g);
        const u8 *p1 = page(g + quarter);
        const u8 *p2 = page(g + 2 * quarter);
        const u8 *p3 = page(g + 3 * quarter);
        for (u64 i = 0; i < kPageSize; i += sizeof(u64)) {
            h0 = mix(h0, word(p0 + i));
            h1 = mix(h1, word(p1 + i));
            h2 = mix(h2, word(p2 + i));
            h3 = mix(h3, word(p3 + i));
        }
    }
    for (u64 g = 4 * quarter; g < pages; ++g) {
        const u8 *p3 = page(g);
        for (u64 i = 0; i < kPageSize; i += sizeof(u64))
            h3 = mix(h3, word(p3 + i));
    }
    return mix(mix(mix(mix(kBasis, h0), h1), h2), h3);
}

// ---- GuestDirtier ------------------------------------------------------

void
GuestDirtier::arm(des::Simulator &sim, mem::PhysicalMemory &pm,
                  PhysAddr base, u64 pages, double pages_per_ms, u64 seed)
{
    sim_ = &sim;
    pm_ = &pm;
    base_ = base;
    pages_ = pages;
    rate_ = pages_per_ms;
    rng_ = Rng(seed);
    paused_ = false;
    if (rate_ <= 0.0 || pages_ == 0)
        return; // inert: zero draws, zero events
    scheduleNext();
}

void
GuestDirtier::scheduleNext()
{
    const Nanos gap = std::max<Nanos>(
        1, static_cast<Nanos>(rng_.exponential(1e6 / rate_)));
    sim_->scheduleAfter(gap, [this] { tick(); });
}

void
GuestDirtier::tick()
{
    if (paused_)
        return;
    const u64 pfn = rng_.below(pages_);
    const u64 slot = rng_.below(kPageSize / 8);
    // A guest CPU store: functional only (no simulated core cycles —
    // guest compute is not what this model measures), but it marks
    // the page dirty through the write observer like any other store.
    pm_->write64(base_ + pfn * kPageSize + slot * 8, rng_.next());
    ++writes_;
    scheduleNext();
}

// ---- Migrator ----------------------------------------------------------

Migrator::Migrator(sys::Cluster &cluster, const MigrateConfig &cfg)
    : cl_(cluster), cfg_(cfg)
{
    RIO_ASSERT(cl_.hasMigration(),
               "cluster built without the migration overlay");
    RIO_ASSERT(cfg_.src != cfg_.dst, "migration to self");
    RIO_ASSERT(cfg_.src < cl_.size() && cfg_.dst < cl_.size(),
               "migration endpoint out of range");
    RIO_ASSERT(cfg_.guest_pages >= 1, "empty guest arena");
    RIO_ASSERT(cfg_.guest_pages * kPageSize < (1ull << 32),
               "arena exceeds one MR mapping");
}

Migrator::~Migrator()
{
    cleanup();
}

void
Migrator::setGuests(virt::Guest *src_guest, virt::Guest *dst_guest,
                    unsigned src_binding)
{
    src_guest_ = src_guest;
    dst_guest_ = dst_guest;
    src_binding_ = src_binding;
}

void
Migrator::start()
{
    RIO_ASSERT(!started_, "start() called twice");
    started_ = true;

    mem::PhysicalMemory &spm = cl_.machine(cfg_.src).ctx().memory();
    mem::PhysicalMemory &dpm = cl_.machine(cfg_.dst).ctx().memory();
    src_arena_ = spm.allocContiguous(cfg_.guest_pages * kPageSize);
    src_scratch_ = spm.allocContiguous(kPageSize);
    dst_arena_ = dpm.allocContiguous(cfg_.guest_pages * kPageSize);
    dst_scratch_ = dpm.allocContiguous(kPageSize);

    // Deterministic pre-migration guest RAM (before the observer
    // attaches: seed content is round-0 freight, not dirt).
    for (u64 g = 0; g < cfg_.guest_pages; ++g)
        spm.write64(src_arena_ + g * kPageSize + (g % 512) * 8,
                    0x9E3779B97F4A7C15ULL * (g + 1));

    // Target sink: the whole arena stays mapped in the hypervisor
    // handle's static ring for the duration, so every incoming page
    // is a DMA through the target IOMMU (and stage-2 when nested).
    auto sm = cl_.migHandle(cfg_.dst).map(
        0, dst_arena_, static_cast<u32>(cfg_.guest_pages * kPageSize),
        iommu::DmaDir::kFromDevice);
    RIO_ASSERT(sm.isOk(), "sink arena map failed: ",
               sm.status().toString());
    sink_map_ = sm.value();
    sink_mapped_ = true;

    dirty_.assign((cfg_.guest_pages + 63) / 64, 0);
    shipped_once_.assign(dirty_.size(), 0);
    spm.setWriteObserver(
        [this](PhysAddr addr, u64 size) { onSrcWrite(addr, size); },
        src_arena_, cfg_.guest_pages * kPageSize);
    observer_on_ = true;
    dirtier_.arm(cl_.lane(cfg_.src).sim(), spm, src_arena_,
                 cfg_.guest_pages, cfg_.dirty_pages_per_ms,
                 cfg_.dirty_seed);

    rdma::RdmaNic &snic = cl_.migNic(cfg_.src);
    snic.setCompletionCallback([this](u32 qp, u32 wqe, bool ok) {
        onStreamCompletion(qp, wqe, ok);
    });
    snic.setQpErrorCallback(
        [this](u32 qp, u32 peer) { onStreamQpError(qp, peer); });
    snic.setMigSink(
        [this](const rdma::WireMsg &msg) { return onSink(msg); });
    rdma::RdmaNic &dnic = cl_.migNic(cfg_.dst);
    dnic.setMigSink(
        [this](const rdma::WireMsg &msg) { return onSink(msg); });
    dnic.setQpErrorCallback([this](u32, u32) {
        // The return path died; a replayed commit will re-arm it.
        resume_pending_ = false;
    });

    // Round 0 is the whole arena.
    for (u64 g = 0; g < cfg_.guest_pages; ++g)
        enqueuePage(g);
    emitPhase(kPhaseStart, 0);
    cl_.machine(cfg_.src).core(0).post([this] { connectStream(); });
}

void
Migrator::connectStream()
{
    if (done_)
        return;
    auto res = cl_.migNic(cfg_.src).connect(
        cl_.size() + cfg_.dst, [this](u32 qp, bool ok) {
            if (done_)
                return;
            if (!ok) {
                fail("migration stream rejected");
                return;
            }
            qp_ = qp;
            connected_ = true;
            // The accepted QP index on the target: where the target
            // posts resume-done. Written here (source lane), read by
            // the target only after a later wire crossing.
            tgt_qp_ = cl_.migNic(cfg_.src).peerQp(qp);
            pump();
            checkProgress();
        });
    if (!res.isOk())
        fail("no migration QP slot");
}

void
Migrator::onSrcWrite(PhysAddr addr, u64 size)
{
    // The observer watches the arena only, so [addr, addr+size) meets
    // it; a write straddling an arena edge is clipped to it.
    if (done_ || blackout_)
        return;
    const PhysAddr arena_end = src_arena_ + cfg_.guest_pages * kPageSize;
    const u64 first = (std::max(addr, src_arena_) - src_arena_) >>
                      kPageShift;
    const u64 last = (std::min(addr + size, arena_end) - 1 - src_arena_) >>
                     kPageShift;
    for (u64 g = first; g <= last; ++g)
        dirty_[g / 64] |= u64{1} << (g % 64);
}

void
Migrator::enqueuePage(u64 gfn)
{
    u64 &shipped = shipped_once_[gfn / 64];
    const u64 bit = u64{1} << (gfn % 64);
    if (shipped & bit)
        ++rep_.pages_reshipped;
    shipped |= bit;
    queue_.push_back({/*state=*/false, gfn,
                      src_arena_ + gfn * kPageSize,
                      static_cast<u32>(kPageSize), 0, chunk_seq_++});
}

void
Migrator::enqueueState(u32 idx)
{
    queue_.push_back({/*state=*/true, (kTagState << 32) | idx,
                      src_scratch_, plan_[idx].bytes, 0, chunk_seq_++});
}

void
Migrator::enqueueCommit()
{
    queue_.push_back({/*state=*/true, kTagCommit << 32, src_scratch_,
                      kSmallChunk, 0, chunk_seq_++});
}

void
Migrator::pump()
{
    if (!connected_ || done_)
        return;
    rdma::RdmaNic &nic = cl_.migNic(cfg_.src);
    while (!queue_.empty()) {
        const Chunk &c = queue_.front();
        const u32 wqe = nic.sqTail(qp_);
        const bool posted =
            c.state ? nic.postMigState(qp_, c.pa, c.bytes, c.tag)
                    : nic.postMigPage(qp_, c.pa, c.bytes, c.tag);
        if (!posted)
            return; // flow-controlled; the next completion re-pumps
        if (wqe >= inflight_.size())
            inflight_.resize(wqe + 1);
        // The NIC posts only into a free op slot, and every op's CQE
        // (or the QP error) clears its entry first.
        RIO_ASSERT(!inflight_[wqe], "SQ slot ", wqe, " posted twice");
        inflight_[wqe] = c;
        ++inflight_count_;
        queue_.pop_front();
    }
}

void
Migrator::onStreamCompletion(u32 qp, u32 wqe, bool ok)
{
    if (qp != qp_ || wqe >= inflight_.size() || !inflight_[wqe])
        return;
    Chunk c = *inflight_[wqe];
    inflight_[wqe].reset();
    --inflight_count_;
    if (ok) {
        if (c.state) {
            ++rep_.state_chunks;
            rep_.state_bytes += c.bytes;
        } else {
            ++rep_.pages_shipped;
        }
    } else {
        // NAK (target refused the apply) or error-CQE flush: the
        // chunk goes back to the head of the line. Re-applies are
        // idempotent, so replays cannot corrupt the target.
        if (!c.state)
            ++rep_.page_naks;
        if (++c.retries > cfg_.retry_cap) {
            fail("chunk retry budget exhausted");
            return;
        }
        queue_.push_front(c);
    }
    pump();
    checkProgress();
}

void
Migrator::checkProgress()
{
    if (done_ || !connected_ || !queue_.empty() || inflight_count_ != 0)
        return;
    if (!blackout_) {
        endRound();
        return;
    }
    if (!commit_sent_) {
        // Final pages + state all acked: the target is consistent.
        // One lone commit (never concurrent with other chunks, so a
        // page NAK can never reorder behind it) closes the stream.
        enqueueCommit();
        commit_sent_ = true;
        pump();
    }
}

void
Migrator::endRound()
{
    ++rep_.rounds;
    std::vector<u64> d; // the dirty gfns, ascending
    for (u64 i = 0; i < dirty_.size(); ++i)
        for (u64 w = std::exchange(dirty_[i], 0); w != 0; w &= w - 1)
            d.push_back(i * 64 + std::countr_zero(w));
    if (rep_.rounds >= cfg_.max_rounds || d.size() <= cfg_.converge_dirty) {
        beginBlackout(d);
        return;
    }
    emitPhase(kPhaseRound, rep_.rounds);
    for (u64 g : d)
        enqueuePage(g);
    pump();
}

void
Migrator::beginBlackout(const std::vector<u64> &final_dirty)
{
    blackout_ = true;
    t_blackout_ = cl_.machine(cfg_.src).core(0).virtualNow();
    dirtier_.pause();
    // Stop-and-copy pauses the vCPUs: everything from here is
    // hypervisor teardown, so table edits no longer vmexit (the
    // functional side — shadow mirroring — still runs).
    if (src_guest_ != nullptr)
        src_guest_->setPaused(true);
    emitPhase(kPhaseBlackout, rep_.rounds);
    capturePlan(); // before teardown empties the live state
    // Stop-and-copy: the guest is gone from this machine. Tear its
    // data-plane NIC down with the journaled five-phase protocol —
    // those driver cycles are blackout time — and classify every
    // stray that still arrives into the migrated-away ledger tier.
    rdma::RdmaNic &gnic = cl_.nic(cfg_.src);
    gnic.setMigratedAway(true);
    gnic.quiesceAll();
    // No detach: the NIC stays plugged into the source machine (only
    // the guest leaves), so strays are judged by the protection mode,
    // not the use-after-detach guard.
    const Status qs = cl_.machine(cfg_.src).quiesceHandle(
        cl_.handle(cfg_.src), 0, /*detach=*/false);
    RIO_ASSERT(qs.isOk(), "source quiesce failed: ", qs.toString());
    for (u64 g : final_dirty)
        enqueuePage(g);
    for (u32 i = 0; i < plan_.size(); ++i)
        enqueueState(i);
    pump();
}

void
Migrator::capturePlan()
{
    plan_.clear();
    const bool riommu = dma::modeUsesRiommu(cl_.config().mode);
    const u64 live_maps = cl_.handle(cfg_.src).liveMappings();
    const u64 live_rings = 1 + 2 * cl_.nic(cfg_.src).establishedQps();
    switch (cfg_.platform) {
    case virt::Platform::kBare:
        break; // passthrough guest: only the device chunk below
    case virt::Platform::kEmulated:
        if (riommu) {
            // Flat tables re-register on the target: one hypercall
            // per live rRING, independent of guest memory size.
            for (u64 r = 0; r < live_rings; ++r)
                plan_.push_back({kSmallChunk, 1, Apply::kHypercall});
            rep_.live_rings = live_rings;
            rep_.reg_hypercalls = live_rings;
        } else {
            // Trap-and-emulate: the target replays every live
            // mapping as if the guest had just installed it — one
            // wire message and one install+invalidate exit pair per
            // mapping. The message-per-op tax is what makes the
            // emulated vIOMMU migrate worst.
            for (u64 i = 0; i < live_maps; ++i)
                plan_.push_back({kMapChunk, 1, Apply::kVmExitReplay});
            rep_.mappings_replayed = live_maps;
        }
        break;
    case virt::Platform::kShadow:
        if (riommu) {
            // The hypervisor owns the shadow rDEVICE/rRING entries:
            // copy one descriptor per live ring, no guest exits.
            for (u64 r = 0; r < live_rings; ++r)
                plan_.push_back({kSmallChunk, 0, Apply::kBulk});
            rep_.live_rings = live_rings;
        } else {
            // The merged shadow radix table is hypervisor state and
            // moves wholesale — the cheapest baseline transfer, since
            // it only covers what is actually mapped.
            const iommu::IoPageTable *sh =
                src_guest_ ? src_guest_->shadowTable(src_binding_)
                           : nullptr;
            const u64 pages = sh ? sh->tablePages() : 0;
            for (u64 p = 0; p < pages; ++p)
                plan_.push_back(
                    {static_cast<u32>(kPageSize), 0, Apply::kBulk});
        }
        break;
    case virt::Platform::kNested:
        if (riommu) {
            // Re-registration rebuilds the rDEVICE table and its
            // stage-2 backing per ring; the arena's stage-2 refills
            // lazily like any EPT, so nothing memory-proportional
            // ships.
            for (u64 r = 0; r < live_rings; ++r)
                plan_.push_back({kSmallChunk, 1, Apply::kHypercall});
            rep_.live_rings = live_rings;
            rep_.reg_hypercalls = live_rings;
        } else {
            // Guest radix tables travel inside RAM, but hardware
            // walks them through the stage-2 the moment the guest
            // resumes — so the hypervisor ships a stage-2 covering
            // the whole arena (4-level radix), memory-proportional.
            u64 n = cfg_.guest_pages;
            u64 pages = 0;
            for (int level = 0; level < 4; ++level) {
                n = (n + 511) / 512;
                pages += n;
            }
            for (u64 p = 0; p < pages; ++p)
                plan_.push_back(
                    {static_cast<u32>(kPageSize), 0, Apply::kBulk});
        }
        break;
    }
    // The opaque device-model state (QP context, CQ cursor, ...).
    plan_.push_back({kSmallChunk, 0, Apply::kNone});
}

void
Migrator::onStreamQpError(u32 qp, u32 peer)
{
    (void)peer;
    if (done_ || qp != qp_)
        return;
    ++rep_.stream_qp_errors;
    connected_ = false;
    // Everything unacked goes back on the queue in original order.
    // Commit chunks are dropped: checkProgress re-issues the commit
    // once the re-shipped tail is acked on the new QP.
    std::vector<Chunk> back;
    back.reserve(inflight_count_);
    for (std::optional<Chunk> &slot : inflight_) {
        if (slot && !(slot->state && (slot->tag >> 32) == kTagCommit))
            back.push_back(*slot);
        slot.reset();
    }
    inflight_count_ = 0;
    std::sort(back.begin(), back.end(),
              [](const Chunk &a, const Chunk &b) { return a.seq > b.seq; });
    for (const Chunk &c : back)
        queue_.push_front(c);
    if (commit_sent_)
        commit_sent_ = false; // commit (or resume-done) died with the QP
    cl_.machine(cfg_.src).core(0).post([this] { connectStream(); });
}

// ---- target half -------------------------------------------------------

Status
Migrator::onSink(const rdma::WireMsg &msg)
{
    if (msg.kind == rdma::MsgKind::kMigPage)
        return applyPage(msg);
    const u64 type = msg.offset >> 32;
    const u32 idx = static_cast<u32>(msg.offset & 0xffffffffULL);
    switch (type) {
    case kTagState:
        if (idx >= plan_.size())
            return Status(ErrorCode::kInvalidArgument,
                          "state chunk outside the plan");
        applyState(idx);
        return Status::ok();
    case kTagCommit:
        onCommit();
        return Status::ok();
    case kTagResume:
        // Back on the source: the target finished rebuilding state.
        if (!done_)
            finish();
        return Status::ok();
    default:
        return Status(ErrorCode::kInvalidArgument,
                      "unknown migration tag");
    }
}

Status
Migrator::applyPage(const rdma::WireMsg &msg)
{
    const u64 gfn = msg.offset;
    if (gfn >= cfg_.guest_pages || msg.payload.size() != kPageSize)
        return Status(ErrorCode::kInvalidArgument, "bad migration page");
    // DMA into the pre-mapped arena: the payload lands through the
    // target IOMMU, so a hostile or buggy stream cannot write outside
    // the sink mapping.
    return cl_.migHandle(cfg_.dst).deviceWrite(
        sink_map_.device_addr + gfn * kPageSize, msg.payload.data(),
        msg.payload.size());
}

void
Migrator::applyState(u32 idx)
{
    const StateChunkPlan plan = plan_[idx];
    des::Core &core = cl_.machine(cfg_.dst).core(0);
    switch (plan.apply) {
    case Apply::kNone:
        break;
    case Apply::kBulk:
        // Wholesale table install: memcpy-grade hypervisor work.
        core.post([&core, plan] {
            core.acct().charge(cycles::Cat::kVirt, plan.bytes / 64);
        });
        break;
    case Apply::kVmExitReplay:
        core.post([this, &core, plan] {
            for (u32 u = 0; u < plan.units; ++u) {
                if (dst_guest_ == nullptr)
                    continue;
                // Install + caching-mode invalidate: exactly the
                // trap pair the guest pays per mapping when live.
                dst_guest_->exitModel().charge(
                    virt::ExitReason::kVregWrite, &core.acct(), &core);
                dst_guest_->exitModel().charge(
                    virt::ExitReason::kQiDoorbell, &core.acct(), &core);
            }
        });
        break;
    case Apply::kHypercall:
        core.post([this, &core, plan] {
            for (u32 u = 0; u < plan.units; ++u)
                if (dst_guest_ != nullptr)
                    dst_guest_->exitModel().charge(
                        virt::ExitReason::kHypercall, &core.acct(),
                        &core);
        });
        break;
    }
}

void
Migrator::onCommit()
{
    if (done_)
        return;
    resume_pending_ = true;
    // FIFO behind the queued state applies: resume-done leaves only
    // after the target core finished rebuilding the vIOMMU.
    cl_.machine(cfg_.dst).core(0).post([this] { sendResumeDone(); });
}

void
Migrator::sendResumeDone()
{
    if (!resume_pending_ || done_)
        return;
    if (cl_.migNic(cfg_.dst).postMigState(tgt_qp_, dst_scratch_,
                                          kSmallChunk,
                                          kTagResume << 32)) {
        resume_pending_ = false;
        return;
    }
    // Flow-blocked; retry after the send queue drains a little.
    cl_.lane(cfg_.dst).sim().scheduleAfter(1000,
                                           [this] { sendResumeDone(); });
}

// ---- completion --------------------------------------------------------

void
Migrator::finish()
{
    done_ = true;
    rep_.completed = true;
    const Nanos now = srcNow();
    rep_.blackout_ns = now - t_blackout_;
    rep_.total_ns = now;
    rep_.dirtier_writes = dirtier_.writes();
    if (observer_on_) {
        cl_.machine(cfg_.src).ctx().memory().setWriteObserver(nullptr);
        observer_on_ = false;
    }
    emitPhase(kPhaseResume, rep_.rounds);
}

void
Migrator::fail(const char *why)
{
    if (done_)
        return;
    done_ = true;
    rep_.failed = true;
    rep_.fail_reason = why;
    cl_.machine(cfg_.src).core(0).dump(
        strprintf("migration_failed: %s", why));
    rep_.dirtier_writes = dirtier_.writes();
    dirtier_.pause();
    if (observer_on_) {
        cl_.machine(cfg_.src).ctx().memory().setWriteObserver(nullptr);
        observer_on_ = false;
    }
}

void
Migrator::cleanup()
{
    if (observer_on_) {
        cl_.machine(cfg_.src).ctx().memory().setWriteObserver(nullptr);
        observer_on_ = false;
    }
    if (sink_mapped_) {
        (void)cl_.migHandle(cfg_.dst).unmap(sink_map_,
                                            /*end_of_burst=*/true);
        sink_mapped_ = false;
    }
}

u64
Migrator::arenaHash(bool target) const
{
    return hashArena(cl_.machine(target ? cfg_.dst : cfg_.src).ctx().memory(),
                     target ? dst_arena_ : src_arena_, cfg_.guest_pages);
}

void
Migrator::emitPhase(u64 arg, u64 arg2)
{
    des::Core &core = cl_.machine(cfg_.src).core(0);
    obs::Event ev;
    ev.kind = obs::Ev::kMigPhase;
    ev.t = core.virtualNow();
    ev.arg = arg;
    ev.arg2 = arg2;
    core.emit(ev);
}

Nanos
Migrator::srcNow() const
{
    return cl_.machine(cfg_.src).core(0).virtualNow();
}

} // namespace rio::migrate
