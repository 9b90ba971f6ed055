/**
 * @file
 * migrate::Migrator correctness suite — the live-migration contract:
 *   - guest RAM is byte-identical on the target after resume (word-wise
 *     arena hash), across platforms, protection modes, dirty rates
 *     and hostility;
 *   - the per-platform vIOMMU state transfer orders the blackout the
 *     way DESIGN.md §16 claims (shadow < nested < emulated) and the
 *     rIOMMU blackout is bounded by live-ring count, not memory size;
 *   - post-migration strays hit the migrated-away ledger tier and, in
 *     protected modes, fault instead of landing;
 *   - hostility mid-migration — app-QP death on the source fleet, a
 *     QP error on the migration stream itself, teardown/reconnect
 *     churn during rounds — never loses or forks a page, and every
 *     run quiesces leak-free on both guest and hypervisor handles;
 *   - a migration replays identically beside another one on a
 *     parallelFor thread, report field by report field.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "des/parallel.h"
#include "dma/protection_mode.h"
#include "mem/phys_mem.h"
#include "obs/flight.h"
#include "migrate/migrate.h"
#include "rdma/rdma.h"
#include "sys/cluster.h"
#include "virt/guest.h"
#include "virt/platform.h"

namespace rio {
namespace {

using dma::ProtectionMode;
using virt::Platform;

/** One migration experiment (small: suite-sized, not bench-sized). */
struct MigParams
{
    ProtectionMode mode = ProtectionMode::kRiommu;
    Platform platform = Platform::kBare;
    double dirty = 0.0;
    double loss = 0.0;
    u64 pages = 512;
    unsigned app_qps = 4;
    bool strays = false;
    u32 retry_cap = migrate::MigrateConfig{}.retry_cap;
};

struct MigResult
{
    migrate::MigrationReport rep;
    u64 stray_arrivals = 0;
    u64 stray_faulted = 0;
    u64 stray_landed = 0;
    bool hash_ok = false;
    bool leaks_clean = false;
    Nanos src_lane_now = 0;
};

constexpr Nanos kStrayGapNs = 8000;

struct Stray
{
    sys::Cluster *cl = nullptr;
    u32 qp = 0;
    u64 remaining = 0;
    bool connected = false;
};

void
strayTick(const std::shared_ptr<Stray> &s)
{
    if (s->remaining == 0)
        return;
    --s->remaining;
    if (s->connected)
        (void)s->cl->nic(1).postWrite(s->qp, 512, 0);
    s->cl->lane(1).sim().scheduleAfter(kStrayGapNs,
                                      [s] { strayTick(s); });
}

/**
 * Build the cluster, establish the fleet, migrate, audit. @p hostility
 * runs after Migrator::start() and before the engine runs — the hook
 * where tests schedule mid-migration trouble.
 */
MigResult
runMig(const MigParams &p,
       const std::function<void(sys::Cluster &, migrate::Migrator &,
                                const std::vector<u32> &)> &hostility =
           nullptr,
       const std::function<void(sys::Cluster &, migrate::Migrator &)>
           &audit = nullptr)
{
    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.mode = p.mode;
    cfg.max_qps = p.app_qps + 8; // churn headroom
    cfg.migration = true;
    cfg.reliability.enabled = true; // abortQp + migrated-away ledger
    if (p.loss > 0.0) {
        cfg.wire.drop_rate = p.loss;
        cfg.wire.dup_rate = std::min(0.25, 3 * p.loss);
        cfg.wire.delay_rate = std::min(0.5, 10 * p.loss);
        cfg.wire.delay_max_ns = 60000;
    }
    sys::Cluster cl(cfg);

    std::unique_ptr<virt::Guest> sg, dg;
    unsigned src_binding = 0;
    if (p.platform != Platform::kBare) {
        sg = std::make_unique<virt::Guest>(cl.machine(0), p.platform);
        dg = std::make_unique<virt::Guest>(cl.machine(1), p.platform);
        src_binding = sg->bindHandle(cl.handle(0), cl.machine(0).core(0));
        (void)dg->bindHandle(cl.handle(1), cl.machine(1).core(0));
    }
    cl.bringUp();

    std::vector<u32> app_qps;
    auto stray = std::make_shared<Stray>();
    stray->cl = &cl;
    cl.machine(0).core(0).post([&] {
        for (unsigned q = 0; q < p.app_qps; ++q) {
            auto res = cl.nic(0).connect(1, [&app_qps](u32 qp, bool ok) {
                if (ok)
                    app_qps.push_back(qp);
            });
            ASSERT_TRUE(res.isOk());
        }
    });
    if (p.strays) {
        cl.machine(1).core(0).post([&cl, stray] {
            auto res = cl.nic(1).connect(0, [stray](u32 qp, bool ok) {
                stray->qp = qp;
                stray->connected = ok;
            });
            ASSERT_TRUE(res.isOk());
        });
    }
    cl.run();
    EXPECT_EQ(app_qps.size(), p.app_qps);

    migrate::MigrateConfig mc;
    mc.src = 0;
    mc.dst = 1;
    mc.platform = p.platform;
    mc.guest_pages = p.pages;
    mc.dirty_pages_per_ms = p.dirty;
    mc.converge_dirty = 16;
    mc.retry_cap = p.retry_cap;
    migrate::Migrator mig(cl, mc);
    mig.setGuests(sg.get(), dg.get(), src_binding);
    mig.start();
    if (p.strays) {
        stray->remaining = p.pages * 4;
        cl.lane(1).sim().scheduleAfter(kStrayGapNs,
                                      [stray] { strayTick(stray); });
    }
    if (hostility)
        hostility(cl, mig, app_qps);
    cl.run();

    MigResult out;
    out.rep = mig.report();
    out.hash_ok = mig.arenaHash(false) == mig.arenaHash(true);
    if (audit)
        audit(cl, mig);
    const rdma::RdmaStats &src_stats = cl.nic(0).stats();
    out.stray_arrivals = src_stats.migrated_away_arrivals;
    out.stray_faulted = src_stats.migrated_away_faulted;
    out.stray_landed = src_stats.migrated_away_landed;
    out.src_lane_now = cl.lane(0).sim().now();

    mig.cleanup();
    cl.quiesce();
    out.leaks_clean = true;
    for (unsigned m = 0; m < 2; ++m) {
        out.leaks_clean &= cl.checkLeaks(m).clean();
        out.leaks_clean &= cl.checkMigLeaks(m).clean();
    }
    return out;
}

/** RAM lands byte-identical for every platform x a mode sample, with
 * an active dirtier forcing multi-round pre-copy and re-shipping. */
TEST(Migrate, MemoryByteIdenticalAcrossPlatformsAndModes)
{
    for (Platform platform : {Platform::kBare, Platform::kEmulated,
                              Platform::kShadow, Platform::kNested}) {
        for (ProtectionMode mode :
             {ProtectionMode::kRiommu, ProtectionMode::kStrict,
              ProtectionMode::kNone}) {
            SCOPED_TRACE(std::string(dma::modeName(mode)) + "/" +
                         virt::platformName(platform));
            MigParams p;
            p.mode = mode;
            p.platform = platform;
            p.dirty = 400; // hot enough to re-dirty shipped pages
            p.pages = 512;
            auto r = runMig(p);
            EXPECT_TRUE(r.rep.completed);
            EXPECT_FALSE(r.rep.failed);
            EXPECT_TRUE(r.hash_ok);
            EXPECT_TRUE(r.leaks_clean);
            EXPECT_GE(r.rep.pages_shipped, p.pages);
            EXPECT_GT(r.rep.dirtier_writes, 0u);
            EXPECT_GT(r.rep.blackout_ns, 0);
            EXPECT_LT(r.rep.blackout_ns, r.rep.total_ns);
        }
    }
}

/** The arena hash is the oracle every test above leans on: a one-word
 * divergence anywhere in the target arena — first byte, last byte,
 * each hash lane, two swapped neighbours — must change it, and
 * undoing the divergence must restore equality. */
TEST(Migrate, ArenaHashDetectsDivergence)
{
    MigParams p;
    p.pages = 64;
    bool audited = false;
    auto r = runMig(p, nullptr, [&](sys::Cluster &cl,
                                    migrate::Migrator &mig) {
        audited = true;
        ASSERT_TRUE(mig.done());
        ASSERT_EQ(mig.arenaHash(false), mig.arenaHash(true));
        mem::PhysicalMemory &pm = cl.machine(1).ctx().memory();
        const PhysAddr base = mig.dstArena();
        const PhysAddr end = base + p.pages * kPageSize;

        auto expectDetected = [&](const char *what, PhysAddr a) {
            SCOPED_TRACE(what);
            pm.write8(a, pm.read8(a) ^ 0x5a);
            EXPECT_NE(mig.arenaHash(false), mig.arenaHash(true));
            pm.write8(a, pm.read8(a) ^ 0x5a);
            EXPECT_EQ(mig.arenaHash(false), mig.arenaHash(true));
        };
        expectDetected("first byte", base);
        expectDetected("last byte", end - 1);
        // One word at a time across eight neighbours: every lane.
        const PhysAddr mid = base + (p.pages / 2) * kPageSize + 256;
        for (u64 w = 0; w < 8; ++w)
            expectDetected("single word", mid + w * 8 + 3);

        // The seed writes word (g % 512) of page g; its neighbour in
        // the same page is zero, so the two are distinct.
        const u64 g = 5;
        const PhysAddr a = base + g * kPageSize + (g % 512) * 8;
        const u64 wa = pm.read64(a);
        const u64 wb = pm.read64(a + 8);
        ASSERT_NE(wa, wb);
        pm.write64(a, wb);
        pm.write64(a + 8, wa);
        EXPECT_NE(mig.arenaHash(false), mig.arenaHash(true))
            << "swapped adjacent words";
        pm.write64(a, wa);
        pm.write64(a + 8, wb);
        EXPECT_EQ(mig.arenaHash(false), mig.arenaHash(true));
    });
    EXPECT_TRUE(audited);
    EXPECT_TRUE(r.rep.completed);
    EXPECT_TRUE(r.hash_ok);
}

// ---- hashArena ----------------------------------------------------------

/** Arena sizes around the four-lane split: fewer pages than lanes,
 * one tail page, and whole quarters plus a three-page tail. */
constexpr std::array<u64, 4> kHashPages = {1, 3, 5, 4 * 9 + 3};

/** Write every 7th word of each of the @p pages pages at @p base with
 * a value of its page and word, in page order or @p reverse; page 2
 * stays never-written. */
void
seedArena(mem::PhysicalMemory &pm, PhysAddr base, u64 pages, bool reverse)
{
    for (u64 i = 0; i < pages; ++i) {
        const u64 g = reverse ? pages - 1 - i : i;
        if (g == 2)
            continue;
        for (u64 w = 0; w < kPageSize / 8; w += 7)
            pm.write64(base + g * kPageSize + w * 8,
                       0x9E3779B97F4A7C15ULL * (g * 512 + w + 1));
    }
}

/** Equal contents hash equal, wherever the pages lie and in whatever
 * order their host frames were carved. */
TEST(ArenaHash, EqualContentsHashEqual)
{
    for (const u64 pages : kHashPages) {
        SCOPED_TRACE(pages);
        mem::PhysicalMemory a, b;
        const PhysAddr base_a = 16 * kPageSize;
        const PhysAddr base_b = 1000 * kPageSize;
        seedArena(a, base_a, pages, /*reverse=*/false);
        b.write64(7 * kPageSize, 1); // b's frames start one carve later
        seedArena(b, base_b, pages, /*reverse=*/true);
        EXPECT_EQ(migrate::hashArena(a, base_a, pages),
                  migrate::hashArena(b, base_b, pages));
    }
}

/** One flipped word anywhere changes the hash: the first and last page
 * of each quarter, the tail pages and a never-written page. */
TEST(ArenaHash, OneFlippedWordChangesTheHash)
{
    for (const u64 pages : kHashPages) {
        SCOPED_TRACE(pages);
        mem::PhysicalMemory pm;
        const PhysAddr base = 16 * kPageSize;
        seedArena(pm, base, pages, /*reverse=*/false);
        const u64 want = migrate::hashArena(pm, base, pages);

        std::vector<u64> probe;
        const u64 quarter = pages / 4;
        for (u64 k = 0; k < 4 && quarter > 0; ++k) {
            probe.push_back(k * quarter);
            probe.push_back((k + 1) * quarter - 1);
        }
        for (u64 g = 4 * quarter; g < pages; ++g)
            probe.push_back(g); // tail pages (lane 3)
        if (pages > 2) {
            ASSERT_EQ(pm.frameData(base + 2 * kPageSize), nullptr);
            probe.push_back(2); // never written
        }
        for (const u64 g : probe) {
            for (const u64 w : {u64{0}, u64{7}, kPageSize / 8 - 1}) {
                SCOPED_TRACE(testing::Message() << "page " << g << " word "
                                                << w);
                const PhysAddr at = base + g * kPageSize + w * 8;
                const u64 old = pm.read64(at);
                pm.write64(at, old ^ (u64{1} << 40));
                EXPECT_NE(migrate::hashArena(pm, base, pages), want);
                pm.write64(at, old);
                EXPECT_EQ(migrate::hashArena(pm, base, pages), want);
            }
        }
    }
}

/** A page written full of zeros hashes as one never written. */
TEST(ArenaHash, ZeroPageHashesAsNeverWritten)
{
    const std::vector<u8> junk(kPageSize, 0xa5), zeros(kPageSize, 0);
    for (const u64 pages : kHashPages) {
        SCOPED_TRACE(pages);
        mem::PhysicalMemory written, blank;
        const PhysAddr base = 16 * kPageSize;
        for (u64 g = 0; g < pages; ++g) {
            written.write(base + g * kPageSize, junk.data(), junk.size());
            written.write(base + g * kPageSize, zeros.data(), zeros.size());
        }
        written.write64(base + 8, 5);
        blank.write64(base + 8, 5);
        ASSERT_NE(written.frameData(base + (pages - 1) * kPageSize), nullptr);
        if (pages > 1) {
            ASSERT_EQ(blank.frameData(base + kPageSize), nullptr);
        }
        EXPECT_EQ(migrate::hashArena(written, base, pages),
                  migrate::hashArena(blank, base, pages));
    }
}

/** The migrated-away ledger tier: strays at the source's dead QPs are
 * counted, and protected modes fault them all — zero landings. */
TEST(Migrate, PostMigrationStraysFaultInProtectedModes)
{
    for (ProtectionMode mode :
         {ProtectionMode::kRiommu, ProtectionMode::kStrict,
          ProtectionMode::kNone}) {
        SCOPED_TRACE(dma::modeName(mode));
        MigParams p;
        p.mode = mode;
        p.platform = Platform::kNested;
        p.pages = 512;
        p.dirty = 50;
        p.strays = true;
        auto r = runMig(p);
        EXPECT_TRUE(r.rep.completed);
        EXPECT_TRUE(r.hash_ok);
        EXPECT_TRUE(r.leaks_clean);
        EXPECT_GT(r.stray_arrivals, 0u);
        if (mode == ProtectionMode::kNone) {
            EXPECT_EQ(r.stray_faulted, 0u);
            EXPECT_GT(r.stray_landed, 0u);
        } else {
            EXPECT_EQ(r.stray_landed, 0u);
            EXPECT_GT(r.stray_faulted, 0u);
        }
    }
}

/** DESIGN.md §16's per-platform transfer table, as a blackout
 * ordering: shadow ships only what is mapped, nested ships a stage-2
 * covering the whole arena, emulated replays every mapping as an
 * install+invalidate exit pair on the target. */
TEST(Migrate, BlackoutOrdersShadowUnderNestedUnderEmulated)
{
    auto run = [](Platform platform) {
        MigParams p;
        p.mode = ProtectionMode::kStrict;
        p.platform = platform;
        p.pages = 4096;
        p.dirty = 50;
        p.app_qps = 8;
        return runMig(p);
    };
    auto sh = run(Platform::kShadow);
    auto ne = run(Platform::kNested);
    auto em = run(Platform::kEmulated);
    ASSERT_TRUE(sh.rep.completed && ne.rep.completed && em.rep.completed);
    EXPECT_LT(sh.rep.state_bytes, ne.rep.state_bytes);
    EXPECT_LT(sh.rep.blackout_ns, ne.rep.blackout_ns);
    EXPECT_LT(ne.rep.blackout_ns, em.rep.blackout_ns);
    EXPECT_GT(em.rep.mappings_replayed, 0u);
}

/** The paper's O(rings) argument, turned into downtime: the rIOMMU
 * blackout grows with live-ring count and stays flat in memory. */
TEST(Migrate, RiommuBlackoutBoundedByRingsNotMemory)
{
    auto run = [](unsigned qps, u64 pages) {
        MigParams p;
        p.mode = ProtectionMode::kRiommu;
        p.platform = Platform::kNested;
        p.app_qps = qps;
        p.pages = pages;
        return runMig(p);
    };
    auto small = run(2, 1024);
    auto more_rings = run(10, 1024);
    auto more_memory = run(2, 4096);
    ASSERT_TRUE(small.rep.completed && more_rings.rep.completed &&
                more_memory.rep.completed);
    // Each QP adds a ctrl+data ring pair: 8 extra QPs = 16 rings.
    EXPECT_EQ(small.rep.live_rings, 1u + 2u * 2u);
    EXPECT_EQ(more_rings.rep.live_rings, small.rep.live_rings + 16);
    EXPECT_EQ(more_rings.rep.reg_hypercalls, more_rings.rep.live_rings);
    EXPECT_GT(more_rings.rep.blackout_ns, small.rep.blackout_ns);
    // 4x the guest memory: same rings, same re-registration bill.
    EXPECT_EQ(more_memory.rep.live_rings, small.rep.live_rings);
    EXPECT_EQ(more_memory.rep.state_bytes, small.rep.state_bytes);
    EXPECT_LE(more_memory.rep.blackout_ns,
              small.rep.blackout_ns + small.rep.blackout_ns / 10);
}

/** Surprise app death mid-pre-copy: every app QP on the source fleet
 * hard-aborts during round 0. The migration stream is unaffected, the
 * blackout's ring re-registration sees only the survivors, and the
 * arena still lands intact. */
TEST(Migrate, SurpriseAppDeathMidPreCopyStillCompletes)
{
    MigParams p;
    p.mode = ProtectionMode::kRiommu;
    p.platform = Platform::kNested;
    p.pages = 2048;
    p.app_qps = 4;
    auto r = runMig(p, [](sys::Cluster &cl, migrate::Migrator &,
                          const std::vector<u32> &qps) {
        cl.lane(0).sim().scheduleAfter(50000, [&cl, qps] {
            cl.machine(0).core(0).post([&cl, qps] {
                for (u32 q : qps)
                    ASSERT_TRUE(cl.nic(0).abortQp(q).isOk());
            });
        });
    });
    EXPECT_TRUE(r.rep.completed);
    EXPECT_TRUE(r.hash_ok);
    EXPECT_TRUE(r.leaks_clean);
    // Only the static ring survives to blackout: the aborted QPs'
    // ring pairs are gone, so the target re-registers 1 ring, not 9.
    EXPECT_EQ(r.rep.live_rings, 1u);
    EXPECT_EQ(r.rep.reg_hypercalls, 1u);
}

/** A QP error on the migration stream itself: the round resumes on a
 * fresh QP, unacked chunks re-ship in order, and no page is lost or
 * double-applied (the arena hash is the oracle for both). */
TEST(Migrate, StreamQpErrorResumesRoundWithoutPageLoss)
{
    MigParams p;
    p.mode = ProtectionMode::kStrict;
    p.platform = Platform::kShadow;
    p.pages = 2048;
    p.dirty = 100;
    auto r = runMig(p, [](sys::Cluster &cl, migrate::Migrator &,
                          const std::vector<u32> &) {
        cl.lane(0).sim().scheduleAfter(100000, [&cl] {
            cl.machine(0).core(0).post([&cl] {
                // The stream is the hypervisor NIC's only QP; abort
                // every slot so we cannot miss it.
                for (u32 q = 0; q < cl.migNic(0).maxQps(); ++q)
                    (void)cl.migNic(0).abortQp(q);
            });
        });
    });
    EXPECT_TRUE(r.rep.completed);
    EXPECT_FALSE(r.rep.failed);
    EXPECT_GE(r.rep.stream_qp_errors, 1u);
    EXPECT_TRUE(r.hash_ok);
    EXPECT_TRUE(r.leaks_clean);
    // Everything unacked at the error re-shipped on the new QP.
    EXPECT_GE(r.rep.pages_shipped, p.pages);
}

/** The abort path: with no chunk retries allowed, the QP error that
 * flushes the in-flight chunks ends the migration. It fails cleanly —
 * no leaked mapping on either machine — and says why, in its report
 * and in a flight dump on the source machine's recorder. */
TEST(Migrate, ExhaustedRetryBudgetFailsCleanlyWithReason)
{
    MigParams p;
    p.mode = ProtectionMode::kStrict;
    p.platform = Platform::kShadow;
    p.pages = 2048;
    p.dirty = 100;
    p.retry_cap = 0;
    std::vector<std::string> src_dumps;
    u64 dst_dumps = 0;
    auto r = runMig(
        p,
        [](sys::Cluster &cl, migrate::Migrator &,
           const std::vector<u32> &) {
            cl.lane(0).sim().scheduleAfter(100000, [&cl] {
                cl.machine(0).core(0).post([&cl] {
                    for (u32 q = 0; q < cl.migNic(0).maxQps(); ++q)
                        (void)cl.migNic(0).abortQp(q);
                });
            });
        },
        [&](sys::Cluster &cl, migrate::Migrator &) {
            for (const obs::FlightDump &d : cl.machine(0).recorder().dumps())
                src_dumps.push_back(d.reason);
            for (const obs::FlightDump &d : cl.machine(1).recorder().dumps())
                dst_dumps += d.reason.find("migration") != std::string::npos;
        });
    EXPECT_TRUE(r.rep.failed);
    EXPECT_FALSE(r.rep.completed);
    ASSERT_NE(r.rep.fail_reason, nullptr);
    EXPECT_STREQ(r.rep.fail_reason, "chunk retry budget exhausted");
    EXPECT_TRUE(r.leaks_clean);
    EXPECT_NE(std::find(src_dumps.begin(), src_dumps.end(),
                        "migration_failed: chunk retry budget exhausted"),
              src_dumps.end())
        << "the source machine's recorder holds the failure dump";
    EXPECT_EQ(dst_dumps, 0u) << "the dump belongs to the source machine";
}

/** Teardown/reconnect churn on the source fleet while rounds run:
 * rings come and go under the migrator's feet, and the final
 * re-registration bill reflects the fleet as of blackout. */
TEST(Migrate, SourceFleetChurnDuringRounds)
{
    MigParams p;
    p.mode = ProtectionMode::kRiommu;
    p.platform = Platform::kNested;
    p.pages = 2048;
    p.dirty = 100;
    p.app_qps = 4;
    unsigned reconnects = 0;
    auto r = runMig(p, [&reconnects](sys::Cluster &cl,
                                     migrate::Migrator &,
                                     const std::vector<u32> &qps) {
        for (unsigned k = 0; k < qps.size(); ++k) {
            const u32 q = qps[k];
            const bool abort = (k % 2 == 0);
            cl.lane(0).sim().scheduleAfter(
                40000 * (k + 1), [&cl, &reconnects, q, abort] {
                    cl.machine(0).core(0).post([&cl, &reconnects, q,
                                                abort] {
                        if (abort)
                            ASSERT_TRUE(cl.nic(0).abortQp(q).isOk());
                        else
                            ASSERT_TRUE(
                                cl.nic(0).teardown(q, nullptr).isOk());
                        auto res = cl.nic(0).connect(
                            1, [&reconnects](u32, bool ok) {
                                if (ok)
                                    ++reconnects;
                            });
                        ASSERT_TRUE(res.isOk());
                    });
                });
        }
    });
    EXPECT_TRUE(r.rep.completed);
    EXPECT_TRUE(r.hash_ok);
    EXPECT_TRUE(r.leaks_clean);
    EXPECT_EQ(reconnects, p.app_qps);
    // The reconnected fleet is what blackout re-registers: all 4
    // replacement QPs alive, original ones gone.
    EXPECT_EQ(r.rep.live_rings, 1u + 2u * 4u);
}

std::string
migFingerprint()
{
    MigParams p;
    p.mode = ProtectionMode::kRiommu;
    p.platform = Platform::kNested;
    p.pages = 1024;
    p.dirty = 300;
    p.loss = 0.02;
    p.strays = true;
    auto r = runMig(p);
    std::ostringstream os;
    os << r.rep.completed << '/' << r.rep.rounds << '/'
       << r.rep.pages_shipped << '/' << r.rep.pages_reshipped << '/'
       << r.rep.page_naks << '/' << r.rep.state_chunks << '/'
       << r.rep.state_bytes << '/' << r.rep.reg_hypercalls << '/'
       << r.rep.live_rings << '/' << r.rep.stream_qp_errors << '/'
       << r.rep.dirtier_writes << '/' << r.rep.blackout_ns << '/'
       << r.rep.total_ns << '/' << r.stray_arrivals << '/'
       << r.stray_faulted << '/' << r.stray_landed << '/' << r.hash_ok
       << '/' << r.src_lane_now;
    return os.str();
}

/** Row isolation: the whole migration — rounds, freight, blackout,
 * strays, lane clocks — replays identically when two copies run side
 * by side on parallelFor threads, even over a lossy wire. */
TEST(Migrate, ReportIdenticalWhenRunConcurrently)
{
    std::array<std::string, 2> fp;
    des::parallelFor(fp.size(), 2,
                     [&](size_t i) { fp[i] = migFingerprint(); });
    EXPECT_EQ(fp[0], fp[1]);
}

} // namespace
} // namespace rio
