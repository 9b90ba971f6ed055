/**
 * @file
 * MagazineIovaAllocator under multi-core lifecycle churn (the
 * allocator behind strict+ and defer+). The magazine mechanism parks
 * freed ranges instead of releasing them, so the failure mode worth
 * guarding is a range leaking *around* the magazines during a surprise
 * unplug: parked-but-live, or live-but-unparked after the driver's
 * removal cleanup. The tests drive two cores mapping and unmapping
 * through two NICs while one of them is yanked and replugged, then
 * audit the handles with checkHandleLeaks and the tree with
 * validate(), and pin the whole scenario — churn included — to
 * bit-identical replay, mirroring spinlock_test's determinism
 * structure.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "des/parallel.h"
#include "dma/baseline_handle.h"
#include "dma/dma_context.h"
#include "iova/magazine_allocator.h"
#include "nic/profile.h"
#include "sys/machine.h"
#include "workloads/stream.h"

namespace rio {
namespace {

using dma::ProtectionMode;
using iommu::DmaDir;
using cycles::Cat;

nic::NicProfile
testProfile()
{
    nic::NicProfile p;
    p.name = "test";
    p.tx_buffers_per_packet = 1;
    p.rx_rings = 1;
    p.rx_ring_entries = 16;
    p.tx_ring_entries = 512;
    p.tx_completion_batch = 16;
    p.tx_irq_delay_ns = 5000;
    p.rx_irq_delay_ns = 1000;
    return p;
}

iova::MagazineIovaAllocator &
magazineOf(dma::DmaHandle &h)
{
    auto &bh = dynamic_cast<dma::BaselineDmaHandle &>(h);
    auto *mag =
        dynamic_cast<iova::MagazineIovaAllocator *>(&bh.allocator());
    EXPECT_NE(mag, nullptr);
    return *mag;
}

/** End-of-round allocator/account state, for determinism checks. */
struct ChurnOutcome
{
    u64 acct0 = 0, acct1 = 0;
    u64 alloc_calls = 0, magazine_hits = 0;
    u64 tree_size = 0, parked = 0, live = 0;
    u64 unplugs = 0, replugs = 0;

    bool
    operator==(const ChurnOutcome &o) const
    {
        return acct0 == o.acct0 && acct1 == o.acct1 &&
               alloc_calls == o.alloc_calls &&
               magazine_hits == o.magazine_hits &&
               tree_size == o.tree_size && parked == o.parked &&
               live == o.live && unplugs == o.unplugs &&
               replugs == o.replugs;
    }
};

/**
 * The shared scenario: two cores, one NIC each, mixed-size map/unmap
 * bursts on both, with NIC 1 surprise-unplugged mid-burst (its live
 * mappings recovered by the driver removal path, not by us), then
 * replugged and driven again. Stepped — postRound() arms one round,
 * the caller drives the simulator (directly, or via an engine lane),
 * auditRound() checks invariants, finish() quiesces and returns the
 * end state — so the same scenario runs on a plain Simulator or on a
 * des::ParallelEngine lane next to other scenarios.
 */
class ChurnScenario
{
  public:
    static constexpr int kRounds = 14;

    ChurnScenario(ProtectionMode mode, des::Simulator &sim)
        : m_(sim, mode, /*ncores=*/2)
    {
        m_.attachNic(testProfile(), 0);
        m_.attachNic(testProfile(), 1);
        m_.bringUp();
    }

    void
    postRound(int round)
    {
        m_.core(0).post([this] { burst(0, true); });
        if (round == 2) {
            // Map on core 1, then the device vanishes with the burst
            // live. The NIC's removal path recovers its own orphans;
            // this driver unmaps its burst through the detached
            // handle — the strict+ path that eats invalidation
            // time-outs — and the magazines must still repark every
            // range.
            m_.core(1).post([this] {
                const auto orphans = burst(1, false);
                m_.surpriseUnplugNic(1);
                m_.removeCleanupNic(1);
                unmapBurst(1, orphans);
            });
        } else if (round == 3) {
            m_.core(1).post(
                [this] { ASSERT_TRUE(m_.replugNic(1).isOk()); });
        } else {
            m_.core(1).post([this] { burst(1, true); });
        }
    }

    void
    auditRound(int round)
    {
        // The leak audit is only meaningful on a detached handle (a
        // live NIC rightfully holds its Rx-prefill and descriptor
        // mappings): audit NIC 1 right after the removal cleanup.
        if (round == 2) {
            const dma::LeakReport rep =
                m_.ctx().checkHandleLeaks(m_.handle(1));
            EXPECT_TRUE(rep.clean())
                << "post-unplug cleanup: " << rep.toString();
        }
        for (unsigned nic = 0; nic < 2; ++nic)
            EXPECT_TRUE(magazineOf(m_.handle(nic)).validate())
                << "round " << round << " nic " << nic;
    }

    ChurnOutcome
    finish()
    {
        // Orderly end of life: everything returned, nothing parked-
        // but-live, the trees still valid red-black trees.
        EXPECT_TRUE(m_.quiesceNic(0).isOk());
        EXPECT_TRUE(m_.quiesceNic(1).isOk());
        for (unsigned nic = 0; nic < 2; ++nic) {
            const dma::LeakReport rep =
                m_.ctx().checkHandleLeaks(m_.handle(nic));
            EXPECT_TRUE(rep.clean())
                << "after quiesce, nic " << nic << ": "
                << rep.toString();
        }

        ChurnOutcome out;
        iova::MagazineIovaAllocator &mag0 = magazineOf(m_.handle(0));
        EXPECT_EQ(mag0.live(), 0u);
        EXPECT_EQ(mag0.parked(), mag0.treeSize());
        EXPECT_TRUE(mag0.validate());
        EXPECT_GT(mag0.magazineHits(), 0u); // steady state reached
        iova::MagazineIovaAllocator &mag1 = magazineOf(m_.handle(1));
        EXPECT_EQ(mag1.live(), 0u);
        EXPECT_TRUE(mag1.validate());

        out.acct0 = m_.acct(0).total();
        out.acct1 = m_.acct(1).total();
        out.alloc_calls = mag0.allocCalls() + mag1.allocCalls();
        out.magazine_hits = mag0.magazineHits() + mag1.magazineHits();
        out.tree_size = mag0.treeSize() + mag1.treeSize();
        out.parked = mag0.parked() + mag1.parked();
        out.live = mag0.live() + mag1.live();
        out.unplugs = m_.lifecycleStats().surprise_unplugs;
        out.replugs = m_.lifecycleStats().replugs;
        return out;
    }

  private:
    // Mixed sizes: 1 page and 2 pages, so two magazines are in play.
    // The volume matters for defer+: IOVA frees sit in the deferred
    // batch until the 250-unmap flush, so the run must cross that
    // threshold mid-flight for the magazines to see any traffic
    // before the final quiesce.
    std::vector<dma::DmaMapping>
    mapBurst(unsigned nic)
    {
        std::vector<dma::DmaMapping> mappings;
        for (int j = 0; j < 24; ++j) {
            const u32 size = (j % 2) ? 1000u : 1000u + kPageSize;
            const PhysAddr buf = m_.ctx().memory().allocFrame();
            auto mapping =
                m_.handle(nic).map(0, buf, size, DmaDir::kBidir);
            if (!mapping.isOk()) {
                // Mid-outage: the handle is detached; tolerated.
                EXPECT_EQ(mapping.status().code(), ErrorCode::kDetached);
                continue;
            }
            mappings.push_back(mapping.value());
        }
        return mappings;
    }

    // Mixed teardown order exercises find() on both magazines.
    void
    unmapBurst(unsigned nic, const std::vector<dma::DmaMapping> &mappings)
    {
        for (size_t j = 0; j < mappings.size(); j += 2)
            EXPECT_TRUE(
                m_.handle(nic).unmap(mappings[j], false).isOk());
        for (size_t j = 1; j < mappings.size(); j += 2)
            EXPECT_TRUE(m_.handle(nic)
                            .unmap(mappings[j],
                                   j + 2 > mappings.size())
                            .isOk());
    }

    std::vector<dma::DmaMapping>
    burst(unsigned nic, bool unmap_back)
    {
        const auto mappings = mapBurst(nic);
        if (unmap_back)
            unmapBurst(nic, mappings);
        return mappings;
    }

    sys::Machine m_;
};

ChurnOutcome
runChurnScenario(ProtectionMode mode)
{
    des::Simulator sim;
    ChurnScenario s(mode, sim);
    for (int round = 0; round < ChurnScenario::kRounds; ++round) {
        s.postRound(round);
        sim.run();
        s.auditRound(round);
    }
    return s.finish();
}

/** Both magazine modes side by side, one engine lane each: the same
 * round structure, but the rounds of the two scenarios execute
 * concurrently when the engine has workers. */
std::pair<ChurnOutcome, ChurnOutcome>
runChurnPairOnEngine(unsigned threads)
{
    des::ParallelEngine eng(threads);
    des::Lane &l0 = eng.addLane();
    des::Lane &l1 = eng.addLane();
    ChurnScenario s0(ProtectionMode::kStrictPlus, l0.sim());
    ChurnScenario s1(ProtectionMode::kDeferPlus, l1.sim());
    for (int round = 0; round < ChurnScenario::kRounds; ++round) {
        s0.postRound(round);
        s1.postRound(round);
        eng.run();
        s0.auditRound(round);
        s1.auditRound(round);
    }
    return {s0.finish(), s1.finish()};
}

class MagazineChurnTest : public ::testing::TestWithParam<ProtectionMode>
{
};

TEST_P(MagazineChurnTest, MultiCoreChurnLeaksNothing)
{
    const ChurnOutcome out = runChurnScenario(GetParam());
    EXPECT_EQ(out.live, 0u);
    EXPECT_EQ(out.unplugs, 1u);
    EXPECT_EQ(out.replugs, 1u);
    // The magazines did their job: most allocations after warmup are
    // magazine pops, and every parked range is still tree-resident.
    EXPECT_GT(out.magazine_hits, 0u);
    EXPECT_EQ(out.parked, out.tree_size);
}

TEST_P(MagazineChurnTest, ChurnScenarioReplaysBitForBit)
{
    const ChurnOutcome a = runChurnScenario(GetParam());
    const ChurnOutcome b = runChurnScenario(GetParam());
    EXPECT_TRUE(a == b);
}

INSTANTIATE_TEST_SUITE_P(MagazineModes, MagazineChurnTest,
                         ::testing::Values(ProtectionMode::kStrictPlus,
                                           ProtectionMode::kDeferPlus),
                         [](const auto &info) {
                             return info.param ==
                                            ProtectionMode::kStrictPlus
                                        ? std::string("strictPlus")
                                        : std::string("deferPlus");
                         });

// ---- engine lanes: the pair under worker threads, bit-identical -------------

TEST(MagazineChurnParallel, EnginePairMatchesSequentialBitForBit)
{
    const auto seq = runChurnPairOnEngine(1);
    const auto par = runChurnPairOnEngine(2);
    EXPECT_TRUE(seq.first == par.first) << "strict+ diverged at 2 threads";
    EXPECT_TRUE(seq.second == par.second) << "defer+ diverged at 2 threads";
    // And a lane replays the plain-Simulator scenario exactly.
    EXPECT_TRUE(seq.first ==
                runChurnScenario(ProtectionMode::kStrictPlus));
    EXPECT_TRUE(seq.second ==
                runChurnScenario(ProtectionMode::kDeferPlus));
}

// ---- workload-level: Poisson churn + contended cores, deterministic ---------

TEST(MagazineScalingChurn, TwoCorePoissonChurnIsDeterministic)
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.measure_packets = 1500;
    p.warmup_packets = 300;
    p.churn_per_ms = 0.3;
    p.churn_seed = 5;
    p.cores = 2;

    for (ProtectionMode mode :
         {ProtectionMode::kStrictPlus, ProtectionMode::kDeferPlus}) {
        const auto r1 = workloads::runStream(mode, nic::mlxProfile(), p);
        const auto r2 = workloads::runStream(mode, nic::mlxProfile(), p);
        EXPECT_EQ(r1.tx_packets, r2.tx_packets)
            << dma::modeName(mode);
        EXPECT_EQ(r1.cycles_per_packet, r2.cycles_per_packet)
            << dma::modeName(mode);
        EXPECT_EQ(r1.acct.get(Cat::kLockWait), r2.acct.get(Cat::kLockWait))
            << dma::modeName(mode);
        EXPECT_EQ(r1.iova_lock.wait_cycles, r2.iova_lock.wait_cycles)
            << dma::modeName(mode);
    }
}

} // namespace
} // namespace rio
