/**
 * @file
 * Tests for the two IOVA allocators: functional correctness, the
 * Linux allocator's top-down placement and cached-node pathology, and
 * the magazine allocator's constant-time behaviour with its fuller
 * tree (paper §3.2 / Table 1).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "cycles/cycle_account.h"
#include "iova/linux_allocator.h"
#include "iova/magazine_allocator.h"

namespace rio::iova {
namespace {

using cycles::Cat;
using cycles::CycleAccount;

constexpr u64 kLimitPfn = (u64{1} << 32) >> kPageShift; // 1 Mi pfns

class LinuxAllocatorTest : public ::testing::Test
{
  protected:
    CycleAccount acct;
    cycles::CostModel cost;
    LinuxIovaAllocator alloc{kLimitPfn, &acct, cost};
};

TEST_F(LinuxAllocatorTest, AllocatesTopDown)
{
    auto a = alloc.alloc(1);
    auto b = alloc.alloc(1);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(a.value().pfn_hi, kLimitPfn);
    EXPECT_LT(b.value().pfn_hi, a.value().pfn_lo);
    EXPECT_EQ(alloc.live(), 2u);
}

TEST_F(LinuxAllocatorTest, SizeAlignedMultiPageAllocation)
{
    auto r = alloc.alloc(8);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r.value().npages(), 8u);
    EXPECT_EQ(r.value().pfn_lo % 8, 0u) << "Linux allocates size-aligned";
}

TEST_F(LinuxAllocatorTest, FindLocatesContainingRange)
{
    auto r = alloc.alloc(4);
    ASSERT_TRUE(r.isOk());
    auto found = alloc.find(r.value().pfn_lo + 2);
    ASSERT_TRUE(found.isOk());
    EXPECT_EQ(found.value().pfn_lo, r.value().pfn_lo);
    EXPECT_FALSE(alloc.find(12345).isOk());
}

TEST_F(LinuxAllocatorTest, FreeMakesSpaceReusable)
{
    auto a = alloc.alloc(1);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(alloc.free(a.value().pfn_lo).isOk());
    EXPECT_EQ(alloc.live(), 0u);
    auto b = alloc.alloc(1);
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(b.value().pfn_lo, a.value().pfn_lo) << "hole is refilled";
}

TEST_F(LinuxAllocatorTest, DoubleFreeFails)
{
    auto a = alloc.alloc(1);
    ASSERT_TRUE(alloc.free(a.value().pfn_lo).isOk());
    EXPECT_EQ(alloc.free(a.value().pfn_lo).code(), ErrorCode::kNotFound);
}

TEST_F(LinuxAllocatorTest, ExhaustionReturnsResourceExhausted)
{
    LinuxIovaAllocator tiny(8, &acct, cost);
    // pfns 1..8 available -> at most 8 single pages, minus alignment.
    std::vector<u64> got;
    for (;;) {
        auto r = tiny.alloc(1);
        if (!r.isOk()) {
            EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
            break;
        }
        got.push_back(r.value().pfn_lo);
        ASSERT_LE(got.size(), 8u);
    }
    EXPECT_GE(got.size(), 7u);
}

TEST_F(LinuxAllocatorTest, ChargesTheRightCategories)
{
    auto a = alloc.alloc(1);
    EXPECT_GT(acct.get(Cat::kMapIovaAlloc), 0u);
    EXPECT_EQ(acct.get(Cat::kUnmapIovaFind), 0u);
    (void)alloc.find(a.value().pfn_lo);
    EXPECT_GT(acct.get(Cat::kUnmapIovaFind), 0u);
    (void)alloc.free(a.value().pfn_lo);
    EXPECT_GT(acct.get(Cat::kUnmapIovaFree), 0u);
}

TEST_F(LinuxAllocatorTest, TreeStaysValidUnderChurn)
{
    Rng rng(5);
    std::vector<u64> live;
    for (int i = 0; i < 5000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            auto r = alloc.alloc(1);
            ASSERT_TRUE(r.isOk());
            live.push_back(r.value().pfn_lo);
        } else {
            const size_t idx = rng.below(live.size());
            ASSERT_TRUE(alloc.free(live[idx]).isOk());
            live.erase(live.begin() + static_cast<long>(idx));
        }
    }
    EXPECT_TRUE(alloc.validate());
    EXPECT_EQ(alloc.live(), live.size());
}

/**
 * The pathology of §3.2: a block of long-lived mappings sits at the
 * top of the space (Rx buffers mapped at device init). A FIFO churn
 * that frequently frees the *highest* transient mapping resets the
 * cached node, and the next allocation then rescans linearly across
 * the long-lived block. The stock allocator's average alloc scan
 * must therefore grow with the number of long-lived mappings.
 */
TEST(LinuxAllocatorPathology, ScanLengthGrowsWithLiveMappings)
{
    cycles::CostModel cost;
    // One pathology episode: (1) free the topmost mapping — its
    // successor is nil, so the cached node RESETS; (2) free a
    // transient far below — cache stays empty; (3) the next alloc
    // refills the top hole (cheap) and re-caches at the top; (4) the
    // alloc after that must scan from the top across the entire
    // long-lived block to reach the low hole. Interleaved Rx/Tx
    // (un)maps produce exactly this interleaving (paper §3.2).
    auto avg_scan = [&](u64 persistent) {
        CycleAccount acct;
        LinuxIovaAllocator alloc(kLimitPfn, &acct, cost);
        std::deque<u64> block; // long-lived block; front() is topmost
        for (u64 i = 0; i < persistent; ++i)
            block.push_back(alloc.alloc(1).value().pfn_lo);
        u64 low = alloc.alloc(1).value().pfn_lo; // transient below

        const u64 before = alloc.totalAllocVisits();
        const u64 calls_before = alloc.allocCalls();
        for (int i = 0; i < 50; ++i) {
            EXPECT_TRUE(alloc.free(block.front()).isOk()); // top: reset
            block.pop_front();
            EXPECT_TRUE(alloc.free(low).isOk()); // low hole
            block.push_front(alloc.alloc(1).value().pfn_lo); // refill top
            low = alloc.alloc(1).value().pfn_lo; // long scan down
        }
        return static_cast<double>(alloc.totalAllocVisits() - before) /
               static_cast<double>(alloc.allocCalls() - calls_before);
    };

    const double small = avg_scan(64);
    const double big = avg_scan(4096);
    EXPECT_GT(big, small * 8)
        << "allocation cost must scale with live long-lived mappings";
    EXPECT_GT(big, 1000.0) << "half the block per episode, 2 allocs each";
}

class MagazineAllocatorTest : public ::testing::Test
{
  protected:
    CycleAccount acct;
    cycles::CostModel cost;
    MagazineIovaAllocator alloc{kLimitPfn, &acct, cost};
};

TEST_F(MagazineAllocatorTest, RoundTrip)
{
    auto a = alloc.alloc(2);
    ASSERT_TRUE(a.isOk());
    EXPECT_EQ(alloc.live(), 1u);
    auto found = alloc.find(a.value().pfn_lo + 1);
    ASSERT_TRUE(found.isOk());
    ASSERT_TRUE(alloc.free(a.value().pfn_lo).isOk());
    EXPECT_EQ(alloc.live(), 0u);
}

TEST_F(MagazineAllocatorTest, FreedRangeIsRecycledFromMagazine)
{
    auto a = alloc.alloc(1);
    ASSERT_TRUE(alloc.free(a.value().pfn_lo).isOk());
    EXPECT_EQ(alloc.parked(), 1u);
    auto b = alloc.alloc(1);
    EXPECT_EQ(b.value().pfn_lo, a.value().pfn_lo);
    EXPECT_EQ(alloc.magazineHits(), 1u);
    EXPECT_EQ(alloc.parked(), 0u);
}

TEST_F(MagazineAllocatorTest, MagazinesAreSizeSegregated)
{
    auto small = alloc.alloc(1);
    auto big = alloc.alloc(4);
    ASSERT_TRUE(alloc.free(small.value().pfn_lo).isOk());
    ASSERT_TRUE(alloc.free(big.value().pfn_lo).isOk());
    auto big2 = alloc.alloc(4);
    EXPECT_EQ(big2.value().pfn_lo, big.value().pfn_lo)
        << "4-page magazine must serve 4-page allocation";
}

TEST_F(MagazineAllocatorTest, FindFailsOnParkedRange)
{
    auto a = alloc.alloc(1);
    ASSERT_TRUE(alloc.free(a.value().pfn_lo).isOk());
    EXPECT_FALSE(alloc.find(a.value().pfn_lo).isOk())
        << "a freed (parked) IOVA must not look allocated";
    EXPECT_EQ(alloc.free(a.value().pfn_lo).code(), ErrorCode::kNotFound);
}

TEST_F(MagazineAllocatorTest, SteadyStateAllocIsConstantTime)
{
    // Warm up: build the working set.
    std::deque<u64> window;
    for (int i = 0; i < 256; ++i)
        window.push_back(alloc.alloc(1).value().pfn_lo);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(alloc.free(window.front()).isOk());
        window.pop_front();
        window.push_back(alloc.alloc(1).value().pfn_lo);
    }
    acct.reset();
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(alloc.free(window.front()).isOk());
        window.pop_front();
        window.push_back(alloc.alloc(1).value().pfn_lo);
    }
    // Table 1 strict+: alloc 92, free 62. Allow modest slack.
    EXPECT_LT(acct.avg(Cat::kMapIovaAlloc), 150.0);
    EXPECT_LT(acct.avg(Cat::kUnmapIovaFree), 100.0);
    EXPECT_EQ(alloc.treeSize(), 256u) << "tree holds live + parked only";
}

TEST_F(MagazineAllocatorTest, TreeIsFullerThanLiveSet)
{
    std::vector<u64> batch;
    for (int i = 0; i < 100; ++i)
        batch.push_back(alloc.alloc(1).value().pfn_lo);
    for (u64 pfn : batch)
        ASSERT_TRUE(alloc.free(pfn).isOk());
    EXPECT_EQ(alloc.live(), 0u);
    EXPECT_EQ(alloc.treeSize(), 100u)
        << "parked ranges stay in the tree (the fuller-tree effect "
           "behind Table 1's costlier strict+ iova-find)";
}

/**
 * Property sweep over both allocators: random churn with model-based
 * checking of find()/free() semantics.
 */
enum class Kind { kLinux, kMagazine };

class AllocatorSweep
    : public ::testing::TestWithParam<std::tuple<Kind, u64, int>>
{
};

TEST_P(AllocatorSweep, RandomChurnKeepsSemantics)
{
    auto [kind, seed, ops] = GetParam();
    CycleAccount acct;
    cycles::CostModel cost;
    std::unique_ptr<IovaAllocator> alloc;
    if (kind == Kind::kLinux)
        alloc = std::make_unique<LinuxIovaAllocator>(kLimitPfn, &acct, cost);
    else
        alloc =
            std::make_unique<MagazineIovaAllocator>(kLimitPfn, &acct, cost);

    Rng rng(seed);
    std::vector<IovaRange> live;
    for (int i = 0; i < ops; ++i) {
        if (live.empty() || rng.chance(0.5)) {
            const u64 npages = 1 + rng.below(4);
            auto r = alloc->alloc(npages);
            ASSERT_TRUE(r.isOk());
            // Disjointness against all live ranges.
            for (const auto &other : live) {
                ASSERT_TRUE(r.value().pfn_hi < other.pfn_lo ||
                            r.value().pfn_lo > other.pfn_hi);
            }
            live.push_back(r.value());
        } else {
            const size_t idx = rng.below(live.size());
            const IovaRange victim = live[idx];
            auto found = alloc->find(victim.pfn_lo);
            ASSERT_TRUE(found.isOk());
            ASSERT_EQ(found.value().pfn_lo, victim.pfn_lo);
            ASSERT_TRUE(alloc->free(victim.pfn_lo).isOk());
            live.erase(live.begin() + static_cast<long>(idx));
        }
        ASSERT_EQ(alloc->live(), live.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, AllocatorSweep,
    ::testing::Combine(::testing::Values(Kind::kLinux, Kind::kMagazine),
                       ::testing::Values(u64{1}, u64{2}, u64{3}),
                       ::testing::Values(2000)));

std::unique_ptr<IovaAllocator>
makeAllocator(Kind kind, u32 rounds, CycleAccount *acct,
              const cycles::CostModel &cost)
{
    if (kind == Kind::kLinux)
        return std::make_unique<LinuxIovaAllocator>(kLimitPfn, acct, cost);
    auto mag = std::make_unique<MagazineIovaAllocator>(kLimitPfn, acct, cost);
    mag->setCoreCache(rounds);
    return mag;
}

class HandleSweep
    : public ::testing::TestWithParam<std::tuple<Kind, u32, u64>>
{
};

/**
 * Two allocators fed the same churn: one finds and frees each range
 * by pfn (a tree search), the other by the handle alloc() returned.
 * Every find and free must charge the same cycles and return the same
 * range, and the trees must stay identical; the handle side searches
 * nothing.
 */
TEST_P(HandleSweep, HandlesChargeWhatTheSearchCharges)
{
    auto [kind, rounds, seed] = GetParam();
    cycles::CostModel cost;
    CycleAccount by_pfn_acct;
    CycleAccount by_handle_acct;
    auto by_pfn = makeAllocator(kind, rounds, &by_pfn_acct, cost);
    auto by_handle = makeAllocator(kind, rounds, &by_handle_acct, cost);

    Rng rng(seed);
    std::vector<IovaRange> live; // by_handle's ranges
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const u64 npages = 1 + rng.below(4);
            auto a = by_pfn->alloc(npages);
            auto b = by_handle->alloc(npages);
            ASSERT_TRUE(a.isOk() && b.isOk());
            ASSERT_EQ(a.value().pfn_lo, b.value().pfn_lo);
            ASSERT_TRUE(b.value().handle);
            live.push_back(b.value());
        } else {
            const size_t idx = rng.below(live.size());
            const IovaRange victim = live[idx];
            // Search by any pfn of the range, as an unmap's address.
            const u64 pfn = victim.pfn_lo + rng.below(victim.npages());
            auto a = by_pfn->find(pfn);
            auto b = by_handle->find(victim.handle);
            ASSERT_TRUE(a.isOk() && b.isOk()) << "op " << i;
            ASSERT_EQ(b.value().pfn_lo, victim.pfn_lo);
            ASSERT_EQ(b.value().pfn_hi, victim.pfn_hi);
            ASSERT_EQ(by_handle_acct.get(Cat::kUnmapIovaFind),
                      by_pfn_acct.get(Cat::kUnmapIovaFind))
                << "op " << i;
            ASSERT_TRUE(by_pfn->free(a.value().pfn_lo).isOk());
            ASSERT_TRUE(by_handle->free(b.value().handle).isOk());
            ASSERT_EQ(by_handle_acct.get(Cat::kUnmapIovaFree),
                      by_pfn_acct.get(Cat::kUnmapIovaFree))
                << "op " << i;
            live.erase(live.begin() + static_cast<long>(idx));
        }
        ASSERT_EQ(by_handle_acct.total(), by_pfn_acct.total()) << "op " << i;
        ASSERT_TRUE(by_handle->tree().sameAs(by_pfn->tree())) << "op " << i;
    }
    EXPECT_EQ(by_handle->live(), live.size());
    EXPECT_EQ(by_handle->tree().searches(), 0u);
    EXPECT_GT(by_pfn->tree().searches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, HandleSweep,
    ::testing::Values(std::make_tuple(Kind::kLinux, 0u, u64{1}),
                      std::make_tuple(Kind::kLinux, 0u, u64{2}),
                      std::make_tuple(Kind::kMagazine, 0u, u64{1}),
                      std::make_tuple(Kind::kMagazine, 8u, u64{2})));

TEST_F(MagazineAllocatorTest, ParkedHandleFindsAndFreesNothing)
{
    auto a = alloc.alloc(1);
    ASSERT_TRUE(alloc.free(a.value().handle).isOk());
    EXPECT_EQ(alloc.find(a.value().handle).status().code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(alloc.free(a.value().handle).code(), ErrorCode::kNotFound);
    EXPECT_EQ(alloc.parked(), 1u);
}

#if defined(__SANITIZE_ADDRESS__)
/** A Linux range's node goes back to the tree's pool when it is freed;
 * ASan must catch a handle that outlives its range. */
TEST(LinuxAllocatorDeathTest, StaleHandleIsCaught)
{
    CycleAccount acct;
    cycles::CostModel cost;
    LinuxIovaAllocator alloc(kLimitPfn, &acct, cost);
    (void)alloc.alloc(1);
    auto a = alloc.alloc(1);
    ASSERT_TRUE(alloc.free(a.value().handle).isOk());
    EXPECT_DEATH((void)alloc.find(a.value().handle), "use-after-poison");
    EXPECT_DEATH((void)alloc.free(a.value().handle), "use-after-poison");
}
#endif

// ---- per-core magazine pair over the depot (ROADMAP perf debt) -------

/** With the core cache off (default) behaviour and charges are the
 * legacy per-handle depot, bit for bit. */
TEST(MagazineCoreCache, DefaultOffIsLegacyBitIdentical)
{
    CycleAccount legacy_acct, off_acct;
    cycles::CostModel cost;
    MagazineIovaAllocator legacy{kLimitPfn, &legacy_acct, cost};
    MagazineIovaAllocator off{kLimitPfn, &off_acct, cost};
    off.setCoreCache(16);
    off.setCoreCache(0); // install, then restore the legacy layout

    Rng rng_a(42), rng_b(42);
    std::vector<u64> live_a, live_b;
    for (int i = 0; i < 1500; ++i) {
        const bool do_alloc =
            live_a.empty() || rng_a.chance(0.55);
        (void)rng_b.chance(0.55); // keep streams aligned
        if (do_alloc) {
            auto a = legacy.alloc(1);
            auto b = off.alloc(1);
            ASSERT_TRUE(a.isOk());
            ASSERT_TRUE(b.isOk());
            ASSERT_EQ(a.value().pfn_lo, b.value().pfn_lo);
            live_a.push_back(a.value().pfn_lo);
            live_b.push_back(b.value().pfn_lo);
        } else {
            ASSERT_TRUE(legacy.free(live_a.back()).isOk());
            ASSERT_TRUE(off.free(live_b.back()).isOk());
            live_a.pop_back();
            live_b.pop_back();
        }
    }
    EXPECT_EQ(legacy_acct.total(), off_acct.total())
        << "core cache disabled must charge exactly the legacy costs";
    EXPECT_EQ(off.depotExchanges(), 0u);
}

/** Steady-state churn through the core pair touches the locked depot
 * only once per `rounds` ops — the Bonwick amortization the ROADMAP
 * perf-debt item asked for. */
TEST(MagazineCoreCache, DepotLockAmortizedToOncePerRounds)
{
    CycleAccount acct;
    cycles::CostModel cost;
    MagazineIovaAllocator alloc{kLimitPfn, &acct, cost};
    const u32 rounds = 16;
    alloc.setCoreCache(rounds);

    const int kOps = 4000; // alloc+free pairs, single size class
    for (int i = 0; i < kOps; ++i) {
        auto r = alloc.alloc(1);
        ASSERT_TRUE(r.isOk());
        ASSERT_TRUE(alloc.free(r.value().pfn_lo).isOk());
    }
    EXPECT_TRUE(alloc.validate());
    EXPECT_EQ(alloc.live(), 0u);
    // 2*kOps magazine ops; every op except depot exchanges and the
    // initial fresh carve is served by the loaded/previous pair.
    EXPECT_GE(alloc.coreHits(), static_cast<u64>(2 * kOps) - 1 -
                                    alloc.depotExchanges() * rounds);
    EXPECT_LE(alloc.depotExchanges(),
              static_cast<u64>(2 * kOps) / rounds + 2)
        << "more than one depot (lock) trip per " << rounds
        << " ops defeats the per-core pair";
}

/** Correctness under mixed-size churn with the core cache on:
 * disjoint live ranges, clean drain, valid tree. */
TEST(MagazineCoreCache, MixedChurnStaysConsistent)
{
    CycleAccount acct;
    cycles::CostModel cost;
    MagazineIovaAllocator alloc{kLimitPfn, &acct, cost};
    alloc.setCoreCache(8);

    Rng rng(7);
    std::vector<IovaRange> live;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.chance(0.6)) {
            auto r = alloc.alloc(1 + rng.below(3));
            ASSERT_TRUE(r.isOk());
            for (const auto &other : live)
                ASSERT_TRUE(r.value().pfn_hi < other.pfn_lo ||
                            r.value().pfn_lo > other.pfn_hi);
            live.push_back(r.value());
        } else {
            const size_t idx = rng.below(live.size());
            ASSERT_TRUE(alloc.free(live[idx].pfn_lo).isOk());
            live.erase(live.begin() + static_cast<long>(idx));
        }
        ASSERT_EQ(alloc.live(), live.size());
    }
    while (!live.empty()) {
        ASSERT_TRUE(alloc.free(live.back().pfn_lo).isOk());
        live.pop_back();
    }
    EXPECT_EQ(alloc.live(), 0u);
    EXPECT_TRUE(alloc.validate());
    EXPECT_GT(alloc.coreHits(), 0u);
}

/** Toggling the cache mid-life reparents parked ranges without
 * losing or duplicating any. */
TEST(MagazineCoreCache, ToggleFlushesWithoutLoss)
{
    CycleAccount acct;
    cycles::CostModel cost;
    MagazineIovaAllocator alloc{kLimitPfn, &acct, cost};
    alloc.setCoreCache(4);

    std::vector<u64> lows;
    for (int i = 0; i < 32; ++i) {
        auto r = alloc.alloc(1);
        ASSERT_TRUE(r.isOk());
        lows.push_back(r.value().pfn_lo);
    }
    for (u64 lo : lows)
        ASSERT_TRUE(alloc.free(lo).isOk());
    const u64 parked = alloc.parked();
    EXPECT_EQ(parked, 32u);

    alloc.setCoreCache(0); // core pair + depot flushed to flat stacks
    EXPECT_EQ(alloc.parked(), parked);
    alloc.setCoreCache(8); // reseeded from the stacks
    EXPECT_EQ(alloc.parked(), parked);

    // Every parked range is reallocatable exactly once.
    std::vector<u64> again;
    for (int i = 0; i < 32; ++i) {
        auto r = alloc.alloc(1);
        ASSERT_TRUE(r.isOk());
        again.push_back(r.value().pfn_lo);
    }
    std::sort(lows.begin(), lows.end());
    std::sort(again.begin(), again.end());
    EXPECT_EQ(lows, again);
    EXPECT_TRUE(alloc.validate());
}

} // namespace
} // namespace rio::iova
