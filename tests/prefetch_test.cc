/**
 * @file
 * Tests for the §5.4 prefetchers and the trace-replay harness,
 * including the paper's three findings as properties: stock
 * prefetchers get no prefetch hits on (un)map-churned traces,
 * modified ones need history, and the ring-sequential mechanism is
 * always right.
 */
#include <gtest/gtest.h>

#include "prefetch/replay.h"

namespace rio::prefetch {
namespace {

using dma::DmaTrace;
using dma::TraceEvent;

/** Synthesize the canonical ring workload trace:
 * map k+burst, access k, unmap k, ... in ring order. */
DmaTrace
ringTrace(u64 ring_entries, u64 laps, u64 base_pfn = 1000)
{
    DmaTrace t;
    // Prefill the ring.
    for (u64 i = 0; i < ring_entries; ++i)
        t.add(TraceEvent::Kind::kMap, base_pfn + i);
    u64 next_pfn = base_pfn + ring_entries;
    for (u64 lap = 0; lap < laps; ++lap) {
        for (u64 i = 0; i < ring_entries; ++i) {
            const u64 pfn =
                base_pfn + (lap * ring_entries + i) % (2 * ring_entries);
            t.add(TraceEvent::Kind::kAccess, pfn);
            t.add(TraceEvent::Kind::kUnmap, pfn);
            t.add(TraceEvent::Kind::kMap,
                  base_pfn +
                      (lap * ring_entries + i + ring_entries) %
                          (2 * ring_entries));
            (void)next_pfn;
        }
    }
    return t;
}

TEST(MarkovPrefetcherTest, LearnsSuccessors)
{
    MarkovPrefetcher p(16);
    std::vector<u64> preds;
    p.access(1, &preds);
    p.access(2, &preds);
    p.access(3, &preds);
    preds.clear();
    p.access(1, &preds); // successor of 1 was 2
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 2u);
}

TEST(MarkovPrefetcherTest, CapacityEvictsOldEntries)
{
    MarkovPrefetcher p(4);
    std::vector<u64> preds;
    for (u64 i = 0; i < 100; ++i)
        p.access(i, &preds);
    EXPECT_LE(p.historySize(), 4u);
}

TEST(MarkovPrefetcherTest, InvalidateForgets)
{
    MarkovPrefetcher p(16);
    std::vector<u64> preds;
    p.access(1, &preds);
    p.access(2, &preds);
    p.invalidate(1);
    preds.clear();
    p.access(1, &preds);
    EXPECT_TRUE(preds.empty()) << "forgotten entries predict nothing";
}

TEST(RecencyPrefetcherTest, PredictsStackNeighbours)
{
    RecencyPrefetcher p(16);
    std::vector<u64> preds;
    p.access(10, &preds);
    p.access(20, &preds);
    p.access(30, &preds); // stack: 30 20 10
    preds.clear();
    p.access(20, &preds); // neighbours: 30 (above), 10 (below)
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0], 30u);
    EXPECT_EQ(preds[1], 10u);
}

TEST(DistancePrefetcherTest, LearnsStridePatterns)
{
    DistancePrefetcher p(16);
    std::vector<u64> preds;
    // Constant stride +4: distances 4,4,... -> predicts pfn+4.
    for (u64 pfn = 100; pfn < 140; pfn += 4)
        p.access(pfn, &preds);
    preds.clear();
    p.access(140, &preds);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 144u);
}

TEST(SequentialRingPrefetcherTest, PredictsNextMappedEntry)
{
    SequentialRingPrefetcher p;
    std::vector<u64> preds;
    p.onMap(5);
    p.onMap(9);
    p.onMap(2);
    p.access(5, &preds);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 9u) << "next in map order, not address order";
    preds.clear();
    p.invalidate(9);
    p.access(5, &preds);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 2u);
}

// ---- replay properties -----------------------------------------------------

TEST(ReplayTest, StockPrefetchersGetNoPrefetchHitsOnChurn)
{
    // Paper finding 1: with immediate invalidation, the stock
    // prefetchers are ineffective.
    const DmaTrace t = ringTrace(64, 20);
    ReplayConfig stock;
    stock.tlb_entries = 16;
    stock.store_invalidated = false;

    MarkovPrefetcher markov(1024);
    RecencyPrefetcher recency(1024);
    for (TlbPrefetcher *p :
         std::initializer_list<TlbPrefetcher *>{&markov, &recency}) {
        const auto r = replayTrace(t, *p, stock);
        EXPECT_EQ(r.prefetch_hits, 0u) << p->name();
    }
}

TEST(ReplayTest, ModifiedPrefetchersNeedHistoryBeyondRing)
{
    // Paper finding 2: modified variants work once history > ring.
    const u64 ring = 64;
    const DmaTrace t = ringTrace(ring, 30);
    ReplayConfig modified;
    modified.tlb_entries = 8;
    modified.store_invalidated = true;

    MarkovPrefetcher small(ring / 4);
    MarkovPrefetcher big(ring * 4);
    const auto r_small = replayTrace(t, small, modified);
    const auto r_big = replayTrace(t, big, modified);
    EXPECT_GT(r_big.prefetch_hits, r_small.prefetch_hits * 2)
        << "history larger than the ring must predict much better";
}

TEST(ReplayTest, RingSequentialIsNearPerfectWithTwoEntries)
{
    // Paper finding 3: the rIOTLB mechanism needs 2 entries and is
    // always right.
    const DmaTrace t = ringTrace(64, 30);
    SequentialRingPrefetcher p;
    ReplayConfig cfg;
    cfg.tlb_entries = 2;
    cfg.store_invalidated = true;
    const auto r = replayTrace(t, p, cfg);
    EXPECT_GT(r.hitRate(), 0.95);
    EXPECT_EQ(r.rejected_predictions, 0u)
        << "ring-order predictions are always live";
}

TEST(ReplayTest, ValidationRejectsUnmappedPredictions)
{
    // A prediction pointing at an unmapped pfn must be rejected
    // rather than installed (it would fault in hardware).
    DmaTrace t;
    t.add(TraceEvent::Kind::kMap, 1);
    t.add(TraceEvent::Kind::kMap, 2);
    t.add(TraceEvent::Kind::kAccess, 1);
    t.add(TraceEvent::Kind::kAccess, 2);
    t.add(TraceEvent::Kind::kUnmap, 2);
    t.add(TraceEvent::Kind::kAccess, 1); // markov predicts 2: rejected

    MarkovPrefetcher p(16);
    ReplayConfig cfg;
    cfg.store_invalidated = true;
    cfg.validate_against_live = true;
    const auto r = replayTrace(t, p, cfg);
    EXPECT_GE(r.rejected_predictions, 1u);
}

TEST(ReplayTest, TlbInvalidationOnUnmap)
{
    // After an unmap, a re-access must miss even if it was cached.
    DmaTrace t;
    t.add(TraceEvent::Kind::kMap, 7);
    t.add(TraceEvent::Kind::kAccess, 7);
    t.add(TraceEvent::Kind::kAccess, 7); // hit
    t.add(TraceEvent::Kind::kUnmap, 7);
    t.add(TraceEvent::Kind::kMap, 7);
    t.add(TraceEvent::Kind::kAccess, 7); // must miss again
    RecencyPrefetcher p(8);
    ReplayConfig cfg;
    const auto r = replayTrace(t, p, cfg);
    EXPECT_EQ(r.accesses, 3u);
    EXPECT_EQ(r.hits, 1u);
    EXPECT_EQ(r.misses, 2u);
}

/** Parameterized sweep: hit rate is monotone-ish in TLB size. */
class ReplayTlbSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ReplayTlbSweep, BiggerTlbNeverHurts)
{
    const DmaTrace t = ringTrace(32, 20);
    RecencyPrefetcher p1(256), p2(256);
    ReplayConfig small_cfg, big_cfg;
    small_cfg.tlb_entries = GetParam();
    big_cfg.tlb_entries = GetParam() * 4;
    small_cfg.store_invalidated = big_cfg.store_invalidated = true;
    const auto small = replayTrace(t, p1, small_cfg);
    const auto big = replayTrace(t, p2, big_cfg);
    EXPECT_GE(big.hits + 1, small.hits);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReplayTlbSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

} // namespace
} // namespace rio::prefetch
