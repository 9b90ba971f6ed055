/**
 * @file
 * Observability tests: metrics-registry identity and determinism,
 * per-op exactness of the DMA-path owner stats and their one-time
 * publication at teardown (also under parallel rows), histogram bucket
 * boundaries, the event timeline's bounded rings and
 * Chrome-trace export, and the flight recorder's dump-on-fault path.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "cycles/cycle_account.h"
#include "des/parallel.h"
#include "dma/baseline_handle.h"
#include "dma/dma_context.h"
#include "des/core.h"
#include "dma/fault.h"
#include "obs/flight.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace_ctx.h"

namespace rio::obs {
namespace {

/** Global obs state is process-wide; start each test from scratch. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        registry().clear();
        timeline().clear();
        timeline().setRecording(false);
        setSloRecording(false);
    }

    void TearDown() override { SetUp(); }
};

// ---- registry ---------------------------------------------------------------

TEST_F(ObsTest, MergingTheSameIdentityAddsIntoOneMetric)
{
    registry().merge({{"iotlb.hits", {}, 3},
                      {"iotlb.hits", {{"dev", "nic0"}}, 1}});
    registry().merge({{"iotlb.hits", {}, 2},
                      {"q.ops", {{"b", "2"}, {"a", "1"}}, 4},
                      {"q.ops", {{"a", "1"}, {"b", "2"}}, 1}});
    const auto snap = registry().snapshot();
    ASSERT_EQ(snap.size(), 3u) << "labels are part of the identity";
    EXPECT_EQ(snap[0].key, "iotlb.hits");
    EXPECT_EQ(snap[0].values, std::vector<u64>{5});
    EXPECT_EQ(snap[1].key, "iotlb.hits{dev=nic0}");
    EXPECT_EQ(snap[1].values, std::vector<u64>{1});
    EXPECT_EQ(snap[2].key, "q.ops{a=1,b=2}") << "label order is canonical";
    EXPECT_EQ(snap[2].values, std::vector<u64>{5});
}

TEST_F(ObsTest, HistogramBucketBoundariesAreInclusiveUpperBounds)
{
    Histogram h(std::vector<u64>{10, 100});
    for (u64 v : {5u, 10u, 11u, 100u, 101u})
        h.observe(v);
    ASSERT_EQ(h.buckets().size(), 3u) << "two bounds + overflow";
    EXPECT_EQ(h.buckets()[0], 2u) << "5 and 10 (v <= 10)";
    EXPECT_EQ(h.buckets()[1], 2u) << "11 and 100 (v <= 100)";
    EXPECT_EQ(h.buckets()[2], 1u) << "101 overflows";
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 227u);
    EXPECT_DOUBLE_EQ(h.avg(), 227.0 / 5.0);
    EXPECT_EQ(h.quantileBound(0.4), 10u);
    EXPECT_EQ(h.quantileBound(0.8), 100u);
}

TEST_F(ObsTest, MergedHistogramsAddBucketsCountsAndSums)
{
    Histogram a(std::vector<u64>{10, 100});
    Histogram b(std::vector<u64>{10, 100});
    a.observe(5);
    b.observe(50);
    b.observe(500);
    registry().merge({{"lat", {}, 0, &a}});
    registry().merge({{"lat", {}, 0, &b}});
    const auto snap = registry().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].values, (std::vector<u64>{1, 1, 1, 3, 555}))
        << "buckets, then count and sum";
}

TEST_F(ObsTest, SnapshotIsSortedByKeyWhateverTheMergeOrder)
{
    Histogram lat(cycleBuckets());
    lat.observe(500);
    registry().merge({{"b.ops", {}, 1}, {"a.lat", {}, 0, &lat}});
    registry().merge({{"a.ops", {}, 7}});
    const auto first = registry().snapshot();
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0].key, "a.lat");
    EXPECT_EQ(first[1].key, "a.ops");
    EXPECT_EQ(first[2].key, "b.ops");

    registry().clear();
    registry().merge({{"a.ops", {}, 7}});
    registry().merge({{"a.lat", {}, 0, &lat}, {"b.ops", {}, 1}});
    EXPECT_EQ(registry().snapshot(), first);
}

TEST_F(ObsTest, ResetValuesKeepsRegistrationsAndPointers)
{
    registry().merge({{"x.ops", {}, 9}});
    ASSERT_EQ(registry().metrics().size(), 1u);
    const Counter *c = registry().metrics()[0]->counter.get();
    registry().resetValues();
    EXPECT_EQ(c->value, 0u) << "same storage, zeroed";
    registry().merge({{"x.ops", {}, 1}});
    ASSERT_EQ(registry().metrics().size(), 1u);
    EXPECT_EQ(registry().metrics()[0]->counter.get(), c);
    EXPECT_EQ(c->get(), 1u);
}

// ---- per-op exactness on the DMA hot path -----------------------------------

TEST_F(ObsTest, DmaPathMetricsAreExactAfterEachOp)
{
    u64 syncs = 0;
    {
        // One-entry IOTLB, so the second translation evicts the first.
        dma::DmaContext ctx(cycles::defaultCostModel(),
                            iommu::IotlbConfig{1, 1});
        cycles::CycleAccount acct;
        auto h = ctx.makeHandle(dma::ProtectionMode::kStrict,
                                iommu::Bdf{0, 3, 0}, &acct);
        auto &baseline = static_cast<dma::BaselineDmaHandle &>(*h);
        const PhysAddr buf = ctx.memory().allocContiguous(2 * kPageSize);

        const iommu::IotlbStats &tlb = ctx.iommu().iotlb().stats();
        const iommu::IoPageTable &table = baseline.pageTable();
        const Histogram &maps = h->mapCycles();
        const Histogram &unmaps = h->unmapCycles();
        // Every value is read straight off the owner the op just
        // updated; nothing is published before teardown.
        auto expect = [&](u64 h_, u64 m, u64 e, u64 walks, u64 nmap,
                          u64 nunmap, const char *after) {
            EXPECT_EQ(tlb.hits, h_) << after;
            EXPECT_EQ(tlb.misses, m) << after;
            EXPECT_EQ(tlb.evictions, e) << after;
            EXPECT_EQ(table.levelReads(1), walks) << after;
            EXPECT_EQ(maps.count(), nmap) << after;
            EXPECT_EQ(unmaps.count(), nunmap) << after;
            EXPECT_TRUE(registry().metrics().empty()) << after;
        };
        u64 word = 0;

        auto a = h->map(0, buf, 64, iommu::DmaDir::kBidir);
        ASSERT_TRUE(a.isOk());
        expect(0, 0, 0, 0, 1, 0, "map a");
        ASSERT_TRUE(h->deviceRead(a.value().device_addr, &word, 8).isOk());
        expect(0, 1, 0, 1, 1, 0, "first read of a: miss + walk");
        ASSERT_TRUE(h->deviceRead(a.value().device_addr, &word, 8).isOk());
        expect(1, 1, 0, 1, 1, 0, "second read of a: hit");

        auto b = h->map(0, buf + kPageSize, 64, iommu::DmaDir::kBidir);
        ASSERT_TRUE(b.isOk());
        expect(1, 1, 0, 1, 2, 0, "map b");
        ASSERT_TRUE(h->deviceRead(b.value().device_addr, &word, 8).isOk());
        expect(1, 2, 1, 2, 2, 0, "read of b: miss evicts a");

        const Cycles before_unmap = acct.total();
        ASSERT_TRUE(h->unmap(a.value(), /*end_of_burst=*/false).isOk());
        expect(1, 2, 1, 2, 2, 1, "unmap a, mid-burst");
        EXPECT_EQ(unmaps.sum(), acct.total() - before_unmap)
            << "the histogram holds the unmap's whole cycle delta";
        syncs = baseline.invalQueue().stats().sync_cycles.count();
        EXPECT_EQ(syncs, 1u) << "strict: one synchronous invalidation";
    }
    // Teardown published each owner's totals exactly once.
    const auto snap = registry().snapshot();
    const auto value = [&snap](const std::string &key, size_t i) {
        for (const SnapshotEntry &e : snap)
            if (e.key == key)
                return e.values.at(i);
        ADD_FAILURE() << key << " missing";
        return u64{0};
    };
    const size_t count = cycleBuckets().size() + 1; // after the buckets
    EXPECT_EQ(value("iotlb.hits", 0), 1u);
    EXPECT_EQ(value("iotlb.misses", 0), 2u);
    EXPECT_EQ(value("riotlb.implicit_invalidations", 0), 0u);
    EXPECT_EQ(value("dma.map_cycles{mode=strict}", count), 2u);
    EXPECT_EQ(value("dma.unmap_cycles{mode=strict}", count), 1u);
    EXPECT_EQ(value("qi.sync_cycles", count), syncs);
}

// ---- teardown merge under parallel rows -------------------------------------

namespace {

/** One row's owner stats, read just before its teardown. */
struct RowTotals
{
    dma::ProtectionMode mode{};
    u64 iotlb_hits = 0;
    u64 iotlb_misses = 0;
    u64 implicit = 0;
    std::vector<u64> qi_sync;      //!< buckets, count, sum
    std::vector<u64> map_cycles;   //!< buckets, count, sum
    std::vector<u64> unmap_cycles; //!< buckets, count, sum
};

std::vector<u64>
flatten(const Histogram &h)
{
    std::vector<u64> v = h.buckets();
    v.push_back(h.count());
    v.push_back(h.sum());
    return v;
}

void
addInto(std::vector<u64> &acc, const std::vector<u64> &v)
{
    if (acc.empty())
        acc.assign(v.size(), 0);
    for (size_t i = 0; i < v.size(); ++i)
        acc[i] += v[i];
}

/** A short ring-ordered map/read/unmap stream on a private context. */
RowTotals
runRow(size_t row)
{
    const dma::ProtectionMode mode =
        dma::kEvaluatedModes[row % dma::kEvaluatedModes.size()];
    RowTotals t;
    t.mode = mode;
    dma::DmaContext ctx(cycles::defaultCostModel(),
                        iommu::IotlbConfig{4, 2});
    cycles::CycleAccount acct;
    auto h = ctx.makeHandle(mode, iommu::Bdf{0, 3, 0}, &acct, {16});
    const PhysAddr buf = ctx.memory().allocContiguous(8 * kPageSize);
    const unsigned ops = 40 + 7 * static_cast<unsigned>(row);
    std::vector<dma::DmaMapping> live;
    u64 word = 0;
    for (unsigned i = 0; i < ops; ++i) {
        auto m = h->map(0, buf + (i % 8) * kPageSize, 64,
                        iommu::DmaDir::kBidir);
        EXPECT_TRUE(m.isOk());
        live.push_back(m.value());
        EXPECT_TRUE(h->deviceRead(m.value().device_addr, &word, 8).isOk());
        if (live.size() == 4) {
            for (size_t k = 0; k < live.size(); ++k)
                EXPECT_TRUE(h->unmap(live[k], k + 1 == live.size()).isOk());
            live.clear();
        }
    }
    for (size_t k = 0; k < live.size(); ++k)
        EXPECT_TRUE(h->unmap(live[k], k + 1 == live.size()).isOk());

    const iommu::IotlbStats &tlb = ctx.iommu().iotlb().stats();
    t.iotlb_hits = tlb.hits;
    t.iotlb_misses = tlb.misses;
    t.implicit = ctx.riommu().riotlb().stats().implicit_invalidations;
    if (dma::modeUsesBaselineIommu(mode))
        t.qi_sync = flatten(static_cast<dma::BaselineDmaHandle &>(*h)
                                .invalQueue()
                                .stats()
                                .sync_cycles);
    t.map_cycles = flatten(h->mapCycles());
    t.unmap_cycles = flatten(h->unmapCycles());
    return t;
}

} // namespace

TEST_F(ObsTest, TeardownTotalsAreThreadCountInvariantSums)
{
    constexpr size_t kRows = 14; // every evaluated mode, twice
    auto run = [](unsigned threads) {
        registry().clear();
        std::vector<RowTotals> rows(kRows);
        des::parallelFor(kRows, threads,
                         [&rows](size_t i) { rows[i] = runRow(i); });
        return std::make_pair(registry().snapshot(), rows);
    };
    const auto [one, rows] = run(1);
    const auto four = run(4).first;
    EXPECT_EQ(one, four) << "the merged totals ignore thread count";

    // Expected: the per-row owner stats, summed by identity.
    std::map<std::string, std::vector<u64>> want;
    for (const RowTotals &r : rows) {
        addInto(want["iotlb.hits"], {r.iotlb_hits});
        addInto(want["iotlb.misses"], {r.iotlb_misses});
        addInto(want["riotlb.implicit_invalidations"], {r.implicit});
        if (!r.qi_sync.empty())
            addInto(want["qi.sync_cycles"], r.qi_sync);
        const std::string mode = dma::modeName(r.mode);
        addInto(want["dma.map_cycles{mode=" + mode + "}"], r.map_cycles);
        addInto(want["dma.unmap_cycles{mode=" + mode + "}"],
                r.unmap_cycles);
    }
    std::map<std::string, std::vector<u64>> got;
    for (const SnapshotEntry &e : one)
        got[e.key] = e.values;
    EXPECT_EQ(got, want);
    EXPECT_GT(got["riotlb.implicit_invalidations"].at(0), 0u);
    EXPECT_GT(got["qi.sync_cycles"].at(cycleBuckets().size() + 1), 0u);
}

// ---- timeline ---------------------------------------------------------------

TEST_F(ObsTest, EventRingKeepsNewestAndCountsDrops)
{
    EventRing ring(4);
    for (u64 i = 1; i <= 6; ++i) {
        Event e;
        e.t = i;
        ring.push(e);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 6u);
    EXPECT_EQ(ring.dropped(), 2u);
    const auto events = ring.inOrder();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].t, i + 3) << "oldest-first, newest kept";
}

TEST_F(ObsTest, EventRingNewestIsLastPushedBeforeAndAfterWrap)
{
    EventRing ring(3);
    EXPECT_EQ(ring.newest(), nullptr);
    for (u64 i = 1; i <= 7; ++i) {
        Event e;
        e.t = i;
        ring.push(e);
        ASSERT_NE(ring.newest(), nullptr);
        EXPECT_EQ(ring.newest()->t, i);
        EXPECT_EQ(ring.newest()->t, ring.inOrder().back().t);
    }
    ring.clear();
    EXPECT_EQ(ring.newest(), nullptr);
}

TEST_F(ObsTest, TracksRecordOnlyWhileRecording)
{
    Event e;
    Recorder off;
    off.emit(e);
    EXPECT_TRUE(off.tracks().empty()) << "gate off: no tracks";
    EXPECT_EQ(off.ring().pushed(), 1u) << "flight ring is always on";

    timeline().setRecording(true);
    Recorder on; // the gate is read when a recorder is built
    on.emit(e);
    ASSERT_EQ(on.tracks().size(), 1u);
    EXPECT_EQ(on.tracks()[0].pushed(), 1u);
    timeline().add({on.take(), off.take()});
    EXPECT_EQ(timeline().recorded(), 1u);
    EXPECT_TRUE(on.tracks().empty()) << "take() hands the tracks over";
}

/** Read back a written trace file. */
std::string
writeAndRead(const std::string &path)
{
    EXPECT_TRUE(timeline().writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

TEST_F(ObsTest, ChromeTraceExportPairsAsyncSpans)
{
    timeline().setRecording(true);
    Recorder rec;

    Event issue;
    issue.kind = Ev::kQiIssue;
    issue.t = 1000;
    issue.id = 7;
    rec.emit(issue);

    Event done = issue;
    done.kind = Ev::kQiComplete;
    done.t = 3000;
    done.arg = 2150;
    rec.emit(done);

    Event span;
    span.kind = Ev::kMap;
    span.t = 5000;
    span.dur_ns = 200;
    rec.emit(span);
    timeline().add({rec.take()});

    const std::string json = writeAndRead("/tmp/rio_obs_trace_test.json");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos)
        << "async begin for qi_issue";
    EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos)
        << "async end for qi_complete";
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos)
        << "complete span for the map";
}

// ---- flight recorder --------------------------------------------------------

TEST_F(ObsTest, FaultRecoveryFiresFlightDumpWithRingContents)
{
    des::Simulator sim;
    des::Core core(sim, cycles::defaultCostModel());
    Recorder rec;
    core.setRecorder(&rec, 0);
    // Preload the ring with the events "before the failure".
    Event e;
    e.kind = Ev::kMap;
    e.t = 42;
    e.bdf = 0x0018;
    core.emit(e);

    dma::FaultEngine eng;
    eng.bindCore(&core);
    eng.setPolicy(dma::FaultPolicy::kRetryRemap);
    Status out = eng.recover(
        Status(ErrorCode::kIoPageFault, "test fault"), [] {},
        [] { return Status::ok(); });
    EXPECT_TRUE(out.isOk());

    ASSERT_EQ(rec.dumpCount(), 1u);
    ASSERT_EQ(rec.dumps().size(), 1u);
    const FlightDump &d = rec.dumps().back();
    EXPECT_EQ(d.reason, "dma_fault");
    const std::string text = dumpText(d);
    EXPECT_NE(text.find("map"), std::string::npos)
        << "the preloaded event is in the dump:\n"
        << text;
    EXPECT_NE(text.find("fault"), std::string::npos)
        << "the faulting event itself is in the dump:\n"
        << text;
    EXPECT_EQ(rec.ring().newest()->kind, Ev::kFlightDump)
        << "the dump leaves its marker in the ring";
    EXPECT_EQ(eng.stats().faults_seen, 1u);
}

TEST_F(ObsTest, DumpLimitRetainsFirstFewButCountsAll)
{
    Recorder rec;
    for (int i = 0; i < 6; ++i)
        rec.dump("storm");
    EXPECT_EQ(rec.dumpCount(), 6u);
    EXPECT_EQ(rec.dumps().size(), Recorder::kDumpLimit)
        << "beyond the limit a dump is only a sequence bump";
}

/** One row as a bench builds it on a worker: two machines (row
 * indices 0 and 1), machine 1 posting a traced op that machine 0
 * sees, and @p dumps dumps on machine 0. */
std::vector<Recording>
buildRow(unsigned dumps)
{
    std::vector<Recording> row;
    Recorder a, b;
    b.setPid(1);
    Event post;
    post.kind = Ev::kOpPost;
    post.pid = 1;
    post.trace = (u64{1} << 48) | 5; // minted on row machine 1
    b.emit(post);
    Event wire = post;
    wire.kind = Ev::kWireTx;
    wire.pid = 0;
    a.emit(wire);
    for (unsigned i = 0; i < dumps; ++i)
        a.dump("row_dump");
    row.push_back(a.take());
    row.push_back(b.take());
    return row;
}

TEST_F(ObsTest, TimelineNumbersMachinesByPositionInAnyThreadOrder)
{
    timeline().setRecording(true);
    auto exportRows = [](unsigned threads) {
        timeline().clear();
        std::vector<std::vector<Recording>> rows(3);
        des::parallelFor(rows.size(), threads,
                         [&](size_t i) { rows[i] = buildRow(i + 1); });
        for (auto &row : rows)
            timeline().add(std::move(row));
        return writeAndRead("/tmp/rio_obs_rows_trace_test.json");
    };
    const std::string one = exportRows(1);
    EXPECT_EQ(one, exportRows(3)) << "rows added in order: same bytes";

    // Row r's machines are tracks 2r+1 and 2r+2; trace ids follow
    // their origin machine, so they stay unique across rows.
    const auto tracks = timeline().tracks();
    ASSERT_EQ(tracks.size(), 6u);
    for (u32 pid = 1; pid <= 6; ++pid) {
        const auto &events = tracks.at(pid << 16);
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events[0].pid, pid);
        const u32 origin = pid % 2 ? pid + 1 : pid;
        EXPECT_EQ(events[0].trace, (u64{origin} << 48) | 5);
    }

    // 1 + 2 + 3 dumps, all on each row's machine 0: the budget prints
    // the first four in row, machine and dump order.
    const auto &dumps = timeline().dumps();
    ASSERT_EQ(dumps.size(), Recorder::kDumpLimit);
    const u16 want_pid[] = {1, 3, 3, 5};
    const u64 want_seq[] = {1, 1, 2, 1};
    for (size_t i = 0; i < dumps.size(); ++i) {
        EXPECT_EQ(dumps[i].pid, want_pid[i]) << "dump " << i;
        EXPECT_EQ(dumps[i].seq, want_seq[i]) << "dump " << i;
    }
    EXPECT_NE(one.find("row_dump"), std::string::npos)
        << "the export embeds the printed dumps";
}

// ---- quantile interpolation -------------------------------------------------

TEST_F(ObsTest, QuantileBoundInterpolatesWithinBucket)
{
    // 100 uniform values 1..100 into two buckets; the old
    // implementation returned each bucket's upper bound for every
    // quantile inside it (p50 == p99 == 100 here would be nonsense).
    Histogram h(std::vector<u64>{50, 100});
    for (u64 v = 1; v <= 100; ++v)
        h.observe(v);
    EXPECT_EQ(h.quantileBound(0.5), 50u) << "p50 lands at bucket 0's end";
    EXPECT_EQ(h.quantileBound(0.99), 99u)
        << "p99 interpolates inside bucket 1, not its bound";
    EXPECT_EQ(h.quantileBound(0.25), 25u);
    EXPECT_EQ(h.quantileBound(1.0), 100u);
}

TEST_F(ObsTest, QuantileBoundOverflowCollapsesToLastFiniteBound)
{
    Histogram h(std::vector<u64>{50, 100});
    h.observe(25);
    h.observe(150); // overflow bucket: no finite upper edge
    EXPECT_EQ(h.quantileBound(1.0), 100u)
        << "overflow has no width to interpolate across";
    EXPECT_EQ(h.quantileBound(0.5), 50u)
        << "within a finite bucket the estimate assumes uniform mass";
}

// ---- trace context ----------------------------------------------------------

TEST_F(ObsTest, TraceScopeAttachesAmbientTraceToEmittedEvents)
{
    Recorder rec;
    EXPECT_EQ(currentTrace(), 0u);
    {
        TraceScope outer(0x1234);
        Event e;
        e.kind = Ev::kMap;
        e.t = 10;
        rec.emit(e); // trace 0: inherits the ambient scope
        {
            TraceScope inner(0); // zero: keeps the outer trace
            EXPECT_EQ(currentTrace(), 0x1234u);
        }
        Event tagged;
        tagged.kind = Ev::kUnmap;
        tagged.t = 20;
        tagged.trace = 0x9999; // explicit tag wins over the scope
        rec.emit(tagged);
    }
    EXPECT_EQ(currentTrace(), 0u) << "scope restores on exit";

    const auto events = rec.ring().inOrder();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].trace, 0x1234u);
    EXPECT_EQ(events[1].trace, 0x9999u);
}

// ---- exact SLO recording ----------------------------------------------------

TEST_F(ObsTest, OpLatencyRecorderDropsNewestWhenFull)
{
    OpLatencyRecorder r(/*capacity=*/4);
    for (u64 i = 1; i <= 6; ++i) {
        OpRecord rec;
        rec.latency_ns = static_cast<Nanos>(i);
        r.record(rec);
    }
    EXPECT_EQ(r.pushed(), 6u);
    EXPECT_EQ(r.dropped(), 2u);
    const auto kept = r.inOrder();
    ASSERT_EQ(kept.size(), 4u);
    // Drop-newest keeps a deterministic prefix of the op stream — the
    // retained set cannot depend on lane interleaving.
    for (size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(kept[i].latency_ns, static_cast<Nanos>(i + 1));
}

TEST_F(ObsTest, SloReportComputesExactQuantilesAndTailAttribution)
{
    std::vector<OpRecord> ops;
    for (u64 i = 1; i <= 100; ++i) {
        OpRecord rec;
        rec.latency_ns = static_cast<Nanos>(i * 10);
        rec.cat_cycles[0] = 5; // baseline work in every op
        if (i >= 99) {         // the two tail ops burn cat 3
            rec.cat_cycles[3] = 1000;
            rec.retransmits = 2;
        }
        ops.push_back(rec);
    }
    const SloReport rep = computeSloReport(ops);
    EXPECT_EQ(rep.count, 100u);
    EXPECT_EQ(rep.p50, 500);  // nearest rank: ceil(0.5*100) = 50th
    EXPECT_EQ(rep.p99, 990);  // ceil(0.99*100) = 99th
    EXPECT_EQ(rep.p999, 1000);
    EXPECT_EQ(rep.max, 1000);
    EXPECT_EQ(rep.tail_ops, 2u) << "ops at or above the p99 value";
    EXPECT_EQ(rep.tail_retransmits, 4u);
    EXPECT_EQ(rep.top_cat, 3u) << "cat 3 dominates the tail ops";
    EXPECT_GT(rep.top_cat_share, 0.99);
    EXPECT_EQ(rep.all_cat_cycles[0], 500u);
}

TEST_F(ObsTest, SloRecordingGateIsProcessWide)
{
    EXPECT_FALSE(sloRecording());
    setSloRecording(true);
    EXPECT_TRUE(sloRecording());
    setSloRecording(false);
    EXPECT_FALSE(sloRecording());
}

// ---- chrome export of op spans ----------------------------------------------

TEST_F(ObsTest, ChromeTraceExportStitchesOpSpansById)
{
    timeline().setRecording(true);
    Recorder rec;
    const u64 trace = 0xabcd01; // minted on row machine 0

    Event post;
    post.kind = Ev::kOpPost;
    post.t = 1000;
    post.trace = trace;
    rec.emit(post);

    Event wire;
    wire.kind = Ev::kWireTx;
    wire.t = 1600;
    wire.dur_ns = 600;
    wire.trace = trace;
    rec.emit(wire);

    Event rtx;
    rtx.kind = Ev::kRetransmit;
    rtx.t = 1800;
    rtx.trace = trace;
    rec.emit(rtx);

    Event cqe;
    cqe.kind = Ev::kOpCqe;
    cqe.t = 2500;
    cqe.trace = trace;
    rec.emit(cqe);
    timeline().add({rec.take()});

    const std::string json = writeAndRead("/tmp/rio_obs_op_trace_test.json");
    EXPECT_NE(json.find("\"cat\": \"op\""), std::string::npos);
    EXPECT_NE(json.find("\"id2\": {\"global\": \"0x1000000abcd01\"}"),
              std::string::npos)
        << "op spans stitch cross-machine via the global id2, whose "
           "origin is the minting machine's track id";
    EXPECT_NE(json.find("\"ph\": \"n\""), std::string::npos)
        << "retransmit renders as an async instant on the op";
    EXPECT_NE(json.find("\"rioMeta\""), std::string::npos)
        << "export carries recorded/dropped accounting";
    EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

} // namespace
} // namespace rio::obs
