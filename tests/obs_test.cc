/**
 * @file
 * Observability tests: metrics-registry identity and determinism,
 * per-op exactness of the DMA-path metrics, histogram bucket
 * boundaries, the event timeline's bounded rings and
 * Chrome-trace export, and the flight recorder's dump-on-fault path.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "cycles/cycle_account.h"
#include "dma/dma_context.h"
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
        flightRecorder().clear();
        clearFlightDumpArchive();
        setSloRecording(false);
    }

    void TearDown() override { SetUp(); }
};

// Timeline/flight paths collapse under -DRIO_OBS=OFF; only the
// registry (the always-available tier) is testable there. Must be
// expanded in the test body itself: GTEST_SKIP() in a helper would
// only return from the helper.
#define RIO_REQUIRE_OBS_COMPILED()                                     \
    do {                                                               \
        if (!kObsCompiled)                                             \
            GTEST_SKIP() << "observability compiled out (RIO_OBS=OFF)"; \
    } while (0)

// ---- registry ---------------------------------------------------------------

TEST_F(ObsTest, SameIdentityReturnsSameMetric)
{
    Counter &a = registry().counter("iotlb.hits");
    Counter &b = registry().counter("iotlb.hits");
    EXPECT_EQ(&a, &b);
    Counter &c = registry().counter("iotlb.hits", {{"dev", "nic0"}});
    EXPECT_NE(&a, &c) << "labels are part of the identity";
    a.inc(3);
    c.inc();
    EXPECT_EQ(b.value, 3u);
    EXPECT_EQ(c.value, 1u);
}

TEST_F(ObsTest, GaugeTracksHighWater)
{
    Gauge &g = registry().gauge("qi.depth");
    g.set(5);
    g.set(12);
    g.set(2);
    EXPECT_EQ(g.value, 2);
    EXPECT_EQ(g.high, 12);
    g.add(-2);
    EXPECT_EQ(g.value, 0);
    EXPECT_EQ(g.high, 12);
}

TEST_F(ObsTest, HistogramBucketBoundariesAreInclusiveUpperBounds)
{
    Histogram &h =
        registry().histogram("lat", {}, std::vector<u64>{10, 100});
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

TEST_F(ObsTest, SnapshotIsDeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        registry().counter("a.ops").inc(7);
        registry().gauge("a.depth", {{"q", "0"}}).set(3);
        registry().histogram("a.lat").observe(500);
        registry().counter("b.ops").inc();
    };
    run();
    const auto first = registry().snapshot();
    ASSERT_FALSE(first.empty());

    registry().clear();
    run();
    const auto second = registry().snapshot();
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].key, second[i].key) << i;
        EXPECT_TRUE(first[i] == second[i]) << first[i].key;
    }
}

TEST_F(ObsTest, ResetValuesKeepsRegistrationsAndPointers)
{
    Counter &c = registry().counter("x.ops");
    c.inc(9);
    registry().resetValues();
    EXPECT_EQ(c.value, 0u) << "same storage, zeroed";
    EXPECT_EQ(&registry().counter("x.ops"), &c);
}

// ---- per-op exactness on the DMA hot path -----------------------------------

TEST_F(ObsTest, DmaPathMetricsAreExactAfterEachOp)
{
    // One-entry IOTLB, so the second translation evicts the first.
    dma::DmaContext ctx(cycles::defaultCostModel(),
                        iommu::IotlbConfig{1, 1});
    cycles::CycleAccount acct;
    auto h = ctx.makeHandle(dma::ProtectionMode::kStrict,
                            iommu::Bdf{0, 3, 0}, &acct);
    const PhysAddr buf = ctx.memory().allocContiguous(2 * kPageSize);

    const Counter &hits = registry().counter("iotlb.hits");
    const Counter &misses = registry().counter("iotlb.misses");
    const Counter &evictions = registry().counter("iotlb.evictions");
    const Counter &l1_reads = registry().counter(
        "iommu.pt_walk.level_reads", {{"level", "1"}});
    const Labels strict = {{"mode", "strict"}};
    const Histogram &maps = registry().histogram("dma.map_cycles", strict);
    const Histogram &unmaps =
        registry().histogram("dma.unmap_cycles", strict);
    // No snapshot() anywhere: every value is read straight off the
    // metric the op just updated.
    auto expect = [&](u64 h_, u64 m, u64 e, u64 walks, u64 nmap,
                      u64 nunmap, const char *after) {
        EXPECT_EQ(hits.get(), h_) << after;
        EXPECT_EQ(misses.get(), m) << after;
        EXPECT_EQ(evictions.get(), e) << after;
        EXPECT_EQ(l1_reads.get(), walks) << after;
        EXPECT_EQ(maps.count(), nmap) << after;
        EXPECT_EQ(unmaps.count(), nunmap) << after;
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
}

TEST_F(ObsTest, ConcurrentUpdatesFromManyThreadsLoseNothing)
{
    // The parallel engine's lanes share the process-wide registry;
    // counters are relaxed atomics, gauges CAS their high-water mark,
    // histograms serialize behind their spinlock. 4 threads x 10k
    // updates must all land (this is also the TSan lane's meat).
    Counter &c = registry().counter("mt.counter");
    Gauge &g = registry().gauge("mt.gauge");
    Histogram &h = registry().histogram("mt.hist", {}, {100});
    constexpr int kThreads = 4, kPerThread = 10000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                c.inc();
                g.add(1);
                h.observe(static_cast<u64>(i % 200));
            }
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.get(), u64{kThreads} * kPerThread);
    EXPECT_EQ(g.value, i64{kThreads} * kPerThread);
    EXPECT_EQ(g.high, i64{kThreads} * kPerThread);
    EXPECT_EQ(h.count(), u64{kThreads} * kPerThread);
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
    RIO_REQUIRE_OBS_COMPILED();
    Event e;
    e.pid = timeline().allocPid();
    timeline().emit(e);
    EXPECT_EQ(timeline().recorded(), 0u) << "gate off: tracks empty";
    EXPECT_GE(flightRecorder().ring().pushed(), 1u)
        << "flight ring is always on";

    timeline().setRecording(true);
    timeline().emit(e);
    EXPECT_EQ(timeline().recorded(), 1u);
}

TEST_F(ObsTest, ChromeTraceExportPairsAsyncSpans)
{
    RIO_REQUIRE_OBS_COMPILED();
    timeline().setRecording(true);
    const u16 pid = timeline().allocPid();

    Event issue;
    issue.kind = Ev::kQiIssue;
    issue.t = 1000;
    issue.id = timeline().nextSpanId();
    issue.pid = pid;
    timeline().emit(issue);

    Event done = issue;
    done.kind = Ev::kQiComplete;
    done.t = 3000;
    done.arg = 2150;
    timeline().emit(done);

    Event span;
    span.kind = Ev::kMap;
    span.t = 5000;
    span.dur_ns = 200;
    span.pid = pid;
    timeline().emit(span);

    const std::string path = "/tmp/rio_obs_trace_test.json";
    ASSERT_TRUE(timeline().writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

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
    RIO_REQUIRE_OBS_COMPILED();
    // Preload the ring with the events "before the failure".
    Event e;
    e.kind = Ev::kMap;
    e.t = 42;
    e.bdf = 0x0018;
    timeline().emit(e);

    dma::FaultEngine eng;
    eng.setPolicy(dma::FaultPolicy::kRetryRemap);
    Status out = eng.recover(
        Status(ErrorCode::kIoPageFault, "test fault"), [] {},
        [] { return Status::ok(); });
    EXPECT_TRUE(out.isOk());

    ASSERT_GE(flightRecorder().dumpCount(), 1u);
    const FlightDump *d = flightRecorder().lastDump();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->reason, "dma_fault");
    EXPECT_NE(d->text.find("map"), std::string::npos)
        << "the preloaded event is in the dump:\n"
        << d->text;
    EXPECT_NE(d->text.find("fault"), std::string::npos)
        << "the faulting event itself is in the dump:\n"
        << d->text;
    EXPECT_EQ(registry().counter("flight.dumps").value, 1u);
}

TEST_F(ObsTest, DumpLimitRetainsFirstFewButCountsAll)
{
    RIO_REQUIRE_OBS_COMPILED();
    flightRecorder().setDumpLimit(2);
    for (int i = 0; i < 5; ++i)
        flightDump("storm");
    EXPECT_EQ(flightRecorder().dumpCount(), 5u);
    EXPECT_EQ(flightRecorder().dumps().size(), 2u)
        << "beyond the limit a dump is only a sequence bump";
    EXPECT_EQ(flightDumpArchive().size(), 2u)
        << "the archive honours the recorder's limit too";
    EXPECT_EQ(registry().counter("flight.dumps").value, 5u);
    flightRecorder().setDumpLimit(FlightRecorder::kDefaultDumpLimit);
}

TEST_F(ObsTest, WorkerThreadDumpsReachProcessWideArchive)
{
    RIO_REQUIRE_OBS_COMPILED();
    flightDump("main_side");
    // A dump fired from a parallelFor worker (an assertion inside a
    // sweep lane or bench row) lives in that thread's recorder, which
    // dies with the thread — the archive keeps it inspectable.
    std::thread worker([] {
        Event e;
        e.kind = Ev::kFault;
        e.t = 77;
        timeline().emit(e); // lands in the worker's own flight ring
        flightDump("worker_side");
    });
    worker.join();
    EXPECT_EQ(flightRecorder().dumps().size(), 1u)
        << "the per-thread recorder only sees its own dump";
    const auto archive = flightDumpArchive();
    ASSERT_EQ(archive.size(), 2u) << "the archive sees both";
    EXPECT_EQ(archive[0].reason, "main_side");
    EXPECT_EQ(archive[1].reason, "worker_side");
    EXPECT_NE(archive[1].text.find("fault"), std::string::npos)
        << "worker-side ring contents survive the thread:\n"
        << archive[1].text;

    // And the trace export embeds the worker-side dump marker.
    const std::string path = "/tmp/rio_obs_archive_trace_test.json";
    ASSERT_TRUE(timeline().writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());
    EXPECT_NE(json.find("worker_side"), std::string::npos)
        << "chrome trace reads the archive, not one thread's dumps";
}

// ---- quantile interpolation -------------------------------------------------

TEST_F(ObsTest, QuantileBoundInterpolatesWithinBucket)
{
    // 100 uniform values 1..100 into two buckets; the old
    // implementation returned each bucket's upper bound for every
    // quantile inside it (p50 == p99 == 100 here would be nonsense).
    Histogram &h =
        registry().histogram("lat.uniform", {}, std::vector<u64>{50, 100});
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
    Histogram &h =
        registry().histogram("lat.over", {}, std::vector<u64>{50, 100});
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
    RIO_REQUIRE_OBS_COMPILED();
    EXPECT_EQ(currentTrace(), 0u);
    {
        TraceScope outer(0x1234);
        Event e;
        e.kind = Ev::kMap;
        e.t = 10;
        timeline().emit(e); // trace 0: inherits the ambient scope
        {
            TraceScope inner(0); // zero: keeps the outer trace
            EXPECT_EQ(currentTrace(), 0x1234u);
        }
        Event tagged;
        tagged.kind = Ev::kUnmap;
        tagged.t = 20;
        tagged.trace = 0x9999; // explicit tag wins over the scope
        timeline().emit(tagged);
    }
    EXPECT_EQ(currentTrace(), 0u) << "scope restores on exit";

    const auto events = flightRecorder().ring().inOrder();
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
    RIO_REQUIRE_OBS_COMPILED();
    timeline().setRecording(true);
    const u16 pid = timeline().allocPid();
    const u64 trace = 0xabcd01;

    Event post;
    post.kind = Ev::kOpPost;
    post.t = 1000;
    post.pid = pid;
    post.trace = trace;
    timeline().emit(post);

    Event wire;
    wire.kind = Ev::kWireTx;
    wire.t = 1600;
    wire.dur_ns = 600;
    wire.pid = pid;
    wire.trace = trace;
    timeline().emit(wire);

    Event rtx;
    rtx.kind = Ev::kRetransmit;
    rtx.t = 1800;
    rtx.pid = pid;
    rtx.trace = trace;
    timeline().emit(rtx);

    Event cqe;
    cqe.kind = Ev::kOpCqe;
    cqe.t = 2500;
    cqe.pid = pid;
    cqe.trace = trace;
    timeline().emit(cqe);

    const std::string path = "/tmp/rio_obs_op_trace_test.json";
    ASSERT_TRUE(timeline().writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"cat\": \"op\""), std::string::npos);
    EXPECT_NE(json.find("\"id2\": {\"global\": \"0xabcd01\"}"),
              std::string::npos)
        << "op spans stitch cross-machine via the global id2";
    EXPECT_NE(json.find("\"ph\": \"n\""), std::string::npos)
        << "retransmit renders as an async instant on the op";
    EXPECT_NE(json.find("\"rioMeta\""), std::string::npos)
        << "export carries recorded/dropped accounting";
    EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

} // namespace
} // namespace rio::obs
