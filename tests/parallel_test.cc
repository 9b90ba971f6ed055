/**
 * @file
 * Tests for the conservative event engine and parallelFor: lane
 * isolation, mail ordering, horizon math, the threading rule (only an
 * uncoupled engine's lanes leave the calling thread), and the
 * headline property — byte-identical execution regardless of thread
 * count.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "des/parallel.h"
#include "obs/trace_ctx.h"

/** Global operator new calls in this binary (the no-allocation guard
 * reads it around a run of cross-lane messages). */
static std::atomic<unsigned long> g_operator_news{0};

void *
operator new(std::size_t size)
{
    g_operator_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// The replaced operator new is malloc, so free() is its match; GCC
// cannot tell once the delete is inlined into a new-expression's user.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace rio::des {
namespace {

TEST(ParallelFor, RunsEachIndexOnceOnAtMostMinThreadsN)
{
    for (const size_t n : {0u, 1u, 3u, 17u}) {
        for (const unsigned threads : {1u, 2u, 64u}) {
            std::vector<std::atomic<int>> runs(n);
            std::mutex mu;
            std::set<std::thread::id> ids;
            parallelFor(n, threads, [&](size_t i) {
                runs[i].fetch_add(1);
                std::lock_guard<std::mutex> g(mu);
                ids.insert(std::this_thread::get_id());
            });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(runs[i].load(), 1)
                    << "index " << i << ", n=" << n << ", threads=" << threads;
            EXPECT_LE(ids.size(), std::min<size_t>(threads, n))
                << "n=" << n << ", threads=" << threads;
        }
    }
}

TEST(ParallelFor, SingleThreadRunsInOrderOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    parallelFor(5, 1, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelEngine, CoupledEngineRunsEveryLaneOnTheCaller)
{
    // threads=4 is ignored once a lookahead is set: thin windows would
    // pay a cross-thread barrier each, so they all run inline.
    ParallelEngine eng(4);
    eng.setLookahead(10);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    u64 ran = 0;
    for (int i = 0; i < 4; ++i) {
        Lane &l = eng.addLane();
        for (int k = 1; k <= 20; ++k)
            l.sim().scheduleAt(static_cast<Nanos>(7 * k), [&] {
                ++ran;
                if (std::this_thread::get_id() != caller)
                    elsewhere.fetch_add(1);
            });
    }
    eng.run();
    EXPECT_EQ(ran, 80u);
    EXPECT_EQ(elsewhere.load(), 0);
    EXPECT_GT(eng.rounds(), 1u) << "coupled: many thin windows";
}

TEST(ParallelEngine, SingleLaneBehavesLikeSimulator)
{
    ParallelEngine eng(1);
    Lane &l = eng.addLane();
    std::vector<int> order;
    l.sim().scheduleAt(30, [&] { order.push_back(3); });
    l.sim().scheduleAt(10, [&] { order.push_back(1); });
    l.sim().scheduleAt(20, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(l.sim().now(), 30u);
    EXPECT_EQ(eng.eventsRun(), 3u);
    EXPECT_EQ(eng.messagesDelivered(), 0u);
}

TEST(ParallelEngine, UncoupledLanesFinishInOneWindow)
{
    // Default (infinite) lookahead: independent lanes never
    // synchronize mid-run — the parameter-sweep shape.
    ParallelEngine eng(2);
    std::array<u64, 3> ran{};
    for (int i = 0; i < 3; ++i) {
        Lane &l = eng.addLane();
        for (int k = 0; k <= i; ++k)
            l.sim().scheduleAt(static_cast<Nanos>(10 * (k + 1)),
                               [&ran, i] { ++ran[i]; });
    }
    eng.run();
    EXPECT_EQ(ran[0], 1u);
    EXPECT_EQ(ran[1], 2u);
    EXPECT_EQ(ran[2], 3u);
    EXPECT_EQ(eng.rounds(), 1u) << "no coupling, no extra barriers";
}

TEST(ParallelEngine, CrossLaneMailArrivesAtItsTimestamp)
{
    ParallelEngine eng(1);
    Lane &a = eng.addLane();
    Lane &b = eng.addLane();
    eng.setLookahead(10);
    Nanos seen = 0;
    a.sim().scheduleAt(5, [&] {
        a.sendTo(b, a.sim().now() + 10, [&] { seen = b.sim().now(); });
    });
    eng.run();
    EXPECT_EQ(seen, 15u);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

TEST(ParallelEngine, MailDrainSortsByTimeSourceThenSeq)
{
    // Three senders post to one destination at overlapping times; the
    // destination must run them in (when, src, seq) order no matter
    // the physical arrival interleaving.
    ParallelEngine eng(1);
    Lane &dst = eng.addLane();
    Lane &s1 = eng.addLane();
    Lane &s2 = eng.addLane();
    eng.setLookahead(100);
    std::vector<std::pair<Nanos, int>> got;
    // Sent from setup (main thread), deliberately out of order.
    s2.sendTo(dst, 200, [&] { got.emplace_back(200, 21); });
    s2.sendTo(dst, 100, [&] { got.emplace_back(100, 22); });
    s1.sendTo(dst, 200, [&] { got.emplace_back(200, 11); });
    s1.sendTo(dst, 100, [&] { got.emplace_back(100, 12); });
    eng.run();
    const std::vector<std::pair<Nanos, int>> want{
        {100, 12}, {100, 22}, {200, 11}, {200, 21}};
    EXPECT_EQ(got, want)
        << "same timestamp: lane 1 before lane 2; same lane: send order";
}

TEST(ParallelEngine, RunUntilAdvancesEveryLaneClock)
{
    ParallelEngine eng(1);
    Lane &a = eng.addLane();
    Lane &b = eng.addLane();
    b.sim().scheduleAt(40, [] {});
    eng.runUntil(1000);
    EXPECT_EQ(a.sim().now(), 1000u);
    EXPECT_EQ(b.sim().now(), 1000u);
    EXPECT_EQ(eng.eventsRun(), 1u);
}

/** Drive a ping-pong between two lanes; returns per-lane arrival
 * traces. The whole run is deterministic, so traces must be equal
 * for every thread count. */
std::array<std::vector<Nanos>, 2>
runPingPong(unsigned threads, int hops, Nanos wire)
{
    ParallelEngine eng(threads);
    Lane &a = eng.addLane();
    Lane &b = eng.addLane();
    eng.setLookahead(wire);
    std::array<std::vector<Nanos>, 2> trace;

    // Recursive hop: runs in `to`, then volleys back.
    struct Hop
    {
        static void
        arm(Lane &from, Lane &to, Nanos when, Nanos wire, int left,
            std::array<std::vector<Nanos>, 2> &trace)
        {
            from.sendTo(to, when, [&from, &to, wire, left, &trace] {
                trace[to.id()].push_back(to.sim().now());
                if (left > 1)
                    arm(to, from, to.sim().now() + wire, wire, left - 1,
                        trace);
            });
        }
    };
    Hop::arm(a, b, wire, wire, hops, trace);
    eng.run();
    return trace;
}

TEST(ParallelEngine, PingPongIsDeterministicAcrossThreadCounts)
{
    // A coupled engine ignores its thread count: these comparisons pin
    // that `threads` has no effect on what it runs.
    const auto seq = runPingPong(1, 64, 50);
    const auto par2 = runPingPong(2, 64, 50);
    const auto par4 = runPingPong(4, 64, 50);
    EXPECT_EQ(seq, par2);
    EXPECT_EQ(seq, par4);
    // 64 hops at wire latency 50: arrivals at 50, 100, ... 3200.
    ASSERT_EQ(seq[1].size(), 32u);
    EXPECT_EQ(seq[1].front(), 50u);
    EXPECT_EQ(seq[0].front(), 100u);
    EXPECT_EQ(seq[0].back() + seq[1].back(), 3150u + 3200u);
}

TEST(ParallelEngine, ManyLanesManyMessagesDeterministic)
{
    // A denser pattern: every lane fires events that message its ring
    // neighbor. Compare full arrival traces across thread counts,
    // which a coupled engine ignores.
    auto run = [](unsigned threads) {
        constexpr int kLanes = 8, kMsgs = 40;
        constexpr Nanos kWire = 25;
        ParallelEngine eng(threads);
        for (int i = 0; i < kLanes; ++i)
            eng.addLane();
        eng.setLookahead(kWire);
        auto trace = std::make_unique<
            std::array<std::vector<Nanos>, kLanes>>();
        for (int i = 0; i < kLanes; ++i) {
            Lane &self = eng.lane(static_cast<size_t>(i));
            Lane &next =
                eng.lane(static_cast<size_t>((i + 1) % kLanes));
            for (int m = 0; m < kMsgs; ++m) {
                const Nanos at = static_cast<Nanos>(10 + 7 * m + i);
                self.sim().scheduleAt(at, [&self, &next, &t = *trace] {
                    const Nanos when = self.sim().now() + kWire;
                    self.sendTo(next, when, [&next, &t] {
                        t[next.id()].push_back(next.sim().now());
                    });
                });
            }
        }
        eng.run();
        return std::make_pair(*trace, eng.eventsRun());
    };
    const auto seq = run(1);
    const auto par = run(4);
    EXPECT_EQ(seq.first, par.first);
    EXPECT_EQ(seq.second, par.second);
    EXPECT_EQ(seq.second, u64{8 * 40 * 2}) << "send event + delivery";
}

TEST(ParallelEngine, SendToAllocatesNothing)
{
    // A cluster's wire closure is its target NIC plus a WireMsg: 96
    // bytes with the payload vector (empty here, as on every control
    // message). Sent under a trace, it must reach the queue without a
    // heap box for the closure or for the trace.
    struct WireSized
    {
        u64 words[8] = {};
        std::vector<u8> payload;
    };
    ParallelEngine eng(1);
    eng.setLookahead(100);
    Lane &a = eng.addLane();
    Lane &b = eng.addLane();
    u64 delivered = 0;
    const auto volley = [&](int msgs) {
        obs::TraceScope scope(0xABCD);
        for (int i = 0; i < msgs; ++i) {
            WireSized msg;
            msg.words[0] = static_cast<u64>(i);
            auto fn = [sink = &delivered, msg = std::move(msg)] {
                *sink += 1 + msg.payload.size();
            };
            static_assert(sizeof(fn) >= 96, "smaller than the wire closure");
            a.sendTo(b, a.sim().now() + 100 + static_cast<Nanos>(i % 7),
                     std::move(fn));
        }
    };
    // Warm up: the slot table and the heap grow to their peak.
    volley(64);
    eng.run();
    const unsigned long before = g_operator_news.load();
    for (int round = 0; round < 20; ++round) {
        volley(64);
        eng.run();
    }
    EXPECT_EQ(g_operator_news.load() - before, 0u);
    EXPECT_EQ(delivered, 21u * 64);
    EXPECT_EQ(eng.messagesDelivered(), 21u * 64);
}

TEST(ParallelEngineDeathTest, MailOnAnUncoupledEngineIsCaught)
{
    // Without a lookahead the lanes may run on different threads, so
    // the unlocked inbox must refuse mail outright.
    EXPECT_DEATH(
        {
            ParallelEngine eng(1);
            Lane &a = eng.addLane();
            Lane &b = eng.addLane();
            a.sendTo(b, 10, [] {});
        },
        "coupled");
}

TEST(ParallelEngineDeathTest, WireFasterThanLookaheadIsCaught)
{
    // A message timestamped inside the current window violates the
    // conservative contract — the engine must refuse, not reorder.
    // Mail is delivered only at window barriers, where the receiver's
    // clock sits at the previous window's end, so late mail is caught
    // regardless of which lane sent it (both directions pinned here).
    // threads=1: the inline path spawns nothing, so the default
    // death-test style is safe.
    EXPECT_DEATH(
        {
            ParallelEngine eng(1);
            Lane &a = eng.addLane();
            Lane &b = eng.addLane();
            eng.setLookahead(100); // claims wire >= 100...
            a.sim().scheduleAt(90, [] {});
            b.sim().scheduleAt(0, [&] {
                b.sendTo(a, b.sim().now() + 1, [] {}); // ...but is 1
            });
            eng.run();
        },
        "past");
    EXPECT_DEATH(
        {
            ParallelEngine eng(1);
            Lane &a = eng.addLane();
            Lane &b = eng.addLane();
            eng.setLookahead(100);
            b.sim().scheduleAt(90, [] {});
            a.sim().scheduleAt(0, [&] {
                // Lower-indexed sender: before barrier-batched
                // delivery this was drained in-window and slipped
                // through; it must die just the same.
                a.sendTo(b, a.sim().now() + 1, [] {});
            });
            eng.run();
        },
        "past");
}

/** The wire == lookahead boundary: mail lands exactly on the horizon.
 * Returns the destination lane's full execution order (tag per
 * callback, in the order they ran). Must be identical for every
 * thread count — the window-boundary race this pins regressed once:
 * an in-window inbox drain delivered horizon mail in the current or
 * the next window depending on thread scheduling. */
std::vector<int>
runHorizonBoundary(unsigned threads)
{
    constexpr Nanos kWire = 50;
    ParallelEngine eng(threads);
    Lane &dst = eng.addLane();
    Lane &s1 = eng.addLane();
    Lane &s2 = eng.addLane();
    eng.setLookahead(kWire);
    std::vector<int> order;
    // dst's own event at the horizon timestamp, scheduled in-window.
    dst.sim().scheduleAt(10, [&] {
        dst.sim().scheduleAt(dst.sim().now() + kWire,
                             [&] { order.push_back(1); });
    });
    // Two senders mail dst at exactly t_min + lookahead = horizon;
    // the first mail callback chains a zero-delay (same-timestamp)
    // follow-up — the reviewer scenario for drain-batch sensitivity.
    s1.sim().scheduleAt(10, [&] {
        s1.sendTo(dst, s1.sim().now() + kWire, [&] {
            order.push_back(2);
            dst.sim().scheduleAt(dst.sim().now(),
                                 [&] { order.push_back(4); });
        });
    });
    s2.sim().scheduleAt(10, [&] {
        s2.sendTo(dst, s2.sim().now() + kWire,
                  [&] { order.push_back(3); });
    });
    eng.run();
    return order;
}

TEST(ParallelEngine, HorizonMailOrderIsThreadCountInvariant)
{
    // Pin the exact semantics: dst's own horizon event ran in the
    // window that scheduled it; both mails were delivered in one
    // barrier batch after it, sorted by source lane; the zero-delay
    // follow-up (scheduled during delivery) runs last. The engine is
    // coupled, so the thread count must not change any of it.
    const std::vector<int> want{1, 2, 3, 4};
    EXPECT_EQ(runHorizonBoundary(1), want);
    // The race was thread-schedule-dependent; give it iterations.
    for (int rep = 0; rep < 25; ++rep) {
        ASSERT_EQ(runHorizonBoundary(2), want) << "rep " << rep;
        ASSERT_EQ(runHorizonBoundary(4), want) << "rep " << rep;
    }
}

} // namespace
} // namespace rio::des
