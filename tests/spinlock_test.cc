/**
 * @file
 * Tests for the deterministic virtual-time spinlock: queued-acquire
 * semantics between two cores, zero-cost uncontended and single-core
 * paths, bit-identical contention across reruns of the same two-core
 * workload, and the headline property that the rIOMMU modes take no
 * locks at all (zero lock-wait cycles on any core count). K-core
 * stream and RR runs under fault injection and churn reach their
 * targets, replay bit for bit and leave no leaked mappings.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "cycles/cycle_account.h"
#include "des/core.h"
#include "des/parallel.h"
#include "des/simulator.h"
#include "des/spinlock.h"
#include "nic/profile.h"
#include "sys/machine.h"
#include "workloads/netperf_rr.h"
#include "workloads/stream.h"

namespace rio::des {
namespace {

using cycles::Cat;

class SpinlockTest : public ::testing::Test
{
  protected:
    cycles::CostModel cost_ = cycles::defaultCostModel();
    Simulator sim_;
    Core a_{sim_, cost_};
    Core b_{sim_, cost_};
    SimSpinlock lock_{cost_, "test"};
};

TEST_F(SpinlockTest, UncontendedAcquireIsFree)
{
    Cycles waited = ~Cycles{0};
    a_.post([&] {
        waited = lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, 500);
        lock_.release(&a_);
    });
    sim_.run();
    EXPECT_EQ(waited, 0u);
    EXPECT_EQ(a_.acct().get(Cat::kLockWait), 0u);
    EXPECT_EQ(lock_.stats().acquisitions, 1u);
    EXPECT_EQ(lock_.stats().contended, 0u);
}

TEST_F(SpinlockTest, SecondCoreSpinsForTheOverlap)
{
    // Both items start at sim time 0; A runs first (FIFO) and holds
    // the lock for 1000 cycles of virtual time. B's item also starts
    // at t=0, so its acquire overlaps A's critical section and must
    // spin for the full 1000 cycles.
    constexpr Cycles kHold = 1000;
    a_.post([&] {
        lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, kHold);
        lock_.release(&a_);
    });
    Cycles waited = 0;
    b_.post([&] {
        waited = lock_.acquire(&b_, &b_.acct());
        lock_.release(&b_);
    });
    sim_.run();
    // The ns<->cycles round trip (integer ns, ceil back to cycles)
    // may shave or add a few cycles.
    EXPECT_GE(waited, kHold - 4);
    EXPECT_LE(waited, kHold + 1);
    EXPECT_EQ(b_.acct().get(Cat::kLockWait), waited);
    EXPECT_EQ(a_.acct().get(Cat::kLockWait), 0u);
    EXPECT_EQ(lock_.stats().contended, 1u);
    EXPECT_EQ(lock_.stats().wait_cycles, waited);
}

TEST_F(SpinlockTest, WaitAdvancesVirtualNowToGrantTime)
{
    constexpr Cycles kHold = 3100; // 1 us at 3.1 GHz
    Nanos release_at = 0, grant_at = 0;
    a_.post([&] {
        lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, kHold);
        release_at = a_.virtualNow();
        lock_.release(&a_);
    });
    b_.post([&] {
        lock_.acquire(&b_, &b_.acct());
        grant_at = b_.virtualNow();
        lock_.release(&b_);
    });
    sim_.run();
    EXPECT_GE(grant_at, release_at);
    EXPECT_LE(grant_at - release_at, 1u); // rounding slack
}

TEST_F(SpinlockTest, DisjointCriticalSectionsNeverSpin)
{
    a_.post([&] {
        lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, 100);
        lock_.release(&a_);
    });
    // B's item starts only after A's critical section is long over.
    sim_.scheduleAt(1000000, [&] {
        b_.post([&] {
            Cycles w = lock_.acquire(&b_, &b_.acct());
            EXPECT_EQ(w, 0u);
            lock_.release(&b_);
        });
    });
    sim_.run();
    EXPECT_EQ(lock_.stats().contended, 0u);
    EXPECT_EQ(b_.acct().get(Cat::kLockWait), 0u);
}

TEST_F(SpinlockTest, NullCoreAcquiresInstantly)
{
    EXPECT_EQ(lock_.acquire(nullptr, nullptr), 0u);
    lock_.release(nullptr);
    EXPECT_EQ(lock_.stats().acquisitions, 1u);
    EXPECT_EQ(lock_.stats().contended, 0u);
}

TEST_F(SpinlockTest, NullGuardIsANoOp)
{
    SpinGuard guard(nullptr, &a_, &a_.acct());
    SUCCEED();
}

// --- Engine lanes: contention replay across thread counts ---------

/** One two-core contention scene on one lane's simulator. */
struct LockScenario
{
    struct Outcome
    {
        Cycles waited = 0;
        u64 acquisitions = 0, contended = 0;
        Cycles wait_cycles = 0;

        bool
        operator==(const Outcome &o) const
        {
            return waited == o.waited &&
                   acquisitions == o.acquisitions &&
                   contended == o.contended &&
                   wait_cycles == o.wait_cycles;
        }
    };

    cycles::CostModel cost = cycles::defaultCostModel();
    Core a, b;
    SimSpinlock lock;
    Outcome out;

    LockScenario(Simulator &sim, Cycles hold)
        : a(sim, cost), b(sim, cost), lock(cost, "lane")
    {
        a.post([this, hold] {
            lock.acquire(&a, &a.acct());
            a.acct().charge(Cat::kProcessing, hold);
            lock.release(&a);
        });
        b.post([this] {
            out.waited = lock.acquire(&b, &b.acct());
            lock.release(&b);
        });
    }

    Outcome
    finish()
    {
        out.acquisitions = lock.stats().acquisitions;
        out.contended = lock.stats().contended;
        out.wait_cycles = lock.stats().wait_cycles;
        return out;
    }
};

TEST(SpinlockParallelTest, LaneContentionIsBitIdenticalAcrossThreads)
{
    // Four lanes with different hold times: the virtual-time lock's
    // spin accounting is part of the simulation, so running the lanes
    // on worker threads must not move a single cycle.
    constexpr std::array<Cycles, 4> kHolds = {500, 1000, 3100, 50};
    const auto run = [&](unsigned threads) {
        ParallelEngine eng(threads);
        std::vector<std::unique_ptr<LockScenario>> scenes;
        for (const Cycles hold : kHolds)
            scenes.push_back(
                std::make_unique<LockScenario>(eng.addLane().sim(), hold));
        eng.run();
        std::vector<LockScenario::Outcome> outs;
        for (auto &s : scenes)
            outs.push_back(s->finish());
        return outs;
    };
    const auto seq = run(1);
    const auto par = run(2);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i] == par[i]) << "lane " << i;
        // And the contention is real on every lane, not trivially 0.
        EXPECT_EQ(seq[i].acquisitions, 2u);
        EXPECT_EQ(seq[i].contended, 1u);
        EXPECT_GT(seq[i].waited, 0u);
    }
}

// --- Workload-level determinism -----------------------------------

workloads::StreamParams
quickParams()
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.measure_packets = 2000;
    p.warmup_packets = 500;
    return p;
}

/** One K-core run: the aggregate and each flow's window. */
struct CoresRun
{
    workloads::RunResult total;
    std::vector<workloads::RunResult> flows;
};

/** Drive a flow-driver run (StreamRun or RrRun) with @p cores flows. */
template <typename Run, typename Params>
CoresRun
runCores(dma::ProtectionMode mode, unsigned cores, Params p)
{
    p.cores = cores;
    Simulator sim;
    Run run(sim, mode, nic::mlxProfile(), p);
    sim.run();
    return {run.collect(), run.collectFlows()};
}

CoresRun
streamCores(dma::ProtectionMode mode, unsigned cores,
            const workloads::StreamParams &p = quickParams())
{
    return runCores<workloads::StreamRun>(mode, cores, p);
}

double
lockWaitPerPacket(const workloads::RunResult &r)
{
    return static_cast<double>(r.acct.get(Cat::kLockWait)) /
           static_cast<double>(std::max<u64>(r.tx_packets, 1));
}

TEST(SpinlockDeterminismTest, TwoContendingCoresAreBitIdentical)
{
    const auto run = [] {
        return streamCores(dma::ProtectionMode::kStrict, 2);
    };
    const CoresRun c1 = run();
    const CoresRun c2 = run();
    const workloads::RunResult &r1 = c1.total;
    const workloads::RunResult &r2 = c2.total;

    // The whole point of the virtual-time lock: contention is part of
    // the deterministic simulation, so reruns agree bit for bit.
    EXPECT_GT(lockWaitPerPacket(r1), 0.0);
    EXPECT_EQ(r1.tx_packets, r2.tx_packets);
    EXPECT_EQ(r1.cycles_per_packet, r2.cycles_per_packet);
    EXPECT_EQ(lockWaitPerPacket(r1), lockWaitPerPacket(r2));
    EXPECT_EQ(r1.iova_lock.acquisitions, r2.iova_lock.acquisitions);
    EXPECT_EQ(r1.iova_lock.contended, r2.iova_lock.contended);
    EXPECT_EQ(r1.iova_lock.wait_cycles, r2.iova_lock.wait_cycles);
    EXPECT_EQ(r1.inval_lock.wait_cycles, r2.inval_lock.wait_cycles);
    ASSERT_EQ(c1.flows.size(), 2u);
    ASSERT_EQ(c1.flows.size(), c2.flows.size());
    for (size_t i = 0; i < c1.flows.size(); ++i) {
        EXPECT_EQ(c1.flows[i].acct.get(Cat::kLockWait),
                  c2.flows[i].acct.get(Cat::kLockWait));
        EXPECT_EQ(c1.flows[i].tx_packets, c2.flows[i].tx_packets);
    }
}

TEST(SpinlockDeterminismTest, ContentionGrowsWithCores)
{
    const auto r2 = streamCores(dma::ProtectionMode::kStrict, 2).total;
    const auto r4 = streamCores(dma::ProtectionMode::kStrict, 4).total;
    EXPECT_GT(lockWaitPerPacket(r2), 0.0);
    EXPECT_GT(lockWaitPerPacket(r4), lockWaitPerPacket(r2));
    EXPECT_GT(r4.cycles_per_packet, r2.cycles_per_packet);
}

TEST(SpinlockDeterminismTest, RiommuTakesNoLocks)
{
    for (dma::ProtectionMode mode :
         {dma::ProtectionMode::kRiommu, dma::ProtectionMode::kRiommuNc}) {
        const CoresRun c = streamCores(mode, 2);
        EXPECT_EQ(lockWaitPerPacket(c.total), 0.0) << dma::modeName(mode);
        EXPECT_EQ(c.total.iova_lock.acquisitions, 0u)
            << dma::modeName(mode);
        EXPECT_EQ(c.total.inval_lock.acquisitions, 0u)
            << dma::modeName(mode);
        EXPECT_EQ(c.flows.size(), 2u) << dma::modeName(mode);
        for (const auto &flow : c.flows)
            EXPECT_EQ(flow.acct.get(Cat::kLockWait), 0u)
                << dma::modeName(mode);
    }
}

TEST(SpinlockDeterminismTest, RrScalingContendsAndIsDeterministic)
{
    workloads::RrParams p = workloads::rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 400;
    p.warmup_transactions = 50;
    const auto run = [&](dma::ProtectionMode mode) {
        return runCores<workloads::RrRun>(mode, 2, p);
    };
    const CoresRun c1 = run(dma::ProtectionMode::kStrict);
    const CoresRun c2 = run(dma::ProtectionMode::kStrict);
    EXPECT_EQ(c1.flows.size(), 2u);
    EXPECT_GT(c1.total.iova_lock.acquisitions, 0u);
    EXPECT_EQ(c1.total.cycles_per_packet, c2.total.cycles_per_packet);
    EXPECT_EQ(lockWaitPerPacket(c1.total), lockWaitPerPacket(c2.total));
    EXPECT_EQ(c1.total.iova_lock.wait_cycles,
              c2.total.iova_lock.wait_cycles);

    const CoresRun rio = run(dma::ProtectionMode::kRiommu);
    EXPECT_EQ(lockWaitPerPacket(rio.total), 0.0);
    EXPECT_EQ(rio.total.iova_lock.acquisitions, 0u);
}

TEST(SpinlockDeterminismTest, SingleCoreNeverWaits)
{
    // One core can never overlap itself: the N-core machinery with
    // cores = 1 must charge exactly zero lock-wait cycles, which is
    // what keeps the seed's single-core results bit-for-bit intact.
    const auto r = streamCores(dma::ProtectionMode::kStrict, 1).total;
    EXPECT_GT(r.iova_lock.acquisitions, 0u);
    EXPECT_EQ(r.iova_lock.contended, 0u);
    EXPECT_EQ(r.inval_lock.contended, 0u);
    EXPECT_EQ(lockWaitPerPacket(r), 0.0);
}

// --- K-core flows under fault injection and churn -----------------
// defer: the baseline whose surprise-unplug cleanup is cheap enough
// for a churned run to finish quickly, and which still contends on
// the IOVA lock.

/** Quiesce every NIC of @p m and require its handle to be clean. */
void
expectNoLeaks(sys::Machine &m, const char *what)
{
    for (unsigned i = 0; i < m.numNics(); ++i) {
        ASSERT_TRUE(m.quiesceNic(i).isOk()) << what << " nic " << i;
        const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle(i));
        EXPECT_TRUE(rep.clean()) << what << " nic " << i << ": "
                                 << rep.toString();
    }
}

/** Virtual-time bound for a churned run: churn stops only once every
 * flow is done, so a stalled flow would otherwise never drain the
 * event queue. */
constexpr Nanos kChurnedRunBound = 1'000'000'000;

/** Rerun equality of a faulted K-core run, aggregate and per flow. */
void
expectSameRun(const CoresRun &c1, const CoresRun &c2)
{
    EXPECT_EQ(c1.total.cycles_per_packet, c2.total.cycles_per_packet);
    EXPECT_EQ(c1.total.iova_lock.wait_cycles, c2.total.iova_lock.wait_cycles);
    EXPECT_EQ(c1.total.fault.injected, c2.total.fault.injected);
    EXPECT_EQ(c1.total.fault.dropped, c2.total.fault.dropped);
    EXPECT_EQ(c1.total.surprise_unplugs, c2.total.surprise_unplugs);
    ASSERT_EQ(c1.flows.size(), c2.flows.size());
    for (size_t i = 0; i < c1.flows.size(); ++i) {
        EXPECT_EQ(c1.flows[i].duration_s, c2.flows[i].duration_s) << i;
        EXPECT_EQ(c1.flows[i].acct.total(), c2.flows[i].acct.total()) << i;
        EXPECT_EQ(c1.flows[i].acct.get(Cat::kLockWait),
                  c2.flows[i].acct.get(Cat::kLockWait))
            << i;
    }
}

TEST(SpinlockFaultTest, TwoCoreStreamUnderFaultsAndChurn)
{
    workloads::StreamParams p = quickParams();
    p.cores = 2;
    p.fault_rate = 0.001;
    p.fault_seed = 3;
    p.churn_per_ms = 0.3;
    p.churn_seed = 7;
    const auto run = [&] {
        Simulator sim;
        workloads::StreamRun run(sim, dma::ProtectionMode::kDefer,
                                 nic::mlxProfile(), p);
        sim.runUntil(kChurnedRunBound);
        EXPECT_TRUE(sim.idle()) << "a stream flow stalled";
        // collect() asserts every flow reached its packet target.
        CoresRun c{run.collect(), run.collectFlows()};
        expectNoLeaks(run.machine(), "stream");
        return c;
    };
    const CoresRun c1 = run();
    const CoresRun c2 = run();
    EXPECT_GT(c1.total.fault.injected, 0u);
    EXPECT_GT(c1.total.surprise_unplugs, 0u);
    EXPECT_GT(lockWaitPerPacket(c1.total), 0.0);
    ASSERT_EQ(c1.flows.size(), 2u);
    for (const auto &flow : c1.flows)
        EXPECT_GE(flow.tx_packets, p.measure_packets);
    expectSameRun(c1, c2);
}

TEST(SpinlockFaultTest, TwoCoreRrUnderFaultsAndChurn)
{
    // Lost requests/echoes and outages stall a ping-pong; only the
    // per-flow retransmit watchdog gets each flow to its target.
    workloads::RrParams p = workloads::rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 400;
    p.warmup_transactions = 50;
    p.cores = 2;
    p.fault_rate = 0.01;
    p.fault_seed = 3;
    p.churn_per_ms = 0.3;
    p.churn_seed = 7;
    const auto run = [&] {
        Simulator sim;
        workloads::RrRun run(sim, dma::ProtectionMode::kDefer,
                             nic::mlxProfile(), p);
        sim.runUntil(kChurnedRunBound);
        EXPECT_TRUE(sim.idle()) << "an RR flow stalled";
        // collect() asserts every flow reached its transaction target.
        CoresRun c{run.collect(), run.collectFlows()};
        expectNoLeaks(run.initiator(), "initiator");
        expectNoLeaks(run.echoer(), "echoer");
        return c;
    };
    const CoresRun c1 = run();
    const CoresRun c2 = run();
    EXPECT_GT(c1.total.fault.injected, 0u);
    EXPECT_GT(c1.total.surprise_unplugs, 0u);
    ASSERT_EQ(c1.flows.size(), 2u);
    for (const auto &flow : c1.flows)
        EXPECT_EQ(flow.transactions, p.measure_transactions);
    expectSameRun(c1, c2);
}

} // namespace
} // namespace rio::des
