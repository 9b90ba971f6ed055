/**
 * @file
 * Tests for the simulated core: charge-driven busy time, FIFO work
 * queueing, utilization accounting and virtualNow().
 */
#include <gtest/gtest.h>

#include "des/core.h"

namespace rio::des {
namespace {

using cycles::Cat;

class CoreTest : public ::testing::Test
{
  protected:
    Simulator sim;
    cycles::CostModel cost; // 3.1 GHz
    Core core{sim, cost};
};

TEST_F(CoreTest, ChargedCyclesBecomeBusyTime)
{
    core.post([&] { core.acct().charge(Cat::kProcessing, 3100); });
    sim.run();
    EXPECT_EQ(core.busyCycles(), 3100u);
    // 3100 cycles at 3.1 GHz == 1000 ns.
    EXPECT_EQ(core.freeAt(), 1000u);
    EXPECT_EQ(core.itemsRun(), 1u);
}

TEST_F(CoreTest, WorkItemsSerialize)
{
    Nanos second_started = 0;
    core.post([&] { core.acct().charge(Cat::kProcessing, 6200); });
    core.post([&] { second_started = sim.now(); });
    sim.run();
    EXPECT_EQ(second_started, 2000u)
        << "second item must wait for the first's 2000 ns";
}

TEST_F(CoreTest, ZeroCostWorkIsInstant)
{
    int runs = 0;
    for (int i = 0; i < 5; ++i)
        core.post([&] { ++runs; });
    sim.run();
    EXPECT_EQ(runs, 5);
    EXPECT_EQ(core.busyCycles(), 0u);
    EXPECT_EQ(sim.now(), 0u);
}

TEST_F(CoreTest, ItemsPostedFromItemsRunBackToBack)
{
    std::vector<Nanos> starts;
    core.post([&] {
        starts.push_back(sim.now());
        core.acct().charge(Cat::kProcessing, 310);
        core.post([&] {
            starts.push_back(sim.now());
            core.acct().charge(Cat::kProcessing, 310);
        });
    });
    sim.run();
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0], 0u);
    EXPECT_EQ(starts[1], 100u);
}

TEST_F(CoreTest, UtilizationOverWindow)
{
    // 1000 ns of work in a 4000 ns window = 25%.
    core.post([&] { core.acct().charge(Cat::kProcessing, 3100); });
    sim.runUntil(4000);
    EXPECT_NEAR(core.utilization(0, 4000, 0), 0.25, 1e-9);
}

TEST_F(CoreTest, VirtualNowAdvancesWithinAnItem)
{
    Nanos vnow_mid = 0;
    Nanos vnow_start = 0;
    core.post([&] {
        vnow_start = core.virtualNow();
        core.acct().charge(Cat::kProcessing, 3100);
        vnow_mid = core.virtualNow();
    });
    sim.run();
    EXPECT_EQ(vnow_start, 0u);
    EXPECT_EQ(vnow_mid, 1000u)
        << "1000 ns of charged work must be visible mid-item";
    EXPECT_EQ(core.virtualNow(), sim.now())
        << "outside items, virtualNow == now";
}

TEST_F(CoreTest, InterruptBehindLongWorkIsDelayed)
{
    // Model: an interrupt posted at t=0 while a long app item runs.
    Nanos irq_ran_at = 0;
    core.post([&] { core.acct().charge(Cat::kProcessing, 31000); });
    core.post([&] { irq_ran_at = sim.now(); });
    sim.run();
    EXPECT_EQ(irq_ran_at, 10000u);
}

TEST_F(CoreTest, SpanIdsAreTrackDerivedAndCoreConfined)
{
    // Span ids come from the core's own counter under its track
    // identity — simulation content only, no shared atomic — so
    // trace capture stays reproducible across engine thread counts.
    obs::Recorder rec;
    rec.setPid(2);
    core.setRecorder(&rec, 1);
    EXPECT_EQ(core.nextSpanId(), (2u << 24) | (1u << 16) | 1u);
    EXPECT_EQ(core.nextSpanId(), (2u << 24) | (1u << 16) | 2u);

    Core other{sim, cost};
    other.setRecorder(&rec, 3);
    EXPECT_EQ(other.nextSpanId(), (2u << 24) | (3u << 16) | 1u)
        << "sibling cores never collide and never share a counter";
}

} // namespace
} // namespace rio::des
