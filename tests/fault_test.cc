/**
 * @file
 * Fault-reporting & recovery unit tests: the VT-d-style fault log
 * ring (overflow bit + record dropping, like hardware), the rIOMMU
 * per-ring fault latch, the per-policy recovery cycle charges, and
 * the determinism of the fault injector.
 */
#include <gtest/gtest.h>

#include <string>

#include "dma/dma_context.h"
#include "dma/fault.h"
#include "dma/none_handle.h"
#include "iommu/fault_log.h"
#include "riommu/rdevice.h"

namespace rio {
namespace {

using iommu::Access;
using iommu::Bdf;
using iommu::DmaDir;
using iommu::FaultReason;
using iommu::FaultRecord;

// ---- fault log ring ---------------------------------------------------------

TEST(FaultLogTest, RecordsRoundTripThroughSimulatedMemory)
{
    mem::PhysicalMemory pm;
    iommu::FaultLog log(pm, 8);
    const FaultRecord rec{Bdf{0, 5, 0}, 0x1234000, Access::kWrite,
                          FaultReason::kPermission};
    ASSERT_TRUE(log.record(rec));
    EXPECT_EQ(log.pending(), 1u);
    // The record is resident in simulated physical memory: word0 at
    // the ring base is the faulting IOVA.
    EXPECT_EQ(pm.read64(log.base()), 0x1234000u);

    auto drained = log.drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].bdf.pack(), (Bdf{0, 5, 0}).pack());
    EXPECT_EQ(drained[0].iova, 0x1234000u);
    EXPECT_EQ(drained[0].access, Access::kWrite);
    EXPECT_EQ(drained[0].reason, FaultReason::kPermission);
    EXPECT_EQ(log.pending(), 0u);
}

TEST(FaultLogTest, OverflowSetsBitAndDropsRecordsLikeHardware)
{
    mem::PhysicalMemory pm;
    iommu::FaultLog log(pm, 4);
    for (u64 i = 0; i < 4; ++i)
        ASSERT_TRUE(log.record({Bdf{0, 3, 0}, i << kPageShift,
                                Access::kRead, FaultReason::kNotPresent}));
    EXPECT_FALSE(log.overflow());

    // Every slot occupied: the next record is dropped, the overflow
    // (PFO) bit latches, and the ring contents stay intact.
    EXPECT_FALSE(log.record({Bdf{0, 3, 0}, 0x9999000, Access::kRead,
                             FaultReason::kNotPresent}));
    EXPECT_TRUE(log.overflow());
    EXPECT_EQ(log.recorded(), 4u);
    EXPECT_EQ(log.dropped(), 1u);

    auto drained = log.drain();
    ASSERT_EQ(drained.size(), 4u);
    for (u64 i = 0; i < 4; ++i)
        EXPECT_EQ(drained[i].iova, i << kPageShift) << "arrival order";
    // Draining frees slots but does NOT clear overflow — that takes
    // an explicit status write, as on hardware.
    EXPECT_TRUE(log.overflow());
    EXPECT_TRUE(log.record({Bdf{0, 3, 0}, 0x5000, Access::kRead,
                            FaultReason::kNotPresent}));
    log.clearOverflow();
    EXPECT_FALSE(log.overflow());
}

TEST(FaultLogTest, WrapsAroundAfterDrain)
{
    mem::PhysicalMemory pm;
    iommu::FaultLog log(pm, 2);
    for (int round = 0; round < 5; ++round) {
        ASSERT_TRUE(log.record({Bdf{0, 3, 0},
                                static_cast<u64>(round) << kPageShift,
                                Access::kRead,
                                FaultReason::kNotPresent}));
        auto d = log.drain();
        ASSERT_EQ(d.size(), 1u);
        EXPECT_EQ(d[0].iova, static_cast<u64>(round) << kPageShift);
    }
    EXPECT_FALSE(log.overflow());
    EXPECT_EQ(log.recorded(), 5u);
}

// ---- rIOMMU per-ring latch --------------------------------------------------

TEST(RingFaultLatchTest, LatchesPerRingIndependently)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    const Bdf bdf{0, 4, 0};
    riommu::RDevice dev(ctx.riommu(), ctx.memory(), bdf,
                        std::vector<u32>{8, 8}, true, ctx.cost(), &acct);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto iova0 = dev.map(0, buf, 64, DmaDir::kToDevice).value();
    auto iova1 = dev.map(1, buf, 64, DmaDir::kToDevice).value();

    // Ring 0 faults (write to a read-only mapping); ring 1 is clean.
    ASSERT_FALSE(
        ctx.riommu().translate(bdf, iova0, Access::kWrite, 1).isOk());
    const FaultRecord *latch0 = ctx.riommu().ringFault(bdf, 0);
    ASSERT_NE(latch0, nullptr);
    EXPECT_EQ(latch0->reason, FaultReason::kPermission);
    EXPECT_EQ(latch0->iova, iova0.raw);
    EXPECT_EQ(ctx.riommu().ringFault(bdf, 1), nullptr);

    // First fault wins: a second, different fault on ring 0 does not
    // overwrite the latched record.
    ASSERT_FALSE(ctx.riommu()
                     .translate(bdf, iova0.withOffset(100),
                                Access::kRead, 1)
                     .isOk());
    EXPECT_EQ(ctx.riommu().ringFault(bdf, 0)->iova, iova0.raw);

    // Ring 1 latches its own fault; clearing ring 0 leaves it alone.
    ASSERT_FALSE(
        ctx.riommu().translate(bdf, iova1, Access::kWrite, 1).isOk());
    ASSERT_NE(ctx.riommu().ringFault(bdf, 1), nullptr);
    ctx.riommu().clearRingFault(bdf, 0);
    EXPECT_EQ(ctx.riommu().ringFault(bdf, 0), nullptr);
    EXPECT_NE(ctx.riommu().ringFault(bdf, 1), nullptr);
    EXPECT_EQ(ctx.riommu().latchedRingFaults(), 1u);
}

// ---- recovery policy cycle charges ------------------------------------------

class PolicyChargeTest : public ::testing::Test
{
  protected:
    cycles::CostModel cost;
    cycles::CycleAccount acct;
    dma::FaultEngine eng;
    Status fail{ErrorCode::kIoPageFault, "test fault"};

    void
    SetUp() override
    {
        eng.bind(&cost, &acct);
    }

    Cycles charged() const { return acct.get(cycles::Cat::kFaultHandling); }
};

TEST_F(PolicyChargeTest, AbortChargesOneFaultReport)
{
    eng.setPolicy(dma::FaultPolicy::kAbort);
    int repairs = 0;
    Status out = eng.recover(
        fail, [&] { ++repairs; }, [] { return Status::ok(); });
    EXPECT_FALSE(out.isOk());
    EXPECT_EQ(repairs, 1) << "abort still repairs the translation";
    EXPECT_EQ(charged(), cost.fault_report);
    EXPECT_EQ(eng.stats().dropped, 1u);
    EXPECT_EQ(eng.stats().recovered, 0u);
}

TEST_F(PolicyChargeTest, RetryRemapChargesReportPlusRemapPerAttempt)
{
    eng.setPolicy(dma::FaultPolicy::kRetryRemap);
    Status out = eng.recover(
        fail, [] {}, [] { return Status::ok(); });
    EXPECT_TRUE(out.isOk());
    EXPECT_EQ(charged(), cost.fault_report + cost.fault_remap);
    EXPECT_EQ(eng.stats().recovered, 1u);
    EXPECT_EQ(eng.stats().retries, 1u);
}

TEST_F(PolicyChargeTest, RetryExhaustionChargesEveryAttempt)
{
    eng.setPolicy(dma::FaultPolicy::kRetryRemap);
    dma::FaultInjectConfig cfg; // defaults: max_retries = 3
    eng.setInjection(cfg);
    Status out = eng.recover(
        fail, [] {}, [this] { return fail; });
    EXPECT_FALSE(out.isOk());
    EXPECT_EQ(charged(), cost.fault_report + 3 * cost.fault_remap);
    EXPECT_EQ(eng.stats().retries, 3u);
    EXPECT_EQ(eng.stats().dropped, 1u);
}

TEST_F(PolicyChargeTest, DropBackoffChargesReportPlusBackoff)
{
    eng.setPolicy(dma::FaultPolicy::kDropBackoff);
    Status out = eng.recover(
        fail, [] {}, [] { return Status::ok(); });
    EXPECT_FALSE(out.isOk()) << "drop-backoff never replays";
    EXPECT_EQ(charged(), cost.fault_report + cost.fault_backoff);
    EXPECT_EQ(eng.stats().dropped, 1u);
}

// ---- injector determinism ---------------------------------------------------

TEST(FaultInjectTest, SameSeedSameFaultPattern)
{
    auto pattern = [](u64 seed) {
        mem::PhysicalMemory pm;
        cycles::CostModel cost;
        cycles::CycleAccount acct;
        dma::NoneDmaHandle handle(pm, Bdf{0, 3, 0}, cost, &acct);
        handle.setFaultPolicy(dma::FaultPolicy::kAbort);
        dma::FaultInjectConfig cfg;
        cfg.rate = 0.5;
        cfg.seed = seed;
        handle.setFaultInjection(cfg);
        const PhysAddr buf = pm.allocFrame();
        std::string p;
        u64 v = 0;
        for (int i = 0; i < 200; ++i)
            p += handle.deviceRead(buf, &v, 8).isOk() ? '.' : 'F';
        return p;
    };
    const std::string a = pattern(42), b = pattern(42), c = pattern(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c) << "different seeds give different streams "
                       "(0.5^200 false-positive odds)";
    EXPECT_NE(a.find('F'), std::string::npos);
    EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultInjectTest, UnarmedEngineMakesNoChargesAndNoDraws)
{
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    cycles::CycleAccount acct;
    dma::NoneDmaHandle handle(pm, Bdf{0, 3, 0}, cost, &acct);
    const PhysAddr buf = pm.allocFrame();
    u64 v = 0;
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(handle.deviceRead(buf, &v, 8).isOk());
    EXPECT_EQ(acct.get(cycles::Cat::kFaultHandling), 0u);
    EXPECT_EQ(handle.faultStats().injected, 0u);
    EXPECT_EQ(handle.faultStats().faults_seen, 0u);
}

} // namespace
} // namespace rio
