/**
 * @file
 * Integration tests for the DMA layer across all protection modes:
 * functional map -> device access -> unmap round trips, the
 * protection-semantics matrix of DESIGN.md §5 (strict invalidation,
 * deferred stale window, page-granularity hole vs. fine-grained
 * rIOMMU), and cycle-charging sanity against Table 1.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cycles/cycle_account.h"
#include "dma/baseline_handle.h"
#include "dma/dma_context.h"

namespace rio::dma {
namespace {

using cycles::Cat;
using cycles::CycleAccount;
using iommu::Access;
using iommu::Bdf;
using iommu::DmaDir;

class DmaModeTest : public ::testing::TestWithParam<ProtectionMode>
{
  protected:
    DmaModeTest()
    {
        handle = ctx.makeHandle(GetParam(), bdf, &acct, {64, 64});
        buf = ctx.memory().allocContiguous(2 * kPageSize);
    }

    DmaContext ctx;
    CycleAccount acct;
    Bdf bdf{0, 3, 0};
    std::unique_ptr<DmaHandle> handle;
    PhysAddr buf = 0;
};

TEST_P(DmaModeTest, RoundTripThroughDeviceAddress)
{
    auto m = handle->map(0, buf + 10, 1000, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    const char msg[] = "dma payload";
    ASSERT_TRUE(
        handle->deviceWrite(m.value().device_addr, msg, sizeof(msg)).isOk());
    char in[sizeof(msg)] = {};
    ASSERT_TRUE(
        handle->deviceRead(m.value().device_addr, in, sizeof(in)).isOk());
    EXPECT_STREQ(in, msg);
    // Data must land at the intended physical location.
    char probe[sizeof(msg)] = {};
    ctx.memory().read(buf + 10, probe, sizeof(probe));
    EXPECT_STREQ(probe, msg);
    EXPECT_EQ(handle->liveMappings(), 1u);
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_EQ(handle->liveMappings(), 0u);
}

TEST_P(DmaModeTest, ManySequentialMappingsStayConsistent)
{
    for (int round = 0; round < 300; ++round) {
        auto m = handle->map(0, buf + (round % 7) * 64, 64, DmaDir::kBidir);
        ASSERT_TRUE(m.isOk()) << "round " << round;
        u64 cookie = 0x1000 + round;
        ASSERT_TRUE(
            handle->deviceWrite(m.value().device_addr, &cookie, 8).isOk());
        u64 back = 0;
        ASSERT_TRUE(
            handle->deviceRead(m.value().device_addr, &back, 8).isOk());
        EXPECT_EQ(back, cookie);
        ASSERT_TRUE(handle->unmap(m.value(), round % 16 == 15).isOk());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, DmaModeTest,
    ::testing::ValuesIn(kEvaluatedModes),
    [](const ::testing::TestParamInfo<ProtectionMode> &info) {
        std::string n = modeName(info.param);
        for (char &c : n) {
            if (c == '+')
                c = 'P';
            if (c == '-')
                c = 'M';
        }
        return n;
    });

// ---- protection-semantics matrix ------------------------------------------

class ProtectionSemanticsTest : public ::testing::Test
{
  protected:
    DmaContext ctx;
    CycleAccount acct;
    Bdf bdf{0, 3, 0};
};

TEST_F(ProtectionSemanticsTest, StrictBlocksAccessImmediatelyAfterUnmap)
{
    auto handle = ctx.makeHandle(ProtectionMode::kStrict, bdf, &acct);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 512, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    u64 v = 7;
    ASSERT_TRUE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk());
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_FALSE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk())
        << "strict mode invalidates synchronously";
}

TEST_F(ProtectionSemanticsTest, DeferLeavesStaleWindowUntilBatchFlush)
{
    auto handle = ctx.makeHandle(ProtectionMode::kDefer, bdf, &acct);
    auto *baseline = static_cast<BaselineDmaHandle *>(handle.get());
    const PhysAddr buf = ctx.memory().allocFrame();

    auto m = handle->map(0, buf, 512, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    u64 v = 7;
    // Device touches the buffer -> translation cached in the IOTLB.
    ASSERT_TRUE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk());
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());

    // The deferred mode's documented vulnerability (§3.2): the stale
    // IOTLB entry still translates after unmap ...
    EXPECT_TRUE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk());
    EXPECT_EQ(baseline->deferredPending(), 1u);

    // ... until 250 accumulated frees trigger the global flush.
    for (unsigned i = 0; i < BaselineDmaHandle::kDeferBatch - 1; ++i) {
        auto tmp = handle->map(0, buf, 64, DmaDir::kBidir);
        ASSERT_TRUE(tmp.isOk());
        ASSERT_TRUE(handle->unmap(tmp.value(), false).isOk());
    }
    EXPECT_EQ(baseline->deferredPending(), 0u) << "batch flushed";
    EXPECT_FALSE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk())
        << "after the flush the stale entry is gone";
}

TEST_F(ProtectionSemanticsTest, BaselinePageGranularityHole)
{
    // Two sub-page buffers on one physical page. Unmapping the first
    // leaves the whole page reachable through the second's mapping —
    // the vulnerability the rIOMMU's byte-granular rPTEs close (§4).
    auto handle = ctx.makeHandle(ProtectionMode::kStrict, bdf, &acct);
    const PhysAddr page = ctx.memory().allocFrame();
    const PhysAddr buf1 = page;       // bytes 0..1023
    const PhysAddr buf2 = page + 1024; // bytes 1024..2047

    auto m1 = handle->map(0, buf1, 1024, DmaDir::kBidir);
    auto m2 = handle->map(0, buf2, 1024, DmaDir::kBidir);
    ASSERT_TRUE(m1.isOk());
    ASSERT_TRUE(m2.isOk());
    ASSERT_TRUE(handle->unmap(m1.value(), true).isOk());

    // The device can still reach buf1's bytes through m2's IOVA page.
    const u64 base_of_m2_page = m2.value().device_addr & ~kPageMask;
    u64 leak = 0xbad;
    EXPECT_TRUE(handle->deviceWrite(base_of_m2_page, &leak, 8).isOk())
        << "baseline IOMMU cannot protect sub-page neighbours";
    u64 probe = 0;
    ctx.memory().read(buf1, &probe, 8);
    EXPECT_EQ(probe, leak) << "the unmapped buffer was clobbered";
}

TEST_F(ProtectionSemanticsTest, RiommuClosesTheSubPageHole)
{
    auto handle =
        ctx.makeHandle(ProtectionMode::kRiommu, bdf, &acct, {64});
    const PhysAddr page = ctx.memory().allocFrame();
    auto m1 = handle->map(0, page, 1024, DmaDir::kBidir);
    auto m2 = handle->map(0, page + 1024, 1024, DmaDir::kBidir);
    ASSERT_TRUE(m1.isOk());
    ASSERT_TRUE(m2.isOk());
    ASSERT_TRUE(handle->unmap(m1.value(), true).isOk());

    // Through m2 the device sees exactly [page+1024, page+2048).
    u64 v = 1;
    EXPECT_TRUE(handle->deviceWrite(m2.value().device_addr, &v, 8).isOk());
    // m1's bytes are unreachable: m2's offsets are bounded by size,
    // and m1's own rIOVA is invalid.
    EXPECT_FALSE(
        handle->deviceWrite(m2.value().device_addr, &v, 1025).isOk());
    EXPECT_FALSE(handle->deviceWrite(m1.value().device_addr, &v, 8).isOk());
    u64 probe = 0xffff;
    ctx.memory().read(page, &probe, 8);
    EXPECT_EQ(probe, 0u) << "unmapped neighbour stayed untouched";
}

TEST_F(ProtectionSemanticsTest, RiommuMidBurstUnmapStaleWindowIsBounded)
{
    // Mid-burst, the rIOTLB entry for the ring may still describe an
    // unmapped rentry; the paper accepts this because the entry is
    // dropped at end-of-burst, bounding the window to the burst.
    auto handle =
        ctx.makeHandle(ProtectionMode::kRiommu, bdf, &acct, {64});
    const PhysAddr page = ctx.memory().allocFrame();
    auto m = handle->map(0, page, 64, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    u64 v = 7;
    ASSERT_TRUE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk());
    ASSERT_TRUE(handle->unmap(m.value(), /*end_of_burst=*/true).isOk());
    EXPECT_FALSE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk())
        << "after end-of-burst invalidation the access must fault";
}

TEST_F(ProtectionSemanticsTest, DirectionIsEnforcedEndToEnd)
{
    for (ProtectionMode mode :
         {ProtectionMode::kStrict, ProtectionMode::kRiommu}) {
        CycleAccount a;
        auto handle = ctx.makeHandle(mode, Bdf{0, 7, 0}, &a, {16});
        const PhysAddr buf = ctx.memory().allocFrame();
        auto tx = handle->map(0, buf, 128, DmaDir::kToDevice);
        ASSERT_TRUE(tx.isOk());
        u64 v = 0;
        EXPECT_TRUE(
            handle->deviceRead(tx.value().device_addr, &v, 8).isOk());
        EXPECT_FALSE(
            handle->deviceWrite(tx.value().device_addr, &v, 8).isOk())
            << modeName(mode) << ": transmit mapping must reject writes";
        ASSERT_TRUE(handle->unmap(tx.value(), true).isOk());
    }
}

TEST_F(ProtectionSemanticsTest, ErrantDmaToArbitraryMemoryIsBlocked)
{
    // The headline intra-OS protection property: a rogue device
    // cannot touch memory the OS never mapped for it.
    const PhysAddr secret = ctx.memory().allocFrame();
    u64 key = 0x5ec2e7;
    ctx.memory().write(secret, &key, 8);

    for (ProtectionMode mode :
         {ProtectionMode::kStrict, ProtectionMode::kStrictPlus,
          ProtectionMode::kRiommuNc, ProtectionMode::kRiommu}) {
        CycleAccount a;
        auto handle = ctx.makeHandle(mode, Bdf{0, 8, 0}, &a, {16});
        u64 stolen = 0;
        EXPECT_FALSE(handle->deviceRead(secret, &stolen, 8).isOk())
            << modeName(mode);
        EXPECT_FALSE(handle->deviceRead(
                         riommu::RIova::pack(0, 3, 0).raw, &stolen, 8)
                         .isOk())
            << modeName(mode) << ": unmapped ring entry";
        EXPECT_EQ(stolen, 0u);
    }

    // With the IOMMU off, the same DMA succeeds — the motivation.
    auto unsafe = ctx.makeHandle(ProtectionMode::kNone, Bdf{0, 9, 0}, &acct);
    u64 stolen = 0;
    EXPECT_TRUE(unsafe->deviceRead(secret, &stolen, 8).isOk());
    EXPECT_EQ(stolen, key);
}

// ---- charging sanity against Table 1 ---------------------------------------

TEST_F(ProtectionSemanticsTest, StrictUnmapPaysFullInvalidation)
{
    auto handle = ctx.makeHandle(ProtectionMode::kStrict, bdf, &acct);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 512, DmaDir::kBidir);
    acct.reset();
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_EQ(acct.get(Cat::kUnmapIotlbInv),
              ctx.cost().iotlb_invalidate_entry);
}

TEST_F(ProtectionSemanticsTest, DeferUnmapPaysOnlyQueueing)
{
    auto handle = ctx.makeHandle(ProtectionMode::kDefer, bdf, &acct);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 512, DmaDir::kBidir);
    acct.reset();
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_EQ(acct.get(Cat::kUnmapIotlbInv),
              ctx.cost().iotlb_invalidate_queued);
}

TEST_F(ProtectionSemanticsTest, NoneModeChargesNothing)
{
    auto handle = ctx.makeHandle(ProtectionMode::kNone, bdf, &acct);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 512, DmaDir::kBidir);
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_EQ(acct.total(), 0u);
}

TEST_F(ProtectionSemanticsTest, MultiPageBufferMapsAllPages)
{
    auto handle = ctx.makeHandle(ProtectionMode::kStrict, bdf, &acct);
    const PhysAddr buf = ctx.memory().allocContiguous(4 * kPageSize);
    // 3 pages + straddle = spans 4 pages.
    auto m = handle->map(0, buf + 100, 3 * kPageSize, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    std::vector<u8> data(3 * kPageSize, 0x3c);
    ASSERT_TRUE(handle
                    ->deviceWrite(m.value().device_addr, data.data(),
                                  data.size())
                    .isOk());
    std::vector<u8> back(data.size());
    ASSERT_TRUE(
        handle->deviceRead(m.value().device_addr, back.data(), back.size())
            .isOk());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_FALSE(handle
                     ->deviceRead(m.value().device_addr + 2 * kPageSize,
                                  back.data(), 8)
                     .isOk());
}

} // namespace
} // namespace rio::dma
