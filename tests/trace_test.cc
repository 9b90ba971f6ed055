/**
 * @file
 * Tests for DMA trace capture: a handle bound with bindTrace records
 * map/unmap/access/fault events at its own choke points.
 */
#include <gtest/gtest.h>

#include "dma/dma_context.h"
#include "dma/dma_trace.h"

namespace rio::dma {
namespace {

TEST(TraceTest, RecordingHandleCapturesEvents)
{
    DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle =
        ctx.makeHandle(ProtectionMode::kStrict, iommu::Bdf{0, 3, 0}, &acct);
    DmaTrace trace;
    handle->bindTrace(&trace);

    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 512, iommu::DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    u64 v = 0;
    ASSERT_TRUE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk());
    ASSERT_TRUE(handle->deviceRead(m.value().device_addr, &v, 8).isOk());
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());

    ASSERT_EQ(trace.size(), 4u);
    const auto &ev = trace.events();
    EXPECT_EQ(ev[0].kind, TraceEvent::Kind::kMap);
    EXPECT_EQ(ev[1].kind, TraceEvent::Kind::kAccess);
    EXPECT_EQ(ev[2].kind, TraceEvent::Kind::kAccess);
    EXPECT_EQ(ev[3].kind, TraceEvent::Kind::kUnmap);
    EXPECT_EQ(ev[0].iova_pfn, ev[3].iova_pfn);
    EXPECT_EQ(ev[0].iova_pfn, m.value().device_addr >> kPageShift);
}

TEST(TraceTest, RecordingIsTransparent)
{
    DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(ProtectionMode::kRiommu,
                                 iommu::Bdf{0, 3, 0}, &acct, {16});
    DmaTrace trace;
    handle->bindTrace(&trace);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 100, iommu::DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    EXPECT_EQ(handle->liveMappings(), 1u);
    // Failed accesses are recorded (access + fault marker) but still
    // propagate the error.
    u64 v = 0;
    const u64 before = trace.size();
    EXPECT_FALSE(
        handle->deviceRead(m.value().device_addr, &v, 200).isOk())
        << "read beyond the 100-byte mapping must fault";
    ASSERT_EQ(trace.size(), before + 2);
    EXPECT_EQ(trace.events()[before].kind, TraceEvent::Kind::kAccess);
    EXPECT_EQ(trace.events()[before + 1].kind,
              TraceEvent::Kind::kFault);
    EXPECT_EQ(trace.events()[before + 1].iova_pfn,
              m.value().device_addr >> kPageShift);
}

TEST(TraceTest, TracedBaselineKeepsItsScatterGatherPath)
{
    DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle =
        ctx.makeHandle(ProtectionMode::kStrict, iommu::Bdf{0, 3, 0}, &acct);
    DmaTrace trace;
    handle->bindTrace(&trace);
    std::vector<SgEntry> sg;
    for (int i = 0; i < 3; ++i)
        sg.push_back(SgEntry{ctx.memory().allocFrame(), 3000});

    const u64 allocs_before = acct.ops(cycles::Cat::kMapIovaAlloc);
    auto m = handle->mapSg(0, sg, iommu::DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    ASSERT_EQ(m.value().size(), 3u);
    EXPECT_EQ(acct.ops(cycles::Cat::kMapIovaAlloc), allocs_before + 1)
        << "a traced handle still allocates one IOVA range per list";
    ASSERT_TRUE(handle->unmapSg(m.value(), true).isOk());
    EXPECT_EQ(handle->liveMappings(), 0u);

    // One logical mapping: one kMap, one kUnmap, same range.
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.events()[0].kind, TraceEvent::Kind::kMap);
    EXPECT_EQ(trace.events()[1].kind, TraceEvent::Kind::kUnmap);
    EXPECT_EQ(trace.events()[0].iova_pfn,
              m.value().front().device_addr >> kPageShift);
    EXPECT_EQ(trace.events()[1].iova_pfn, trace.events()[0].iova_pfn);
}

TEST(TraceTest, UnboundHandleRecordsNothing)
{
    DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle =
        ctx.makeHandle(ProtectionMode::kStrict, iommu::Bdf{0, 3, 0}, &acct);
    DmaTrace trace;
    handle->bindTrace(&trace);
    handle->bindTrace(nullptr);

    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 512, iommu::DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    u64 v = 0;
    ASSERT_TRUE(handle->deviceWrite(m.value().device_addr, &v, 8).isOk());
    ASSERT_TRUE(handle->unmap(m.value(), true).isOk());
    EXPECT_FALSE(handle->deviceRead(m.value().device_addr, &v, 8).isOk());
    EXPECT_EQ(trace.size(), 0u);
}

} // namespace
} // namespace rio::dma
