/**
 * @file
 * Unit tests for the simulated physical memory.
 */
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "mem/phys_mem.h"

namespace rio::mem {
namespace {

TEST(PhysicalMemory, UntouchedMemoryReadsZero)
{
    PhysicalMemory pm;
    EXPECT_EQ(pm.read64(0x1000), 0u);
    u8 buf[16];
    pm.read(0x12345, buf, sizeof(buf));
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, ReadBackWhatWasWritten)
{
    PhysicalMemory pm;
    pm.write64(0x2000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(pm.read64(0x2000), 0xdeadbeefcafef00dULL);
    pm.write32(0x3000, 0x12345678);
    EXPECT_EQ(pm.read32(0x3000), 0x12345678u);
    pm.write8(0x3004, 0xab);
    EXPECT_EQ(pm.read8(0x3004), 0xab);
}

TEST(PhysicalMemory, CrossPageTransfer)
{
    PhysicalMemory pm;
    std::vector<u8> src(3 * kPageSize);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<u8>(i * 37);
    const PhysAddr addr = 2 * kPageSize - 100; // straddles boundaries
    pm.write(addr, src.data(), src.size());
    std::vector<u8> dst(src.size());
    pm.read(addr, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST(PhysicalMemory, ObjectRoundTrip)
{
    struct Desc
    {
        u64 addr;
        u32 len;
        u32 flags;
    };
    PhysicalMemory pm;
    const Desc d{0xabc, 1500, 7};
    pm.writeObject(0x8000, d);
    const Desc r = pm.readObject<Desc>(0x8000);
    EXPECT_EQ(r.addr, d.addr);
    EXPECT_EQ(r.len, d.len);
    EXPECT_EQ(r.flags, d.flags);
}

TEST(PhysicalMemory, FillZero)
{
    PhysicalMemory pm;
    pm.write64(0x1000, ~u64{0});
    pm.fillZero(0x1000, 8);
    EXPECT_EQ(pm.read64(0x1000), 0u);
}

TEST(PhysicalMemory, FrameAllocationIsZeroedAndDistinct)
{
    PhysicalMemory pm;
    const PhysAddr a = pm.allocFrame();
    const PhysAddr b = pm.allocFrame();
    EXPECT_NE(a, b);
    EXPECT_TRUE(isPageAligned(a));
    EXPECT_TRUE(isPageAligned(b));
    EXPECT_EQ(pm.allocatedFrames(), 2u);

    pm.write64(a, 123);
    pm.freeFrame(a);
    const PhysAddr c = pm.allocFrame(); // recycles a
    EXPECT_EQ(c, a);
    EXPECT_EQ(pm.read64(c), 0u) << "recycled frame must be zeroed";
}

TEST(PhysicalMemory, FrameZeroIsNeverAllocated)
{
    PhysicalMemory pm;
    for (int i = 0; i < 64; ++i)
        EXPECT_NE(pm.allocFrame(), 0u);
}

TEST(PhysicalMemory, ContiguousAllocationSpansPages)
{
    PhysicalMemory pm;
    const PhysAddr a = pm.allocContiguous(3 * kPageSize + 1);
    EXPECT_TRUE(isPageAligned(a));
    EXPECT_EQ(pm.allocatedFrames(), 4u);
    // Whole run is writable and readable.
    std::vector<u8> buf(3 * kPageSize + 1, 0x5a);
    pm.write(a, buf.data(), buf.size());
    std::vector<u8> out(buf.size());
    pm.read(a, out.data(), out.size());
    EXPECT_EQ(buf, out);
}

// ---- frame-table edges -------------------------------------------------

constexpr u64 kLeafSpan = PhysicalMemory::kLeafFrames * kPageSize;

TEST(PhysicalMemory, TransferStraddlesLeafBoundary)
{
    PhysicalMemory pm;
    // Frames kLeafFrames-1 and kLeafFrames live in different leaves.
    const PhysAddr addr = kLeafSpan - 300;
    std::vector<u8> src(600);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<u8>(i * 13 + 1);
    pm.write(addr, src.data(), src.size());
    std::vector<u8> dst(src.size());
    pm.read(addr, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
    EXPECT_EQ(pm.read8(kLeafSpan - 1), src[299]);
    EXPECT_EQ(pm.read8(kLeafSpan), src[300]);
    EXPECT_EQ(pm.read8(addr - 1), 0);
    EXPECT_EQ(pm.read8(addr + src.size()), 0);
}

TEST(PhysicalMemory, LastByteBelowUnevenCapacity)
{
    // One full leaf plus three frames: the last leaf is partly used.
    const u64 cap = kLeafSpan + 3 * kPageSize;
    PhysicalMemory pm(cap);
    ASSERT_EQ(pm.capacity(), cap);
    EXPECT_EQ(pm.read8(cap - 1), 0);
    pm.write8(cap - 1, 0x7e);
    EXPECT_EQ(pm.read8(cap - 1), 0x7e);
    pm.write64(cap - 8, 0x0102030405060708ULL);
    EXPECT_EQ(pm.read64(cap - 8), 0x0102030405060708ULL);
}

TEST(PhysicalMemory, NeverTouchedLeafReadsZero)
{
    PhysicalMemory pm;
    pm.write64(8, ~u64{0}); // materialize leaf 0 only
    std::vector<u8> buf(3 * kPageSize, 0xff);
    pm.read(5 * kLeafSpan + 100, buf.data(), buf.size());
    for (u8 b : buf)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(pm.read64(pm.capacity() - 8), 0u);
}

TEST(PhysicalMemory, ZeroFillOfUntouchedMemoryFiresObserverOnce)
{
    PhysicalMemory pm;
    std::vector<std::pair<PhysAddr, u64>> seen;
    pm.setWriteObserver(
        [&seen](PhysAddr a, u64 n) { seen.emplace_back(a, n); });

    const u64 size = 2 * kLeafSpan + 5 * kPageSize; // crosses leaves
    const PhysAddr base = kLeafSpan + 7 * kPageSize;
    pm.fillZero(base, size);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], std::make_pair(base, size));
    for (u64 off = 0; off < size; off += kPageSize / 2)
        ASSERT_EQ(pm.read64(base + off), 0u);

    seen.clear();
    const u64 run = kLeafSpan + 1;
    const PhysAddr a = pm.allocContiguous(run);
    const u64 rounded = pagesSpanned(0, run) * kPageSize;
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], std::make_pair(a, rounded));
    std::vector<u8> buf(rounded, 0xff);
    pm.read(a, buf.data(), buf.size());
    for (u8 b : buf)
        ASSERT_EQ(b, 0);
}

TEST(PhysicalMemory, RecycledFrameReadsZero)
{
    PhysicalMemory pm;
    const PhysAddr a = pm.allocFrame();
    std::vector<u8> junk(kPageSize, 0xa5);
    pm.write(a, junk.data(), junk.size());
    pm.freeFrame(a);
    ASSERT_EQ(pm.allocFrame(), a);
    std::vector<u8> buf(kPageSize, 0xff);
    pm.read(a, buf.data(), buf.size());
    for (u8 b : buf)
        ASSERT_EQ(b, 0);
}

// ---- inline word accessors --------------------------------------------

/** Word offsets around the frame and leaf boundaries that the inline
 * paths must get right, aligned and not. */
std::vector<PhysAddr>
wordProbeAddrs()
{
    std::vector<PhysAddr> addrs;
    for (const PhysAddr edge : {2 * kPageSize, 3 * kPageSize, kLeafSpan})
        for (const PhysAddr a :
             {edge - 8, edge - 7, edge - 4, edge - 3, edge - 1, edge,
              edge + 1, edge + 4, edge + 8})
            addrs.push_back(a);
    return addrs;
}

TEST(PhysicalMemory, WordReadsAgreeWithGenericRead)
{
    PhysicalMemory pm;
    std::vector<u8> pattern(4 * kPageSize);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<u8>(i * 29 + 5);
    pm.write(kPageSize, pattern.data(), pattern.size());
    pm.write(kLeafSpan - 2 * kPageSize, pattern.data(), pattern.size());
    for (const PhysAddr a : wordProbeAddrs()) {
        u64 v64;
        u32 v32;
        pm.read(a, &v64, sizeof(v64));
        pm.read(a, &v32, sizeof(v32));
        EXPECT_EQ(pm.read64(a), v64) << "addr " << a;
        EXPECT_EQ(pm.read32(a), v32) << "addr " << a;
    }
}

TEST(PhysicalMemory, Write64AgreesWithGenericWrite)
{
    PhysicalMemory fast, generic;
    // Materialize both neighbourhoods first so aligned words take the
    // inline path, then overlay words at every probe address.
    const std::vector<u8> ones(4 * kPageSize, 0x11);
    for (PhysicalMemory *pm : {&fast, &generic}) {
        pm->write(kPageSize, ones.data(), ones.size());
        pm->write(kLeafSpan - 2 * kPageSize, ones.data(), ones.size());
    }
    u64 value = 0x0123456789abcdefULL;
    for (const PhysAddr a : wordProbeAddrs()) {
        value = value * 6364136223846793005ULL + 1;
        fast.write64(a, value);
        generic.write(a, &value, sizeof(value));
    }
    for (const PhysAddr base : {kPageSize, kLeafSpan - 2 * kPageSize}) {
        std::vector<u8> f(ones.size()), g(ones.size());
        fast.read(base, f.data(), f.size());
        generic.read(base, g.data(), g.size());
        EXPECT_EQ(f, g) << "base " << base;
    }
}

TEST(PhysicalMemory, Write64ReportsToObserver)
{
    PhysicalMemory pm;
    pm.write64(0x4000, 1); // materialized: write64 could take its fast path
    std::vector<std::pair<PhysAddr, u64>> seen;
    pm.setWriteObserver(
        [&seen](PhysAddr a, u64 n) { seen.emplace_back(a, n); });
    pm.write64(0x4010, 0xfeed);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], std::make_pair(PhysAddr{0x4010}, u64{8}));
    EXPECT_EQ(pm.read64(0x4010), 0xfeedu);
}

TEST(PhysicalMemory, WordReadsOfUnwrittenFrameInPopulatedLeafAreZero)
{
    PhysicalMemory pm;
    pm.write64(3 * kPageSize, ~u64{0}); // leaf 0 now exists
    ASSERT_NE(pm.frameData(3 * kPageSize), nullptr);
    ASSERT_EQ(pm.frameData(4 * kPageSize), nullptr);
    EXPECT_EQ(pm.read64(4 * kPageSize), 0u);
    EXPECT_EQ(pm.read32(4 * kPageSize + 12), 0u);
    EXPECT_EQ(pm.frameData(4 * kPageSize), nullptr)
        << "a read must not materialize a frame";
}

TEST(PhysicalMemory, FramesAcrossManyBlocksKeepTheirData)
{
    PhysicalMemory pm;
    // Scattered frame numbers, materialized out of address order, over
    // more than three host blocks.
    const u64 nframes = 3 * PhysicalMemory::kBlockFrames + 7;
    std::vector<PhysAddr> frames;
    for (u64 i = 0; i < nframes; ++i)
        frames.push_back(((i * 389) % 4099 + 1) * kPageSize);
    for (u64 i = 0; i < nframes; ++i)
        for (u64 off = 0; off < kPageSize; off += 8)
            pm.write64(frames[i] + off, (i << 32) | off);
    for (u64 i = 0; i < nframes; ++i) {
        const u8 *host = pm.frameData(frames[i]);
        ASSERT_NE(host, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(host) % kPageSize, 0u)
            << "frames must be page-aligned in host memory";
        for (u64 off = 0; off < kPageSize; off += 8)
            ASSERT_EQ(pm.read64(frames[i] + off), (i << 32) | off)
                << "frame " << i << " off " << off;
    }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PhysicalMemory, UncarvedNeighbourFrameStaysPoisoned)
{
    PhysicalMemory pm;
    pm.write8(0x5000, 1); // the first frame carved from a fresh block
    const u8 *frame = pm.frameData(0x5000);
    ASSERT_NE(frame, nullptr);
    EXPECT_FALSE(__asan_address_is_poisoned(frame));
    EXPECT_FALSE(__asan_address_is_poisoned(frame + kPageSize - 1));
    EXPECT_TRUE(__asan_address_is_poisoned(frame - 1));
    EXPECT_TRUE(__asan_address_is_poisoned(frame + kPageSize))
        << "an overrun into the uncarved neighbour must be caught";
    pm.write8(0x9000, 1); // carved next, from the same block
    ASSERT_EQ(pm.frameData(0x9000), frame + kPageSize);
    EXPECT_FALSE(__asan_address_is_poisoned(frame + kPageSize));
    EXPECT_TRUE(__asan_address_is_poisoned(frame + 2 * kPageSize));
}
#endif

TEST(PhysicalMemoryDeathTest, OutOfRangeAccessPanics)
{
    PhysicalMemory pm(1 << 20); // 1 MB
    EXPECT_DEATH(pm.write64(2 << 20, 1), "out of range");
    u64 v;
    EXPECT_DEATH(pm.read((2 << 20), &v, 8), "out of range");
    // The inline word paths keep the bound check, even with the last
    // frame (and its leaf) materialized.
    pm.write64(pm.capacity() - 8, 0x77);
    EXPECT_EQ(pm.read64(pm.capacity() - 8), 0x77u);
    EXPECT_DEATH(pm.read64(pm.capacity()), "out of range");
    EXPECT_DEATH(pm.read32(pm.capacity()), "out of range");
    EXPECT_DEATH(pm.write64(pm.capacity(), 1), "out of range");
    // At a capacity of whole leaves, the first address past the end has
    // no directory slot at all.
    PhysicalMemory whole(kLeafSpan);
    whole.write64(whole.capacity() - 8, 0x77);
    EXPECT_DEATH(whole.read64(whole.capacity()), "out of range");
    EXPECT_DEATH(whole.read32(whole.capacity()), "out of range");
}

TEST(PhysicalMemoryDeathTest, ExhaustionPanics)
{
    PhysicalMemory pm(4 * kPageSize);
    pm.allocFrame();
    pm.allocFrame();
    pm.allocFrame(); // frames 1..3 (0 reserved)
    EXPECT_DEATH(pm.allocFrame(), "exhausted");
}

TEST(PhysicalMemoryDeathTest, UnalignedFreePanics)
{
    PhysicalMemory pm;
    pm.allocFrame();
    EXPECT_DEATH(pm.freeFrame(123), "unaligned");
}

} // namespace
} // namespace rio::mem
