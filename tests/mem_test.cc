/**
 * @file
 * Unit tests for the simulated physical memory.
 */
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "des/parallel.h"
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

// ---- watched range ------------------------------------------------------

/** Each write path, placed fully below, straddling or touching each
 * edge of, inside, and fully above a watched range: the observer sees
 * exactly the writes that intersect it, each with its full extent, and
 * every write lands. */
TEST(PhysicalMemory, ObserverSeesOnlyWritesIntersectingItsRange)
{
    const PhysAddr lo = 8 * kPageSize + 24;
    const u64 len = 3 * kPageSize;
    const PhysAddr end = lo + len;
    enum class Op { kWrite, kWrite64, kWrite32, kWrite8, kFillZero, kSpan };
    struct Case
    {
        Op op;
        const char *name;
        u64 size;
    };
    const Case cases[] = {
        {Op::kWrite, "write", 24},       {Op::kWrite64, "write64", 8},
        {Op::kWrite32, "write32", 4},    {Op::kWrite8, "write8", 1},
        {Op::kFillZero, "fillZero", 100},
        {Op::kSpan, "multi-frame write", 2 * kPageSize + 16},
    };
    for (const Case &c : cases) {
        const u64 n = c.size;
        // (addr, intersects): far below, touching below, one byte over
        // the low edge, at it, the last byte, touching above, far above.
        const std::pair<PhysAddr, bool> places[] = {
            {lo - n - 64, false}, {lo - n, false}, {lo - n + 1, true},
            {lo, true},           {end - 1, true}, {end, false},
            {end + 64, false},
        };
        for (const auto &[addr, hits] : places) {
            SCOPED_TRACE(testing::Message() << c.name << " at " << addr);
            PhysicalMemory pm;
            // Materialized beforehand, so writes outside the range can
            // take the inline paths.
            const std::vector<u8> ones(end + 3 * kPageSize, 0x11);
            pm.write(0, ones.data(), ones.size());
            std::vector<std::pair<PhysAddr, u64>> seen;
            pm.setWriteObserver(
                [&seen](PhysAddr a, u64 sz) { seen.emplace_back(a, sz); },
                lo, len);
            std::vector<u8> data(n);
            for (u64 i = 0; i < n; ++i)
                data[i] = static_cast<u8>(i * 13 + 1);
            switch (c.op) {
            case Op::kWrite:
            case Op::kSpan:
                pm.write(addr, data.data(), n);
                break;
            case Op::kWrite64: {
                u64 v;
                std::memcpy(&v, data.data(), n);
                pm.write64(addr, v);
                break;
            }
            case Op::kWrite32: {
                u32 v;
                std::memcpy(&v, data.data(), n);
                pm.write32(addr, v);
                break;
            }
            case Op::kWrite8:
                pm.write8(addr, data[0]);
                break;
            case Op::kFillZero:
                std::fill(data.begin(), data.end(), 0);
                pm.fillZero(addr, n);
                break;
            }
            if (hits) {
                ASSERT_EQ(seen.size(), 1u);
                EXPECT_EQ(seen[0], std::make_pair(addr, n));
            } else {
                EXPECT_TRUE(seen.empty());
            }
            std::vector<u8> got(n);
            pm.read(addr, got.data(), n);
            EXPECT_EQ(got, data);
        }
    }
}

/** Clearing a ranged observer stops its calls and forgets the range: a
 * later default observer watches all of memory again. */
TEST(PhysicalMemory, ClearedObserverForgetsItsRange)
{
    PhysicalMemory pm;
    pm.write64(0x1000, 1);
    pm.write64(0x9000, 1);
    u64 calls = 0;
    pm.setWriteObserver([&calls](PhysAddr, u64) { ++calls; }, 0x8000,
                        kPageSize);
    pm.write64(0x9000, 2);
    pm.write64(0x8ff8, 2);
    EXPECT_EQ(calls, 1u);
    pm.setWriteObserver(nullptr);
    pm.write64(0x8ff8, 3);
    pm.write(0x8000, &calls, sizeof(calls));
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(pm.read64(0x8ff8), 3u);
    EXPECT_EQ(pm.read64(0x1000), 1u);

    std::vector<std::pair<PhysAddr, u64>> seen;
    pm.setWriteObserver(
        [&seen](PhysAddr a, u64 n) { seen.emplace_back(a, n); });
    pm.write64(0x1000, 4);
    pm.write8(0x9000, 4);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], std::make_pair(PhysAddr{0x1000}, u64{8}));
    EXPECT_EQ(seen[1], std::make_pair(PhysAddr{0x9000}, u64{1}));
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

// ---- recycled host blocks -----------------------------------------------

/** Fill @p nframes frames (more than one host block) with 0xa5 and
 * return their host addresses; the memory's blocks then go to the
 * process-wide pool when @p pm dies. */
std::set<const u8 *>
dirtyFrames(PhysicalMemory &pm, u64 nframes)
{
    const std::vector<u8> junk(kPageSize, 0xa5);
    std::set<const u8 *> hosts;
    for (u64 i = 0; i < nframes; ++i) {
        const PhysAddr a = (i + 1) * kPageSize;
        pm.write(a, junk.data(), junk.size());
        hosts.insert(pm.frameData(a));
    }
    return hosts;
}

constexpr u64 kDirtyFrames = 2 * PhysicalMemory::kBlockFrames + 3;

TEST(PhysicalMemory, PartialFirstWriteToRecycledBlockReadsZerosAround)
{
    std::set<const u8 *> old_hosts;
    {
        PhysicalMemory dead;
        old_hosts = dirtyFrames(dead, kDirtyFrames);
    }
    PhysicalMemory pm;
    const PhysAddr a = 7 * kPageSize;
    const u64 v = 0x1122334455667788ULL;
    pm.write(a + 100, &v, sizeof(v)); // 8 bytes mid-frame
    ASSERT_TRUE(old_hosts.count(pm.frameData(a)))
        << "the first frame must come from the dead machine's block";
    std::vector<u8> got(kPageSize);
    pm.read(a, got.data(), got.size());
    std::vector<u8> want(kPageSize, 0);
    std::memcpy(want.data() + 100, &v, sizeof(v));
    EXPECT_EQ(got, want);

    // A write straddling two absent frames covers neither whole.
    const std::vector<u8> ones(kPageSize, 0x11);
    const PhysAddr b = 20 * kPageSize + kPageSize / 2;
    pm.write(b, ones.data(), ones.size());
    std::vector<u8> span(2 * kPageSize);
    pm.read(20 * kPageSize, span.data(), span.size());
    for (u64 i = 0; i < span.size(); ++i) {
        const bool inside = i >= kPageSize / 2 && i < 3 * kPageSize / 2;
        ASSERT_EQ(span[i], inside ? 0x11 : 0) << "byte " << i;
    }
}

TEST(PhysicalMemory, WholeFrameFirstWriteToRecycledBlockReadsBack)
{
    {
        PhysicalMemory dead;
        dirtyFrames(dead, kDirtyFrames);
    }
    PhysicalMemory pm;
    // Two whole frames in one write, then a whole frame alone.
    std::vector<u8> pattern(2 * kPageSize);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<u8>(i * 31 + 7);
    pm.write(3 * kPageSize, pattern.data(), pattern.size());
    pm.write(9 * kPageSize, pattern.data(), kPageSize);
    std::vector<u8> got(pattern.size());
    pm.read(3 * kPageSize, got.data(), got.size());
    EXPECT_EQ(got, pattern);
    got.resize(kPageSize);
    pm.read(9 * kPageSize, got.data(), got.size());
    EXPECT_EQ(got, std::vector<u8>(pattern.begin(),
                                   pattern.begin() + kPageSize));
    EXPECT_EQ(pm.read64(5 * kPageSize), 0u);
    EXPECT_EQ(pm.read64(10 * kPageSize), 0u);
}

/** A memory carving from dirty pooled blocks hands out zeroed frames:
 * its first block zeroed frame by frame, the later ones whole. */
TEST(PhysicalMemory, FramesFromDirtyPooledBlocksReadZero)
{
    // Three whole dirty blocks, so every frame the new memory carves
    // (from the last pooled block back) was dirty.
    std::set<const u8 *> old_hosts;
    {
        PhysicalMemory dead;
        old_hosts = dirtyFrames(dead, 3 * PhysicalMemory::kBlockFrames);
    }
    PhysicalMemory pm;
    // Frames carved in an order unrelated to their addresses; one zero
    // byte materializes each, so the whole frame must read zero.
    for (u64 i = 0; i < kDirtyFrames; ++i)
        pm.write8(((i * 37) % 101 + 1) * kPageSize + i, 0);
    for (u64 i = 0; i < kDirtyFrames; ++i) {
        const u8 *host = pm.frameData(((i * 37) % 101 + 1) * kPageSize);
        ASSERT_NE(host, nullptr);
        ASSERT_TRUE(old_hosts.count(host)) << "frame " << i;
        for (u64 b = 0; b < kPageSize; ++b)
            ASSERT_EQ(host[b], 0) << "frame " << i << " byte " << b;
    }
}

TEST(PhysicalMemory, WordReadsOfUnwrittenFrameInPopulatedLeafAreZero)
{
    {
        PhysicalMemory dead; // its dirty blocks go to the pool
        dirtyFrames(dead, kDirtyFrames);
    }
    PhysicalMemory pm;
    // Materialize frames on both sides of each probed frame so their
    // leaves exist, then read the absent frames' edge words.
    const std::vector<u8> ones(kPageSize, 0xff);
    for (const PhysAddr a : {kPageSize, 4 * kPageSize,
                             kLeafSpan - 3 * kPageSize,
                             kLeafSpan + 2 * kPageSize})
        pm.write(a, ones.data(), ones.size());
    for (const PhysAddr absent :
         {2 * kPageSize, 3 * kPageSize, kLeafSpan - 2 * kPageSize,
          kLeafSpan - kPageSize, kLeafSpan, kLeafSpan + kPageSize}) {
        ASSERT_EQ(pm.frameData(absent), nullptr);
        for (const PhysAddr a : {absent, absent + kPageSize - 8}) {
            EXPECT_EQ(pm.read64(a), 0u) << "addr " << a;
            EXPECT_EQ(pm.read32(a), 0u) << "addr " << a;
            EXPECT_EQ(pm.read32(a + 4), 0u) << "addr " << a;
        }
        EXPECT_EQ(pm.frameData(absent), nullptr)
            << "a read must not materialize a frame";
    }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PhysicalMemory, PooledBlockIsPoisoned)
{
    const u8 *first = nullptr;
    {
        PhysicalMemory dead;
        dead.write8(0x5000, 1);
        first = dead.frameData(0x5000);
        ASSERT_FALSE(__asan_address_is_poisoned(first));
    }
    EXPECT_TRUE(__asan_address_is_poisoned(first))
        << "a dead machine's frame must be poisoned while pooled";
    EXPECT_TRUE(__asan_address_is_poisoned(first + kPageSize - 1));
    PhysicalMemory pm;
    pm.write8(0x7000, 2);
    ASSERT_EQ(pm.frameData(0x7000), first) << "the pool hands it back";
    EXPECT_FALSE(__asan_address_is_poisoned(first));
    EXPECT_TRUE(__asan_address_is_poisoned(first + kPageSize))
        << "the block's uncarved frames stay poisoned";

    // Carve the rest of the first block and one frame of the second,
    // which is zeroed whole: its uncarved frames stay poisoned too.
    constexpr u64 kFrames = PhysicalMemory::kBlockFrames;
    for (u64 i = 1; i <= kFrames; ++i)
        pm.write8(0x7000 + i * kPageSize, 3);
    const u8 *second = pm.frameData(0x7000 + kFrames * kPageSize);
    ASSERT_NE(second, nullptr);
    EXPECT_FALSE(__asan_address_is_poisoned(second));
    EXPECT_FALSE(__asan_address_is_poisoned(second + kPageSize - 1));
    EXPECT_TRUE(__asan_address_is_poisoned(second + kPageSize));
    EXPECT_TRUE(
        __asan_address_is_poisoned(second + kFrames * kPageSize - 1))
        << "the whole-zeroed block's last frame is still uncarved";
}
#endif

/** Memories built and destroyed on parallelFor threads share the
 * block pool; each must see only its own bytes (the tsan lane runs
 * this against the pool's lock). */
TEST(PhysicalMemory, ConcurrentMemoriesShareTheBlockPool)
{
    constexpr size_t kRows = 8;
    std::vector<int> ok(kRows, 0);
    des::parallelFor(kRows, 4, [&ok](size_t row) {
        bool good = true;
        for (u64 round = 0; round < 3; ++round) {
            PhysicalMemory pm;
            const u8 tag = static_cast<u8>(row * 16 + round + 1);
            const std::vector<u8> page(kPageSize, tag);
            const u64 nframes = PhysicalMemory::kBlockFrames + 5;
            for (u64 i = 0; i < nframes; ++i)
                pm.write((2 * i + 1) * kPageSize, page.data(), page.size());
            pm.write64(2 * kPageSize + 64, tag);
            std::vector<u8> got(kPageSize);
            for (u64 i = 0; i < nframes; ++i) {
                pm.read((2 * i + 1) * kPageSize, got.data(), got.size());
                good = good && got == page;
            }
            pm.read(2 * kPageSize, got.data(), got.size());
            for (u64 b = 0; b < kPageSize; ++b)
                good = good && got[b] == (b == 64 ? tag : 0);
        }
        ok[row] = good;
    });
    for (size_t row = 0; row < kRows; ++row)
        EXPECT_TRUE(ok[row]) << "row " << row;
}

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
    // Word reads of a never-written memory: the inline zero path must
    // not cover words past the end, aligned, misaligned or wrapping.
    PhysicalMemory blank(1 << 20);
    EXPECT_EQ(blank.read64(blank.capacity() - 8), 0u);
    EXPECT_DEATH(blank.read64(blank.capacity()), "out of range");
    EXPECT_DEATH(blank.read64(blank.capacity() - 4), "out of range");
    EXPECT_DEATH(blank.read32(blank.capacity() - 2), "out of range");
    EXPECT_DEATH(blank.read64(~PhysAddr{7}), "out of range");
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
