/**
 * @file
 * Tests for the rIOMMU: structure packing (Figure 9), the hardware
 * routines (Figure 10), the driver map/unmap (Figure 11), the
 * one-entry-per-ring rIOTLB with prefetch, fine-grained protection,
 * wraparound, overflow and burst invalidation.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "cycles/cycle_account.h"
#include "riommu/rdevice.h"
#include "riommu/riommu.h"

namespace rio::riommu {
namespace {

using cycles::Cat;
using cycles::CycleAccount;

TEST(RIovaTest, PackUnpackRoundTrip)
{
    const RIova iova = RIova::pack(0x1234567 & 0x3fffffff, 0x2ffff, 0xabcd);
    EXPECT_EQ(iova.offset(), 0x1234567u & 0x3fffffffu);
    EXPECT_EQ(iova.rentry(), 0x2ffffu);
    EXPECT_EQ(iova.rid(), 0xabcdu);
}

TEST(RIovaTest, WithOffsetPreservesRidAndRentry)
{
    const RIova base = RIova::pack(0, 7, 3);
    const RIova moved = base.withOffset(4096);
    EXPECT_EQ(moved.offset(), 4096u);
    EXPECT_EQ(moved.rentry(), 7u);
    EXPECT_EQ(moved.rid(), 3u);
}

TEST(RPteTest, WordSerializationRoundTrip)
{
    RPte pte;
    pte.phys_addr = 0xdeadbeef123;
    pte.size = 0x3fffffff; // full 30 bits
    pte.dir = DmaDir::kFromDevice;
    pte.valid = true;
    const RPte r = RPte::fromWords(pte.word0(), pte.word1());
    EXPECT_EQ(r.phys_addr, pte.phys_addr);
    EXPECT_EQ(r.size, pte.size);
    EXPECT_EQ(r.dir, pte.dir);
    EXPECT_TRUE(r.valid);
}

class RiommuTest : public ::testing::Test
{
  protected:
    static constexpr u32 kRingSize = 8;

    RiommuTest()
        : riommu(pm, cost),
          dev(riommu, pm, bdf, std::vector<u32>{kRingSize, kRingSize},
              /*coherent=*/true,
              cost, &acct)
    {
        buf = pm.allocContiguous(kPageSize);
    }

    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    CycleAccount acct;
    Bdf bdf{0, 4, 0};
    Riommu riommu;
    RDevice dev;
    PhysAddr buf = 0;
};

TEST_F(RiommuTest, MapProducesSequentialRentries)
{
    for (u32 i = 0; i < kRingSize; ++i) {
        auto iova = dev.map(0, buf + i * 16, 16, DmaDir::kBidir);
        ASSERT_TRUE(iova.isOk());
        EXPECT_EQ(iova.value().rentry(), i);
        EXPECT_EQ(iova.value().rid(), 0u);
        EXPECT_EQ(iova.value().offset(), 0u);
    }
    EXPECT_EQ(dev.nmapped(0), kRingSize);
}

TEST_F(RiommuTest, TranslateReturnsPhysicalAddress)
{
    auto iova = dev.map(0, buf + 100, 64, DmaDir::kFromDevice);
    ASSERT_TRUE(iova.isOk());
    auto t = riommu.translate(bdf, iova.value().withOffset(10),
                              Access::kWrite, 4);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().pa, buf + 110);
}

TEST_F(RiommuTest, OverflowWhenRingIsFull)
{
    for (u32 i = 0; i < kRingSize; ++i)
        ASSERT_TRUE(dev.map(0, buf, 16, DmaDir::kBidir).isOk());
    auto r = dev.map(0, buf, 16, DmaDir::kBidir);
    EXPECT_EQ(r.status().code(), ErrorCode::kOverflow);
}

TEST_F(RiommuTest, UnmapFreesSlotAndWrapsAround)
{
    std::vector<RIova> iovas;
    for (u32 i = 0; i < kRingSize; ++i)
        iovas.push_back(dev.map(0, buf, 16, DmaDir::kBidir).value());
    // Free-and-reuse FIFO for 5 laps of the ring.
    for (u32 lap = 0; lap < 5; ++lap) {
        for (u32 i = 0; i < kRingSize; ++i) {
            ASSERT_TRUE(dev.unmap(iovas[i], false).isOk());
            auto fresh = dev.map(0, buf, 16, DmaDir::kBidir);
            ASSERT_TRUE(fresh.isOk());
            EXPECT_EQ(fresh.value().rentry(),
                      (lap * kRingSize + i) % kRingSize);
            iovas[i] = fresh.value();
        }
    }
    EXPECT_EQ(dev.nmapped(0), kRingSize);
}

TEST_F(RiommuTest, DoubleUnmapFails)
{
    auto iova = dev.map(0, buf, 16, DmaDir::kBidir).value();
    ASSERT_TRUE(dev.unmap(iova, false).isOk());
    EXPECT_EQ(dev.unmap(iova, false).code(), ErrorCode::kNotFound);
}

TEST_F(RiommuTest, RingsAreIndependent)
{
    auto a = dev.map(0, buf, 16, DmaDir::kBidir).value();
    auto b = dev.map(1, buf + 512, 16, DmaDir::kBidir).value();
    EXPECT_EQ(a.rentry(), 0u);
    EXPECT_EQ(b.rentry(), 0u);
    EXPECT_EQ(dev.nmapped(0), 1u);
    EXPECT_EQ(dev.nmapped(1), 1u);
    ASSERT_TRUE(dev.unmap(a, true).isOk());
    // Ring 1's mapping is untouched.
    auto t = riommu.translate(bdf, b, Access::kRead, 1);
    EXPECT_TRUE(t.isOk());
}

// ---- fine-grained protection (the rIOMMU's key safety upgrade) -----------

TEST_F(RiommuTest, OffsetBeyondSizeFaults)
{
    auto iova = dev.map(0, buf, 64, DmaDir::kBidir).value();
    EXPECT_TRUE(
        riommu.translate(bdf, iova.withOffset(63), Access::kRead, 1).isOk());
    auto t = riommu.translate(bdf, iova.withOffset(64), Access::kRead, 1);
    EXPECT_EQ(t.status().code(), ErrorCode::kIoPageFault);
    EXPECT_EQ(riommu.faults().back().reason,
              iommu::FaultReason::kOutOfRange);
}

TEST_F(RiommuTest, LengthOverrunFaults)
{
    auto iova = dev.map(0, buf, 64, DmaDir::kBidir).value();
    EXPECT_TRUE(riommu.translate(bdf, iova, Access::kRead, 64).isOk());
    EXPECT_FALSE(riommu.translate(bdf, iova, Access::kRead, 65).isOk());
    EXPECT_FALSE(
        riommu.translate(bdf, iova.withOffset(32), Access::kRead, 33)
            .isOk());
}

TEST_F(RiommuTest, DirectionViolationFaults)
{
    auto tx = dev.map(0, buf, 64, DmaDir::kToDevice).value();
    EXPECT_TRUE(riommu.translate(bdf, tx, Access::kRead, 1).isOk());
    auto t = riommu.translate(bdf, tx, Access::kWrite, 1);
    EXPECT_EQ(t.status().code(), ErrorCode::kPermission);
    EXPECT_EQ(riommu.faults().back().reason,
              iommu::FaultReason::kPermission);
}

TEST_F(RiommuTest, InvalidRPteFaults)
{
    auto iova = dev.map(0, buf, 16, DmaDir::kBidir).value();
    ASSERT_TRUE(dev.unmap(iova, true).isOk());
    auto t = riommu.translate(bdf, iova, Access::kRead, 1);
    EXPECT_EQ(t.status().code(), ErrorCode::kIoPageFault);
}

TEST_F(RiommuTest, OutOfRangeRidAndRentryFault)
{
    auto bad_rid = RIova::pack(0, 0, 99);
    EXPECT_FALSE(riommu.translate(bdf, bad_rid, Access::kRead, 1).isOk());
    auto bad_rentry = RIova::pack(0, kRingSize, 0);
    EXPECT_FALSE(
        riommu.translate(bdf, bad_rentry, Access::kRead, 1).isOk());
    EXPECT_EQ(riommu.faults().size(), 2u);
}

TEST_F(RiommuTest, UnknownDeviceFaults)
{
    auto t = riommu.translate(Bdf{9, 9, 1}, RIova::pack(0, 0, 0),
                              Access::kRead, 1);
    EXPECT_FALSE(t.isOk());
    EXPECT_EQ(riommu.faults().back().reason,
              iommu::FaultReason::kNoContext);
}

// ---- rIOTLB behaviour ------------------------------------------------------

TEST_F(RiommuTest, SequentialAccessHitsViaPrefetch)
{
    std::vector<RIova> iovas;
    for (u32 i = 0; i < kRingSize; ++i)
        iovas.push_back(dev.map(0, buf + i, 1, DmaDir::kBidir).value());

    ASSERT_TRUE(riommu.translate(bdf, iovas[0], Access::kRead, 1).isOk());
    for (u32 i = 1; i < kRingSize; ++i) {
        auto t = riommu.translate(bdf, iovas[i], Access::kRead, 1);
        ASSERT_TRUE(t.isOk());
        EXPECT_TRUE(t.value().riotlb_hit);
        EXPECT_TRUE(t.value().prefetch_hit)
            << "ring-order access must ride the prefetched next rPTE";
    }
    EXPECT_EQ(riommu.riotlb().stats().walks, 1u)
        << "only the first access walks the flat table";
}

TEST_F(RiommuTest, OutOfOrderAccessIsLegalButWalks)
{
    std::vector<RIova> iovas;
    for (u32 i = 0; i < 4; ++i)
        iovas.push_back(dev.map(0, buf + i, 1, DmaDir::kBidir).value());
    // §4 Applicability: valid IOVAs may be used out of order; the
    // only cost is that the prefetched next entry cannot serve them.
    ASSERT_TRUE(riommu.translate(bdf, iovas[2], Access::kRead, 1).isOk());
    auto t = riommu.translate(bdf, iovas[0], Access::kRead, 1);
    ASSERT_TRUE(t.isOk());
    EXPECT_FALSE(t.value().prefetch_hit);
    auto again = riommu.translate(bdf, iovas[3], Access::kRead, 1);
    ASSERT_TRUE(again.isOk());
}

TEST_F(RiommuTest, OneRiotlbEntryPerRing)
{
    std::vector<RIova> iovas;
    for (u32 i = 0; i < kRingSize; ++i)
        iovas.push_back(dev.map(0, buf + i, 1, DmaDir::kBidir).value());
    for (const RIova &iova : iovas)
        ASSERT_TRUE(riommu.translate(bdf, iova, Access::kRead, 1).isOk());
    EXPECT_EQ(riommu.riotlb().size(), 1u)
        << "a ring may never occupy more than one rIOTLB entry";

    ASSERT_TRUE(dev.map(1, buf, 1, DmaDir::kBidir).isOk());
    auto other =
        riommu.translate(bdf, RIova::pack(0, 0, 1), Access::kRead, 1);
    ASSERT_TRUE(other.isOk());
    EXPECT_EQ(riommu.riotlb().size(), 2u);
}

TEST_F(RiommuTest, EveryNewTranslationImplicitlyInvalidatesPrevious)
{
    auto a = dev.map(0, buf, 1, DmaDir::kBidir).value();
    auto b = dev.map(0, buf + 1, 1, DmaDir::kBidir).value();
    ASSERT_TRUE(riommu.translate(bdf, a, Access::kRead, 1).isOk());
    ASSERT_TRUE(riommu.translate(bdf, b, Access::kRead, 1).isOk());
    const RiotlbEntry *e = riommu.riotlb().peek(bdf.pack(), 0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->rentry, b.rentry()) << "entry now describes b, not a";
    EXPECT_EQ(riommu.riotlb().stats().implicit_invalidations, 1u);
}

TEST_F(RiommuTest, ImplicitInvalidationsCountEverySuccessfulSync)
{
    // A fault-free stream over both replacement paths: ring-order
    // accesses advance via the prefetched rPTE, skips re-walk.
    for (int round = 0; round < 3; ++round) {
        std::vector<RIova> iovas;
        for (u32 i = 0; i < kRingSize; ++i)
            iovas.push_back(dev.map(0, buf + i, 1, DmaDir::kBidir).value());
        for (u32 i : {0u, 1u, 2u, 5u, 6u, 3u, 7u})
            ASSERT_TRUE(
                riommu.translate(bdf, iovas[i], Access::kRead, 1).isOk());
        for (u32 i = 0; i < kRingSize; ++i)
            ASSERT_TRUE(dev.unmap(iovas[i], i + 1 == kRingSize).isOk());
    }
    const RiotlbStats &st = riommu.riotlb().stats();
    EXPECT_EQ(st.prefetch_hits, 9u) << "1, 2 and 6 of each round";
    EXPECT_EQ(st.walks, 12u) << "each round's miss plus 5, 3 and 7";
    EXPECT_GT(st.implicit_invalidations, 0u);
    EXPECT_EQ(st.implicit_invalidations, st.synced);
    EXPECT_EQ(st.synced, 18u);
}

TEST_F(RiommuTest, EndOfBurstInvalidatesRiotlbEntry)
{
    auto a = dev.map(0, buf, 1, DmaDir::kBidir).value();
    ASSERT_TRUE(riommu.translate(bdf, a, Access::kRead, 1).isOk());
    EXPECT_NE(riommu.riotlb().peek(bdf.pack(), 0), nullptr);
    ASSERT_TRUE(dev.unmap(a, /*end_of_burst=*/false).isOk());
    EXPECT_NE(riommu.riotlb().peek(bdf.pack(), 0), nullptr)
        << "mid-burst unmap must not invalidate";
    auto b = dev.map(0, buf, 1, DmaDir::kBidir).value();
    ASSERT_TRUE(dev.unmap(b, /*end_of_burst=*/true).isOk());
    EXPECT_EQ(riommu.riotlb().peek(bdf.pack(), 0), nullptr);
}

TEST_F(RiommuTest, BurstInvalidationChargedOnlyAtEndOfBurst)
{
    std::vector<RIova> iovas;
    for (u32 i = 0; i < kRingSize; ++i)
        iovas.push_back(dev.map(0, buf, 1, DmaDir::kBidir).value());
    acct.reset();
    for (u32 i = 0; i < kRingSize; ++i) {
        ASSERT_TRUE(
            dev.unmap(iovas[i], /*end_of_burst=*/i + 1 == kRingSize)
                .isOk());
    }
    EXPECT_EQ(acct.get(Cat::kUnmapIotlbInv), cost.iotlb_invalidate_entry)
        << "exactly one invalidation for the whole burst";
}

TEST_F(RiommuTest, PrefetchDisabledStillCorrect)
{
    riommu.setPrefetchEnabled(false);
    std::vector<RIova> iovas;
    for (u32 i = 0; i < kRingSize; ++i)
        iovas.push_back(dev.map(0, buf + i, 1, DmaDir::kBidir).value());
    for (const RIova &iova : iovas) {
        auto t = riommu.translate(bdf, iova, Access::kRead, 1);
        ASSERT_TRUE(t.isOk());
        EXPECT_FALSE(t.value().prefetch_hit);
        EXPECT_EQ(t.value().pa, buf + iova.rentry());
    }
}

TEST_F(RiommuTest, NonCoherentModeChargesFlushPerUpdate)
{
    CycleAccount acct_nc;
    RDevice dev_nc(riommu, pm, Bdf{0, 5, 0}, std::vector<u32>{kRingSize},
                   /*coherent=*/false, cost, &acct_nc);
    ASSERT_TRUE(dev_nc.map(0, buf, 16, DmaDir::kBidir).isOk());
    ASSERT_TRUE(dev.map(0, buf, 16, DmaDir::kBidir).isOk());
    const Cycles nc = acct_nc.get(Cat::kMapPageTable);
    const Cycles c = acct.get(Cat::kMapPageTable);
    EXPECT_EQ(nc - c, cost.memory_barrier + cost.cacheline_flush);
}

TEST_F(RiommuTest, DmaRoundTripThroughRiommu)
{
    auto iova = dev.map(0, buf + 64, 256, DmaDir::kBidir).value();
    const char msg[] = "through the flat table";
    ASSERT_TRUE(riommu.dmaWrite(bdf, iova.withOffset(8), msg, sizeof(msg))
                    .isOk());
    char in[sizeof(msg)] = {};
    ASSERT_TRUE(
        riommu.dmaRead(bdf, iova.withOffset(8), in, sizeof(in)).isOk());
    EXPECT_STREQ(in, msg);
    // Verify physical placement.
    char probe[sizeof(msg)] = {};
    pm.read(buf + 64 + 8, probe, sizeof(probe));
    EXPECT_STREQ(probe, msg);
}

TEST_F(RiommuTest, MapChargesAreTiny)
{
    // The contrast with Table 1: rIOMMU "IOVA allocation" is a tail
    // bump and the flat-table update is one store + sync_mem.
    acct.reset();
    ASSERT_TRUE(dev.map(0, buf, 16, DmaDir::kBidir).isOk());
    EXPECT_EQ(acct.get(Cat::kMapIovaAlloc), cost.locked_rmw);
    EXPECT_LT(acct.get(Cat::kMapPageTable), 100u);
    EXPECT_LT(acct.mapTotal(), 200u);
}

TEST_F(RiommuTest, DeviceTeardownReleasesMemory)
{
    const u64 before = pm.allocatedFrames();
    {
        RDevice scoped(riommu, pm, Bdf{0, 6, 0},
                       std::vector<u32>{1024, 1024, 64}, true,
                       cost, nullptr);
        EXPECT_GT(pm.allocatedFrames(), before);
    }
    EXPECT_EQ(pm.allocatedFrames(), before);
}

/** One valid rPTE as a scan reports it. */
struct ScannedPte
{
    u32 rentry;
    u64 word0;
    u64 word1;
    bool operator==(const ScannedPte &) const = default;
};

/**
 * forEachValidPte reports exactly what a per-entry readPte scan finds,
 * on tables that end one entry past a frame, fill one frame exactly,
 * span four frames with the last two never written, or hold one
 * entry — including an rPTE written into an absent frame behind the
 * driver.
 */
TEST(RDeviceScan, ForEachValidPteMatchesPerEntryScan)
{
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    Riommu riommu(pm, cost);
    constexpr u32 kPerFrame = kPageSize / RPte::kBytes;
    const std::vector<u32> sizes{kPerFrame + 1, 4 * kPerFrame - 24,
                                 kPerFrame, 1, 3};
    RDevice dev(riommu, pm, Bdf{0, 5, 0}, sizes, /*coherent=*/true, cost,
                nullptr);
    const PhysAddr buf = pm.allocContiguous(kPageSize);

    const auto mapN = [&](u16 rid, u32 n) {
        std::vector<RIova> out;
        for (u32 i = 0; i < n; ++i)
            out.push_back(
                dev.map(rid, buf + (i % 64) * 64, 64 + rid, DmaDir::kBidir)
                    .value());
        return out;
    };
    // Ring 0: every entry, the last alone in the second frame; drop
    // a few on both sides of the frame boundary.
    const auto r0 = mapN(0, kPerFrame + 1);
    for (const u32 e : {0u, 7u, kPerFrame - 1, kPerFrame})
        ASSERT_TRUE(dev.unmap(r0[e], false).isOk());
    // Ring 1: the first 300 entries, then unmap the first 200, so its
    // first frame is written but all-invalid, and frames 2 and 3 are
    // never written.
    const auto r1 = mapN(1, 300);
    for (u32 e = 0; e < 200; ++e)
        ASSERT_TRUE(dev.unmap(r1[e], false).isOk());
    ASSERT_EQ(pm.frameData(dev.tableAddr(1) + 2 * kPageSize), nullptr);
    ASSERT_EQ(pm.frameData(dev.tableAddr(1) + 3 * kPageSize), nullptr);
    // Ring 2 stays untouched; ring 3 holds its one entry.
    mapN(3, 1);
    // Planted behind the driver in ring 1's last, absent frame, and
    // in ring 4, whose table the driver never wrote.
    RPte planted;
    planted.phys_addr = buf;
    planted.size = 4096;
    planted.dir = DmaDir::kFromDevice;
    planted.valid = true;
    for (const auto &[rid, e] :
         {std::pair<u16, u32>{1, 3 * kPerFrame + 5}, {4, 2}}) {
        const PhysAddr slot = dev.tableAddr(rid) + e * RPte::kBytes;
        pm.write64(slot, planted.word0());
        pm.write64(slot + 8, planted.word1());
    }

    u64 total = 0;
    for (u16 rid = 0; rid < dev.nrings(); ++rid) {
        std::vector<ScannedPte> per_entry, by_frame;
        for (u32 e = 0; e < dev.ringSize(rid); ++e) {
            const RPte pte = dev.readPte(rid, e);
            if (pte.valid)
                per_entry.push_back({e, pte.word0(), pte.word1()});
        }
        dev.forEachValidPte(rid, [&](u32 e, const RPte &pte) {
            by_frame.push_back({e, pte.word0(), pte.word1()});
        });
        EXPECT_EQ(by_frame, per_entry) << "ring " << rid;
        total += by_frame.size();
    }
    EXPECT_EQ(total, (kPerFrame + 1 - 4) + 100 + 1 + 2);
}

} // namespace
} // namespace rio::riommu
