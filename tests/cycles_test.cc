/**
 * @file
 * Tests for the cycle-accounting toolkit: categories, charging,
 * windows, and the cost-model unit conversions.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"

namespace rio::cycles {
namespace {

TEST(CycleAccount, StartsEmpty)
{
    CycleAccount a;
    EXPECT_EQ(a.total(), 0u);
    for (unsigned i = 0; i < kNumCats; ++i) {
        EXPECT_EQ(a.get(static_cast<Cat>(i)), 0u);
        EXPECT_EQ(a.ops(static_cast<Cat>(i)), 0u);
    }
}

TEST(CycleAccount, ChargeAccumulatesPerCategory)
{
    CycleAccount a;
    a.charge(Cat::kMapIovaAlloc, 100);
    a.charge(Cat::kMapIovaAlloc, 50);
    a.charge(Cat::kUnmapIotlbInv, 2150);
    EXPECT_EQ(a.get(Cat::kMapIovaAlloc), 150u);
    EXPECT_EQ(a.ops(Cat::kMapIovaAlloc), 2u);
    EXPECT_DOUBLE_EQ(a.avg(Cat::kMapIovaAlloc), 75.0);
    EXPECT_EQ(a.total(), 2300u);
}

TEST(CycleAccount, ChargeContDoesNotBumpOps)
{
    CycleAccount a;
    a.charge(Cat::kUnmapOther, 26);
    a.chargeCont(Cat::kUnmapOther, 2150); // amortized flush share
    EXPECT_EQ(a.ops(Cat::kUnmapOther), 1u);
    EXPECT_EQ(a.get(Cat::kUnmapOther), 2176u);
}

TEST(CycleAccount, MapUnmapTotalsSplitCorrectly)
{
    CycleAccount a;
    a.charge(Cat::kMapIovaAlloc, 1);
    a.charge(Cat::kMapPageTable, 2);
    a.charge(Cat::kMapOther, 4);
    a.charge(Cat::kUnmapIovaFind, 8);
    a.charge(Cat::kUnmapIovaFree, 16);
    a.charge(Cat::kUnmapPageTable, 32);
    a.charge(Cat::kUnmapIotlbInv, 64);
    a.charge(Cat::kUnmapOther, 128);
    a.charge(Cat::kProcessing, 256);
    EXPECT_EQ(a.mapTotal(), 7u);
    EXPECT_EQ(a.unmapTotal(), 248u);
    EXPECT_EQ(a.dmaTotal(), 255u);
    EXPECT_EQ(a.total(), 511u);
}

TEST(CycleAccount, SinceComputesWindows)
{
    CycleAccount a;
    a.charge(Cat::kProcessing, 100);
    const CycleAccount snapshot = a;
    a.charge(Cat::kProcessing, 40);
    a.charge(Cat::kMapOther, 5);
    const CycleAccount delta = a.since(snapshot);
    EXPECT_EQ(delta.get(Cat::kProcessing), 40u);
    EXPECT_EQ(delta.ops(Cat::kProcessing), 1u);
    EXPECT_EQ(delta.get(Cat::kMapOther), 5u);
    EXPECT_EQ(delta.total(), 45u);
}

TEST(CycleAccount, ResetClears)
{
    CycleAccount a;
    a.charge(Cat::kProcessing, 7);
    a.reset();
    EXPECT_EQ(a.total(), 0u);
    EXPECT_EQ(a.ops(Cat::kProcessing), 0u);
}

TEST(CycleAccount, TotalIsTheSumOfCategoriesAfterEveryMutator)
{
    const auto sum = [](const CycleAccount &a) {
        Cycles s = 0;
        for (unsigned i = 0; i < kNumCats; ++i)
            s += a.get(static_cast<Cat>(i));
        return s;
    };
    CycleAccount a;
    a.charge(Cat::kMapIovaAlloc, 3);
    a.chargeCont(Cat::kUnmapOther, 11);
    EXPECT_EQ(a.total(), 14u);
    CycleAccount b;
    b.charge(Cat::kVirt, 100);
    b += a;
    EXPECT_EQ(b.total(), sum(b));
    EXPECT_EQ(b.total(), 114u);
    const CycleAccount delta = b.since(a);
    EXPECT_EQ(delta.total(), sum(delta));
    EXPECT_EQ(delta.total(), 100u);
    b.reset();
    b.chargeCont(Cat::kLockWait, 9);
    EXPECT_EQ(b.total(), sum(b));
}

TEST(CycleAccount, EveryCategoryHasAName)
{
    for (unsigned i = 0; i < kNumCats; ++i)
        EXPECT_NE(catName(static_cast<Cat>(i)), nullptr);
}

TEST(CycleAccount, CategoryNamesAreUnique)
{
    // Duplicate (or fallback) names would silently merge categories
    // in every breakdown table and JSON mirror keyed on catName.
    std::set<std::string> seen;
    for (unsigned i = 0; i < kNumCats; ++i) {
        const char *name = catName(static_cast<Cat>(i));
        ASSERT_NE(name, nullptr) << i;
        EXPECT_NE(std::string(name), "?") << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate category name: " << name;
    }
}

TEST(CostModel, UnitConversions)
{
    CostModel m;
    m.core_ghz = 3.1;
    EXPECT_DOUBLE_EQ(m.toNanos(3100), 1000.0);
    EXPECT_DOUBLE_EQ(m.toSeconds(3100000000ULL), 1.0);
    EXPECT_DOUBLE_EQ(m.hz(), 3.1e9);
}

TEST(CostModel, PaperAnchorsHold)
{
    // The constants that come straight from the paper's text.
    const CostModel &m = defaultCostModel();
    EXPECT_EQ(m.iotlb_invalidate_entry, 2150u)
        << "the paper's own busy-wait constant";
    EXPECT_EQ(m.iotlb_invalidate_queued, 9u) << "Table 1 defer row";
    EXPECT_EQ(4 * m.hw_walk_level, 1532u)
        << "the 5.3 measured miss penalty == a 4-level walk";
    EXPECT_DOUBLE_EQ(m.core_ghz, 3.1) << "Xeon E3-1220 clock";
}

} // namespace
} // namespace rio::cycles
