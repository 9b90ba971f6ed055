/**
 * @file
 * Unit tests for the base utilities: types helpers, RNG determinism,
 * statistics, tables, strings, Status/Result.
 */
#include <gtest/gtest.h>

#include <set>

#include "base/fifo.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/table.h"
#include "base/types.h"

namespace rio {
namespace {

// ---- types ----------------------------------------------------------------

TEST(Types, PageAlignment)
{
    EXPECT_EQ(pageAlignDown(0), 0u);
    EXPECT_EQ(pageAlignDown(4095), 0u);
    EXPECT_EQ(pageAlignDown(4096), 4096u);
    EXPECT_EQ(pageAlignUp(1), 4096u);
    EXPECT_EQ(pageAlignUp(4096), 4096u);
    EXPECT_TRUE(isPageAligned(8192));
    EXPECT_FALSE(isPageAligned(8193));
}

TEST(Types, PagesSpanned)
{
    EXPECT_EQ(pagesSpanned(0, 0), 0u);
    EXPECT_EQ(pagesSpanned(0, 1), 1u);
    EXPECT_EQ(pagesSpanned(0, 4096), 1u);
    EXPECT_EQ(pagesSpanned(0, 4097), 2u);
    // A 2-byte buffer straddling a page boundary spans two pages.
    EXPECT_EQ(pagesSpanned(4095, 2), 2u);
    EXPECT_EQ(pagesSpanned(100, 4096), 2u);
}

// ---- rng ------------------------------------------------------------------

/** Growing while the contents wrap the buffer's end keeps FIFO order. */
TEST(Fifo, GrowsWhileWrappedAndKeepsOrder)
{
    Fifo<int> q;
    int next_in = 0;
    int next_out = 0;
    for (int i = 0; i < 6; ++i)
        q.push(next_in++);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.pop(), next_out++);
    // The head is mid-buffer; fill past the end and past capacity.
    for (int i = 0; i < 40; ++i)
        q.push(next_in++);
    while (!q.empty())
        EXPECT_EQ(q.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        u64 v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values show up
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(9);
    Rng fork1 = a.fork();
    Rng b(9);
    Rng fork2 = b.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fork1.next(), fork2.next());
}

// ---- stats ------------------------------------------------------------------

TEST(Accumulator, MeanAndStddev)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.stddev(), 2.13809, 1e-4); // sample stddev
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Histogram, QuantilesBucketed)
{
    Histogram h;
    for (u64 i = 0; i < 100; ++i)
        h.add(10); // bucket [8,16)
    h.add(1000);   // bucket [512,1024) -- wait, 1000 -> [512,1024)
    EXPECT_EQ(h.count(), 101u);
    EXPECT_EQ(h.quantile(0.5), 8u);
    EXPECT_EQ(h.quantile(1.0), 512u);
}

TEST(CounterSet, IncrementAndLookup)
{
    CounterSet c;
    c.inc("a");
    c.inc("a", 4);
    EXPECT_EQ(c.get("a"), 5u);
    EXPECT_EQ(c.get("missing"), 0u);
}

// ---- table ------------------------------------------------------------------

TEST(Table, AlignedRendering)
{
    Table t({"mode", "cycles"});
    t.addRow({"strict", "4618"});
    t.addRow({"riommu", "109"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("strict"), std::string::npos);
    EXPECT_NE(s.find("4618"), std::string::npos);
    // All lines equally wide header-to-data (right-aligned numbers).
    EXPECT_NE(s.find("riommu"), std::string::npos);
}

TEST(Table, NumericRowFormatting)
{
    Table t({"x", "a", "b"});
    t.addRow("r", {1.234, 5.0}, 1);
    const std::string s = t.toString();
    EXPECT_NE(s.find("1.2"), std::string::npos);
    EXPECT_NE(s.find("5.0"), std::string::npos);
}

TEST(TableDeathTest, ArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

// ---- strings ------------------------------------------------------------------

TEST(Strings, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
}

TEST(Strings, BitRate)
{
    EXPECT_EQ(formatBitRate(39.6e9), "39.60 Gbps");
    EXPECT_EQ(formatBitRate(1.5e6), "1.50 Mbps");
    EXPECT_EQ(formatBitRate(999), "999 bps");
}

TEST(Strings, Split)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
    EXPECT_TRUE(split("", ',').empty());
}

// ---- status ------------------------------------------------------------------

TEST(Status, OkByDefault)
{
    Status s;
    EXPECT_TRUE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(Status, ErrorCarriesMessage)
{
    Status s(ErrorCode::kIoPageFault, "boom");
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.toString(), "IO_PAGE_FAULT: boom");
}

TEST(Result, HoldsValueOrStatus)
{
    Result<int> ok(5);
    EXPECT_TRUE(ok.isOk());
    EXPECT_EQ(ok.value(), 5);
    EXPECT_TRUE(ok.status().isOk());

    Result<int> err(Status(ErrorCode::kNotFound, "nope"));
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
}

TEST(ResultDeathTest, ValueOnErrorPanics)
{
    Result<int> err(Status(ErrorCode::kNotFound, "nope"));
    EXPECT_DEATH((void)err.value(), "value\\(\\) on error");
}

} // namespace
} // namespace rio
