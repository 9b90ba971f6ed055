/**
 * @file
 * Unit and property tests for the red-black tree underneath the IOVA
 * allocators. The property sweeps run randomized insert/erase
 * workloads and check the RB invariants after every step.
 */
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include <algorithm>
#include <map>
#include <vector>

#include "base/rng.h"
#include "iova/rbtree.h"

namespace rio::iova {
namespace {

TEST(RbTree, EmptyTree)
{
    RbTree t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.first(), nullptr);
    EXPECT_EQ(t.last(), nullptr);
    EXPECT_EQ(t.findContaining(5, nullptr), nullptr);
    EXPECT_TRUE(t.validate());
}

TEST(RbTree, InsertAndFind)
{
    RbTree t;
    t.insert(10, 19, nullptr, nullptr);
    t.insert(30, 39, nullptr, nullptr);
    EXPECT_EQ(t.size(), 2u);
    ASSERT_NE(t.findContaining(15, nullptr), nullptr);
    EXPECT_EQ(t.findContaining(15, nullptr)->pfn_lo, 10u);
    EXPECT_EQ(t.findContaining(25, nullptr), nullptr) << "gap between ranges";
    EXPECT_EQ(t.findContaining(39, nullptr)->pfn_lo, 30u);
    EXPECT_TRUE(t.validate());
}

TEST(RbTree, FirstLastNextPrevTraversal)
{
    RbTree t;
    for (u64 lo : {50, 10, 30, 70, 90})
        t.insert(lo, lo + 5, nullptr, nullptr);

    EXPECT_EQ(t.first()->pfn_lo, 10u);
    EXPECT_EQ(t.last()->pfn_lo, 90u);

    std::vector<u64> forward;
    for (RbTree::Node *n = t.first(); n; n = t.next(n))
        forward.push_back(n->pfn_lo);
    EXPECT_EQ(forward, (std::vector<u64>{10, 30, 50, 70, 90}));

    std::vector<u64> backward;
    for (RbTree::Node *n = t.last(); n; n = t.prev(n))
        backward.push_back(n->pfn_lo);
    EXPECT_EQ(backward, (std::vector<u64>{90, 70, 50, 30, 10}));
}

TEST(RbTree, EraseKeepsOrderAndInvariants)
{
    RbTree t;
    std::vector<RbTree::Node *> nodes;
    for (u64 lo = 0; lo < 100; lo += 10)
        nodes.push_back(t.insert(lo, lo + 9, nullptr, nullptr));

    t.erase(nodes[3], nullptr, nullptr); // 30..39
    t.erase(nodes[0], nullptr, nullptr); // 0..9
    EXPECT_EQ(t.size(), 8u);
    EXPECT_TRUE(t.validate());
    EXPECT_EQ(t.findContaining(35, nullptr), nullptr);
    EXPECT_EQ(t.first()->pfn_lo, 10u);
}

TEST(RbTree, VisitCountersAreCharged)
{
    RbTree t;
    for (u64 lo = 0; lo < 1000; lo += 10)
        t.insert(lo, lo + 9, nullptr, nullptr);
    u64 visits = 0;
    ASSERT_NE(t.findContaining(555, &visits), nullptr);
    EXPECT_GE(visits, 1u);
    EXPECT_LE(visits, 10u) << "search depth must be logarithmic";

    u64 ins_visits = 0, rebal = 0;
    t.insert(10000, 10009, &ins_visits, &rebal);
    EXPECT_GE(ins_visits, 1u);
}

/** Splicing at known neighbours: both ends and the middle, as the
 * descent would, and the root path is what a search visits. */
TEST(RbTree, InsertBetweenMatchesInsert)
{
    RbTree by_descent;
    RbTree spliced;
    u64 dv = 0, dr = 0, sv = 0, sr = 0;
    by_descent.insert(100, 109, &dv, &dr);
    RbTree::Node *mid = spliced.insertBetween(nullptr, nullptr, 100, 109,
                                              &sv, &sr);
    by_descent.insert(200, 209, &dv, &dr); // above the rightmost
    RbTree::Node *top = spliced.insertBetween(mid, nullptr, 200, 209, &sv,
                                              &sr);
    by_descent.insert(10, 19, &dv, &dr); // below the leftmost
    RbTree::Node *low = spliced.insertBetween(nullptr, mid, 10, 19, &sv,
                                              &sr);
    by_descent.insert(150, 159, &dv, &dr); // between two
    RbTree::Node *inner = spliced.insertBetween(mid, top, 150, 159, &sv,
                                                &sr);
    EXPECT_EQ(sv, dv);
    EXPECT_EQ(sr, dr);
    EXPECT_GT(sr, 0u) << "the third insert rebalances";
    EXPECT_TRUE(spliced.validate());
    EXPECT_TRUE(spliced.sameAs(by_descent));
    for (RbTree::Node *n : {mid, top, low, inner}) {
        u64 visits = 0;
        EXPECT_EQ(spliced.findContaining(n->pfn_hi, &visits), n);
        EXPECT_EQ(spliced.depth(n), visits);
    }
    EXPECT_EQ(spliced.searches(), 4u);
    EXPECT_FALSE(by_descent.sameAs(RbTree()));
}

TEST(RbTreeDeathTest, SpliceBetweenNonNeighboursPanics)
{
    RbTree t;
    RbTree::Node *a = t.insert(10, 19, nullptr, nullptr);
    t.insert(30, 39, nullptr, nullptr);
    RbTree::Node *c = t.insert(50, 59, nullptr, nullptr);
    // 30..39 is the root, with both children: no slot between a and c.
    EXPECT_DEATH(t.insertBetween(a, c, 40, 45, nullptr, nullptr),
                 "non-adjacent");
    EXPECT_DEATH(t.insertBetween(a, nullptr, 20, 25, nullptr, nullptr),
                 "non-adjacent");
}

TEST(RbTreeDeathTest, OverlappingInsertPanics)
{
    RbTree t;
    t.insert(10, 19, nullptr, nullptr);
    EXPECT_DEATH(t.insert(15, 25, nullptr, nullptr), "overlap");
}

/** Erased nodes come back from the spare pool on later inserts, fully
 * reset: their old counts and gaps must not leak into the new tree. */
TEST(RbTree, RecycledNodesStartClean)
{
    RbTree t;
    std::vector<RbTree::Node *> erased;
    for (u64 lo = 0; lo < 640; lo += 10)
        erased.push_back(t.insert(lo, lo + 4, nullptr, nullptr));
    // Park every range (live = false, as a magazine does) and widen
    // some gaps before erasing, so the spares carry flags, counts and
    // max gaps that differ from anything the second tree holds.
    for (RbTree::Node *n : erased)
        n->live = false;
    for (size_t i = 1; i < erased.size(); i += 3)
        t.erase(erased[i], nullptr, nullptr);
    t.clear();
    std::sort(erased.begin(), erased.end());

    u64 reused = 0;
    for (u64 k = 0; k < erased.size(); ++k) {
        const u64 lo = 10000 - 100 * k;
        RbTree::Node *n = t.insert(lo, lo + 1, nullptr, nullptr);
        reused += std::binary_search(erased.begin(), erased.end(), n);
        EXPECT_TRUE(n->live) << "after inserting " << lo;
        ASSERT_TRUE(t.validate()) << "after inserting " << lo;
    }
    EXPECT_EQ(reused, t.size()) << "every insert should reuse a spare";
}

#if defined(__SANITIZE_ADDRESS__)
TEST(RbTree, SpareNodeIsPoisoned)
{
    RbTree t;
    t.insert(0, 9, nullptr, nullptr);
    RbTree::Node *n = t.insert(20, 29, nullptr, nullptr);
    const char *addr = reinterpret_cast<const char *>(n);
    ASSERT_FALSE(__asan_address_is_poisoned(addr));
    t.erase(n, nullptr, nullptr);
    EXPECT_TRUE(__asan_address_is_poisoned(addr))
        << "an erased node must be poisoned while spare";
    EXPECT_TRUE(__asan_address_is_poisoned(addr + sizeof(RbTree::Node) - 1));
    RbTree::Node *again = t.insert(40, 49, nullptr, nullptr);
    ASSERT_EQ(reinterpret_cast<const char *>(again), addr)
        << "the insert takes the spare back";
    EXPECT_FALSE(__asan_address_is_poisoned(addr));
    EXPECT_TRUE(t.validate());
}
#endif

// ---- property sweep: randomized insert/erase against a model -------------

struct SweepParam
{
    u64 seed;
    int ops;
    u64 universe; // number of disjoint slots
};

class RbTreeSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(RbTreeSweep, MatchesModelAndKeepsInvariants)
{
    const SweepParam p = GetParam();
    Rng rng(p.seed);
    RbTree t;
    std::map<u64, RbTree::Node *> model; // slot -> node

    for (int i = 0; i < p.ops; ++i) {
        const u64 slot = rng.below(p.universe);
        const u64 lo = slot * 10;
        auto it = model.find(slot);
        if (it == model.end()) {
            model[slot] = t.insert(lo, lo + 9, nullptr, nullptr);
        } else {
            t.erase(it->second, nullptr, nullptr);
            model.erase(it);
        }
        ASSERT_EQ(t.size(), model.size());
        // Inserts after erases build the tree from recycled nodes.
        ASSERT_TRUE(t.validate()) << "after op " << i;
    }

    // Full in-order traversal must match the model exactly.
    auto mit = model.begin();
    for (RbTree::Node *n = t.first(); n; n = t.next(n), ++mit) {
        ASSERT_NE(mit, model.end());
        EXPECT_EQ(n->pfn_lo, mit->first * 10);
    }
    EXPECT_EQ(mit, model.end());

    // Lookups agree with the model for every slot.
    for (u64 slot = 0; slot < p.universe; ++slot) {
        RbTree::Node *n = t.findContaining(slot * 10 + 5, nullptr);
        EXPECT_EQ(n != nullptr, model.count(slot) == 1);
    }

    // rank() is the in-order index; lastGapAtLeast() is the rightmost
    // node at or below a bound whose gap to its predecessor is wide
    // enough (never the leftmost node), found by brute force here.
    std::vector<RbTree::Node *> order;
    for (RbTree::Node *n = t.first(); n; n = t.next(n)) {
        EXPECT_EQ(t.rank(n), order.size());
        order.push_back(n);
    }
    for (int q = 0; q < 200; ++q) {
        const u64 bound = rng.below(p.universe * 10 + 10);
        const u64 need = 1 + rng.below(60);
        RbTree::Node *want = nullptr;
        for (size_t i = 1; i < order.size(); ++i) {
            if (order[i]->pfn_lo <= bound &&
                order[i]->pfn_lo - order[i - 1]->pfn_hi - 1 >= need)
                want = order[i];
        }
        EXPECT_EQ(t.lastGapAtLeast(bound, need), want)
            << "bound " << bound << " need " << need;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedSweeps, RbTreeSweep,
    ::testing::Values(SweepParam{1, 500, 40}, SweepParam{2, 2000, 200},
                      SweepParam{3, 5000, 64}, SweepParam{4, 3000, 1000},
                      SweepParam{99, 8000, 16}));

} // namespace
} // namespace rio::iova
