/**
 * @file
 * Unit and property tests for the red-black tree underneath the IOVA
 * allocators. The property sweeps run randomized insert/erase
 * workloads and check the RB invariants after every step.
 */
#include <gtest/gtest.h>

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

TEST(RbTreeDeathTest, OverlappingInsertPanics)
{
    RbTree t;
    t.insert(10, 19, nullptr, nullptr);
    EXPECT_DEATH(t.insert(15, 25, nullptr, nullptr), "overlap");
}

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
        if (i % 64 == 0) {
            ASSERT_TRUE(t.validate()) << "after op " << i;
        }
    }
    ASSERT_TRUE(t.validate());

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
