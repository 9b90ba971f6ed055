/**
 * @file
 * Red-black tree of IOVA ranges, modeled on the Linux kernel's
 * lib/rbtree.c as used by drivers/iommu/iova.c. Implemented from
 * scratch so that the allocators can count the *actual* node visits
 * and rebalancing steps their algorithms perform — the quantity the
 * paper's Table 1 costs are made of.
 */
#ifndef RIO_IOVA_RBTREE_H
#define RIO_IOVA_RBTREE_H

#include "base/node_pool.h"
#include "base/types.h"

namespace rio::iova {

/**
 * A red-black tree whose nodes are disjoint [pfn_lo, pfn_hi] IOVA
 * ranges, ordered by pfn_lo. Nodes are owned by the tree; an erased
 * node's memory waits in the tree's NodePool (ASan-poisoned) and is
 * reset in full when an insert reuses it.
 *
 * Each node is augmented with its subtree's node count and the
 * largest free gap below any of its subtree's nodes, so rank() and
 * lastGapAtLeast() run in O(log n). The augmentation is host-side
 * bookkeeping: maintaining it never counts a visit or a rebalance.
 */
class RbTree
{
  public:
    struct Node
    {
        u64 pfn_lo = 0;
        u64 pfn_hi = 0;

      private:
        friend class RbTree;
        Node *parent = nullptr;
        Node *left = nullptr;
        Node *right = nullptr;

      public:
        /**
         * True while the range is handed out to a caller; false when
         * it is parked in a magazine (strict+ keeps freed ranges in
         * the tree, which is why its tree is fuller — §3.2).
         */
        bool live = true;

      private:
        bool red = false;
        u32 count = 0; //!< nodes in this subtree
        /** Free pfns below: pfn_lo - pred.pfn_hi - 1, saturated at the
         * u32 maximum; 0 for the leftmost node. */
        u32 gap = 0;
        u32 max_gap = 0; //!< largest gap in this subtree
    };

    RbTree();
    ~RbTree();
    RbTree(const RbTree &) = delete;
    RbTree &operator=(const RbTree &) = delete;

    /**
     * Insert a new disjoint range. @p visits / @p rebalances are
     * incremented per node examined / per fixup step, for cycle
     * charging. Returns the owned node.
     */
    Node *insert(u64 pfn_lo, u64 pfn_hi, u64 *visits, u64 *rebalances);

    /**
     * Insert a new range between its in-order neighbours @p pred and
     * @p succ (nullptr: the range goes below the leftmost / above the
     * rightmost node), without a descent. Counts the same visits and
     * rebalances and leaves the same tree as insert(): the new leaf
     * hangs in the one empty slot between the two neighbours, and the
     * visits are that slot's root path.
     */
    Node *insertBetween(Node *pred, Node *succ, u64 pfn_lo, u64 pfn_hi,
                        u64 *visits, u64 *rebalances);

    /** Remove @p node and return its memory to the spare pool. */
    void erase(Node *node, u64 *visits, u64 *rebalances);

    /** Find the range containing @p pfn, or nullptr. */
    Node *findContaining(u64 pfn, u64 *visits) const;

    /**
     * Nodes on @p node's path from the root, itself included: the
     * visits findContaining() counts for any pfn in @p node's range.
     */
    u64 depth(const Node *node) const;

    /** findContaining() calls so far (host-side; never charged). */
    u64 searches() const { return searches_; }

    /** Leftmost / rightmost nodes (nullptr when empty). */
    Node *first() const;
    Node *last() const;

    /** In-order neighbors (nullptr at the ends). */
    Node *next(Node *node) const;
    Node *prev(Node *node) const;

    /** In-order index of @p node: the number of nodes below it. */
    u64 rank(const Node *node) const;

    /**
     * The rightmost node with pfn_lo <= @p pfn_lo_max whose gap to its
     * predecessor holds at least @p need free pfns, or nullptr. The
     * leftmost node never qualifies: its predecessor is not a range.
     */
    Node *lastGapAtLeast(u64 pfn_lo_max, u64 need) const;

    u64 size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Remove all nodes (their memory stays spare). */
    void clear();

    /**
     * Check the red-black invariants (root black, no red-red edges,
     * equal black heights, ordered disjoint ranges) and the
     * augmentation (counts, gaps, max gaps). For tests.
     */
    bool validate() const;

    /**
     * True when @p other has the same shape, colours, ranges, live
     * flags and augmentation, node for node. For tests.
     */
    bool sameAs(const RbTree &other) const;

  private:
    bool isNil(const Node *n) const { return n == &nil_; }
    Node *nil() { return &nil_; }

    /** Hang a new red leaf [pfn_lo, pfn_hi] below @p parent (nil: the
     * root), fix the gaps beside its in-order neighbours @p pred and
     * @p succ, and rebalance. Every count on the root path must
     * already include it. */
    Node *link(u64 pfn_lo, u64 pfn_hi, Node *parent, Node *pred,
               Node *succ, u64 *rebalances);
    void rotateLeft(Node *x);
    void rotateRight(Node *x);
    void insertFixup(Node *z, u64 *rebalances);
    void eraseFixup(Node *x, u64 *rebalances);
    void transplant(Node *u, Node *v);
    /** Recompute @p n's count and max_gap from its children. */
    void pull(Node *n);
    /** pull() every node from @p n up to the root. */
    void pullToRoot(Node *n);
    /**
     * Recompute max_gap from @p n upward, stopping at the first node
     * whose value does not change; every child below must be current.
     */
    void fixMaxGap(Node *n);
    /** @p n's gap field for predecessor @p pred (nullptr: leftmost). */
    static u32 gapBelow(const Node *n, const Node *pred);
    /** max_gap as @p n's own gap and its children's fields give it. */
    static u32 subtreeMaxGap(const Node *n);
    Node *minimum(Node *n, u64 *visits) const;
    void release(Node *n);
    void destroySubtree(Node *n);
    bool validateNode(const Node *n, int black_depth, int &expected,
                      u64 lo_bound, u64 hi_bound) const;
    bool sameSubtree(const Node *a, const RbTree &other,
                     const Node *b) const;

    NodePool nodes_; //!< erased nodes, reused by insert
    // Sentinel nil node (CLRS-style): simplifies erase fixup.
    mutable Node nil_;
    Node *root_;
    u64 size_ = 0;
    mutable u64 searches_ = 0;
};

static_assert(sizeof(RbTree::Node) == 56,
              "the augmentation must fit the node pool's 64-byte class");

} // namespace rio::iova

#endif // RIO_IOVA_RBTREE_H
