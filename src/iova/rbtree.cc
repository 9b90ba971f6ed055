#include "iova/rbtree.h"

#include <algorithm>
#include <limits>
#include <new>

#include "base/logging.h"

namespace rio::iova {

RbTree::RbTree()
{
    nil_.red = false;
    nil_.parent = nil_.left = nil_.right = &nil_;
    root_ = &nil_;
}

RbTree::~RbTree()
{
    clear();
}

void
RbTree::clear()
{
    destroySubtree(root_);
    root_ = &nil_;
    size_ = 0;
}

void
RbTree::destroySubtree(Node *n)
{
    if (isNil(n))
        return;
    destroySubtree(n->left);
    destroySubtree(n->right);
    release(n);
}

void
RbTree::release(Node *n)
{
    n->~Node();
    nodes_.deallocate(n, sizeof(Node), alignof(Node));
}

void
RbTree::rotateLeft(Node *x)
{
    Node *y = x->right;
    x->right = y->left;
    if (!isNil(y->left))
        y->left->parent = x;
    y->parent = x->parent;
    if (isNil(x->parent))
        root_ = y;
    else if (x == x->parent->left)
        x->parent->left = y;
    else
        x->parent->right = y;
    y->left = x;
    x->parent = y;
    pull(x);
    pull(y);
}

void
RbTree::rotateRight(Node *x)
{
    Node *y = x->left;
    x->left = y->right;
    if (!isNil(y->right))
        y->right->parent = x;
    y->parent = x->parent;
    if (isNil(x->parent))
        root_ = y;
    else if (x == x->parent->right)
        x->parent->right = y;
    else
        x->parent->left = y;
    y->right = x;
    x->parent = y;
    pull(x);
    pull(y);
}

RbTree::Node *
RbTree::insert(u64 pfn_lo, u64 pfn_hi, u64 *visits, u64 *rebalances)
{
    RIO_ASSERT(pfn_lo <= pfn_hi, "inverted range");
    Node *y = &nil_;
    Node *x = root_;
    Node *pred = nullptr; // the last node the descent went right from
    Node *succ = nullptr; // ... and left from
    while (!isNil(x)) {
        if (visits)
            ++*visits;
        y = x;
        RIO_ASSERT(pfn_hi < x->pfn_lo || pfn_lo > x->pfn_hi,
                   "inserting overlapping IOVA range [", pfn_lo, ",",
                   pfn_hi, "] vs [", x->pfn_lo, ",", x->pfn_hi, "]");
        ++x->count; // the new node lands below every node on the path
        if (pfn_lo < x->pfn_lo) {
            succ = x;
            x = x->left;
        } else {
            pred = x;
            x = x->right;
        }
    }
    return link(pfn_lo, pfn_hi, y, pred, succ, rebalances);
}

RbTree::Node *
RbTree::insertBetween(Node *pred, Node *succ, u64 pfn_lo, u64 pfn_hi,
                      u64 *visits, u64 *rebalances)
{
    RIO_ASSERT(pfn_lo <= pfn_hi, "inverted range");
    RIO_ASSERT((!pred || pred->pfn_hi < pfn_lo) &&
                   (!succ || pfn_hi < succ->pfn_lo),
               "splicing [", pfn_lo, ",", pfn_hi,
               "] out of order with its neighbours");
    // Of two in-order neighbours, the lower one has no right child or
    // the upper one has no left child (exactly one holds); insert()'s
    // descent ends in that slot. The other neighbour is the first
    // ancestor the walk up enters from the slot's side.
    Node *y = pred && isNil(pred->right) ? pred : succ ? succ : &nil_;
    const bool right_slot = y == pred;
    Node *other = nullptr;
    for (Node *n = y; !isNil(n); n = n->parent) {
        if (visits)
            ++*visits;
        ++n->count;
        if (!other && !isNil(n->parent) &&
            (n == n->parent->left) == right_slot)
            other = n->parent;
    }
    RIO_ASSERT(isNil(y) ? isNil(root_)
                        : other == (right_slot ? succ : pred) &&
                              (right_slot || isNil(y->left)),
               "splicing [", pfn_lo, ",", pfn_hi,
               "] between non-adjacent nodes");
    return link(pfn_lo, pfn_hi, y, pred, succ, rebalances);
}

RbTree::Node *
RbTree::link(u64 pfn_lo, u64 pfn_hi, Node *y, Node *pred, Node *succ,
             u64 *rebalances)
{
    Node *z = ::new (nodes_.allocate(sizeof(Node), alignof(Node))) Node();
    z->pfn_lo = pfn_lo;
    z->pfn_hi = pfn_hi;
    z->left = z->right = &nil_;
    z->red = true;
    z->parent = y;
    if (isNil(y))
        root_ = z;
    else if (pfn_lo < y->pfn_lo)
        y->left = z;
    else
        y->right = z;

    // z splits its successor's gap; the max gaps above both change
    // only as far as they differ.
    z->count = 1;
    z->gap = z->max_gap = gapBelow(z, pred);
    if (succ)
        succ->gap = gapBelow(succ, z);
    fixMaxGap(z->parent);
    if (succ)
        fixMaxGap(succ);
    insertFixup(z, rebalances);
    ++size_;
    return z;
}

void
RbTree::insertFixup(Node *z, u64 *rebalances)
{
    while (z->parent->red) {
        if (rebalances)
            ++*rebalances;
        Node *gp = z->parent->parent;
        if (z->parent == gp->left) {
            Node *uncle = gp->right;
            if (uncle->red) {
                z->parent->red = false;
                uncle->red = false;
                gp->red = true;
                z = gp;
            } else {
                if (z == z->parent->right) {
                    z = z->parent;
                    rotateLeft(z);
                }
                z->parent->red = false;
                gp->red = true;
                rotateRight(gp);
            }
        } else {
            Node *uncle = gp->left;
            if (uncle->red) {
                z->parent->red = false;
                uncle->red = false;
                gp->red = true;
                z = gp;
            } else {
                if (z == z->parent->left) {
                    z = z->parent;
                    rotateRight(z);
                }
                z->parent->red = false;
                gp->red = true;
                rotateLeft(gp);
            }
        }
    }
    root_->red = false;
}

u32
RbTree::gapBelow(const Node *n, const Node *pred)
{
    const u64 gap = pred ? n->pfn_lo - pred->pfn_hi - 1 : 0;
    return static_cast<u32>(
        std::min<u64>(gap, std::numeric_limits<u32>::max()));
}

u32
RbTree::subtreeMaxGap(const Node *n)
{
    return std::max({n->gap, n->left->max_gap, n->right->max_gap});
}

void
RbTree::pull(Node *n)
{
    n->count = n->left->count + n->right->count + 1;
    n->max_gap = subtreeMaxGap(n);
}

void
RbTree::pullToRoot(Node *n)
{
    for (; !isNil(n); n = n->parent)
        pull(n);
}

void
RbTree::fixMaxGap(Node *n)
{
    for (; !isNil(n); n = n->parent) {
        const u32 m = subtreeMaxGap(n);
        if (m == n->max_gap)
            return; // the ancestors' max gaps cannot change either
        n->max_gap = m;
    }
}

void
RbTree::transplant(Node *u, Node *v)
{
    if (isNil(u->parent))
        root_ = v;
    else if (u == u->parent->left)
        u->parent->left = v;
    else
        u->parent->right = v;
    v->parent = u->parent;
}

RbTree::Node *
RbTree::minimum(Node *n, u64 *visits) const
{
    while (!isNil(n->left)) {
        if (visits)
            ++*visits;
        n = n->left;
    }
    return n;
}

void
RbTree::erase(Node *z, u64 *visits, u64 *rebalances)
{
    RIO_ASSERT(z != nullptr && !isNil(z), "erasing null node");
    Node *pred = prev(z);
    Node *succ = next(z);
    Node *y = z;
    Node *x;
    bool y_was_red = y->red;
    if (isNil(z->left)) {
        x = z->right;
        transplant(z, z->right);
    } else if (isNil(z->right)) {
        x = z->left;
        transplant(z, z->left);
    } else {
        y = minimum(z->right, visits);
        y_was_red = y->red;
        x = y->right;
        if (y->parent == z) {
            x->parent = y;
        } else {
            transplant(y, y->right);
            y->right = z->right;
            y->right->parent = y;
        }
        transplant(z, y);
        y->left = z->left;
        y->left->parent = y;
        y->red = z->red;
    }
    // Every node whose subtree lost z lies on x's path to the root
    // (x->parent is set even when x is nil); z's successor also
    // inherits z's gap.
    if (succ)
        succ->gap = gapBelow(succ, pred);
    pullToRoot(x->parent);
    if (succ)
        fixMaxGap(succ);
    if (!y_was_red)
        eraseFixup(x, rebalances);
    release(z);
    --size_;
}

void
RbTree::eraseFixup(Node *x, u64 *rebalances)
{
    while (x != root_ && !x->red) {
        if (rebalances)
            ++*rebalances;
        if (x == x->parent->left) {
            Node *w = x->parent->right;
            if (w->red) {
                w->red = false;
                x->parent->red = true;
                rotateLeft(x->parent);
                w = x->parent->right;
            }
            if (!w->left->red && !w->right->red) {
                w->red = true;
                x = x->parent;
            } else {
                if (!w->right->red) {
                    w->left->red = false;
                    w->red = true;
                    rotateRight(w);
                    w = x->parent->right;
                }
                w->red = x->parent->red;
                x->parent->red = false;
                w->right->red = false;
                rotateLeft(x->parent);
                x = root_;
            }
        } else {
            Node *w = x->parent->left;
            if (w->red) {
                w->red = false;
                x->parent->red = true;
                rotateRight(x->parent);
                w = x->parent->left;
            }
            if (!w->right->red && !w->left->red) {
                w->red = true;
                x = x->parent;
            } else {
                if (!w->left->red) {
                    w->right->red = false;
                    w->red = true;
                    rotateLeft(w);
                    w = x->parent->left;
                }
                w->red = x->parent->red;
                x->parent->red = false;
                w->left->red = false;
                rotateRight(x->parent);
                x = root_;
            }
        }
    }
    x->red = false;
}

RbTree::Node *
RbTree::findContaining(u64 pfn, u64 *visits) const
{
    ++searches_;
    Node *n = root_;
    while (!isNil(n)) {
        if (visits)
            ++*visits;
        if (pfn < n->pfn_lo)
            n = n->left;
        else if (pfn > n->pfn_hi)
            n = n->right;
        else
            return n;
    }
    return nullptr;
}

u64
RbTree::depth(const Node *node) const
{
    RIO_ASSERT(node && !isNil(node), "depth(null)");
    u64 d = 1;
    for (; !isNil(node->parent); node = node->parent)
        ++d;
    return d;
}

u64
RbTree::rank(const Node *node) const
{
    RIO_ASSERT(node && !isNil(node), "rank(null)");
    u64 r = node->left->count;
    for (; !isNil(node->parent); node = node->parent)
        if (node == node->parent->right)
            r += node->parent->left->count + 1;
    return r;
}

RbTree::Node *
RbTree::lastGapAtLeast(u64 pfn_lo_max, u64 need) const
{
    const u32 want = static_cast<u32>(std::min<u64>(
        std::max<u64>(need, 1), std::numeric_limits<u32>::max()));
    // Descend toward pfn_lo_max. Every in-range node on the path is a
    // fallback: itself, then its whole (in-range) left subtree. A
    // deeper fallback lies to the right of a shallower one, so the
    // deepest one that qualifies holds the answer.
    Node *best = nullptr;
    for (Node *n = root_; !isNil(n);) {
        if (n->pfn_lo > pfn_lo_max) {
            n = n->left;
            continue;
        }
        if (n->gap >= want || n->left->max_gap >= want)
            best = n;
        n = n->right;
    }
    if (!best || best->gap >= want)
        return best;
    Node *n = best->left;
    for (;;) {
        if (n->right->max_gap >= want)
            n = n->right;
        else if (n->gap >= want)
            return n;
        else
            n = n->left;
    }
}

RbTree::Node *
RbTree::first() const
{
    if (isNil(root_))
        return nullptr;
    Node *n = root_;
    while (!isNil(n->left))
        n = n->left;
    return n;
}

RbTree::Node *
RbTree::last() const
{
    if (isNil(root_))
        return nullptr;
    Node *n = root_;
    while (!isNil(n->right))
        n = n->right;
    return n;
}

RbTree::Node *
RbTree::next(Node *node) const
{
    RIO_ASSERT(node && !isNil(node), "next(null)");
    if (!isNil(node->right)) {
        Node *n = node->right;
        while (!isNil(n->left))
            n = n->left;
        return n;
    }
    Node *p = node->parent;
    while (!isNil(p) && node == p->right) {
        node = p;
        p = p->parent;
    }
    return isNil(p) ? nullptr : p;
}

RbTree::Node *
RbTree::prev(Node *node) const
{
    RIO_ASSERT(node && !isNil(node), "prev(null)");
    if (!isNil(node->left)) {
        Node *n = node->left;
        while (!isNil(n->right))
            n = n->right;
        return n;
    }
    Node *p = node->parent;
    while (!isNil(p) && node == p->left) {
        node = p;
        p = p->parent;
    }
    return isNil(p) ? nullptr : p;
}

bool
RbTree::validateNode(const Node *n, int black_depth, int &expected,
                     u64 lo_bound, u64 hi_bound) const
{
    if (isNil(n)) {
        if (expected == -1)
            expected = black_depth;
        return black_depth == expected;
    }
    if (n->pfn_lo > n->pfn_hi)
        return false;
    if (n->pfn_lo < lo_bound || n->pfn_hi > hi_bound)
        return false;
    if (n->red && (n->left->red || n->right->red))
        return false;
    if (n->count != n->left->count + n->right->count + 1 ||
        n->max_gap != subtreeMaxGap(n))
        return false;
    const int depth = black_depth + (n->red ? 0 : 1);
    const u64 left_hi = n->pfn_lo == 0 ? 0 : n->pfn_lo - 1;
    if (!isNil(n->left) && n->pfn_lo == 0)
        return false;
    return validateNode(n->left, depth, expected, lo_bound, left_hi) &&
           validateNode(n->right, depth, expected, n->pfn_hi + 1, hi_bound);
}

bool
RbTree::validate() const
{
    if (isNil(root_))
        return true;
    if (root_->red)
        return false;
    int expected = -1;
    if (!validateNode(root_, 0, expected, 0, ~u64{0}) ||
        root_->count != size_ || nil_.count != 0 || nil_.max_gap != 0)
        return false;
    const Node *pred = nullptr;
    for (Node *n = first(); n; pred = n, n = next(n))
        if (n->gap != gapBelow(n, pred))
            return false;
    return true;
}

bool
RbTree::sameSubtree(const Node *a, const RbTree &other, const Node *b) const
{
    if (isNil(a) || other.isNil(b))
        return isNil(a) && other.isNil(b);
    return a->pfn_lo == b->pfn_lo && a->pfn_hi == b->pfn_hi &&
           a->live == b->live && a->red == b->red &&
           a->count == b->count && a->gap == b->gap &&
           a->max_gap == b->max_gap &&
           sameSubtree(a->left, other, b->left) &&
           sameSubtree(a->right, other, b->right);
}

bool
RbTree::sameAs(const RbTree &other) const
{
    return size_ == other.size_ && sameSubtree(root_, other, other.root_);
}

} // namespace rio::iova
