#include "iova/linux_allocator.h"

#include "base/logging.h"

namespace rio::iova {

namespace {

/** Lowest allocatable pfn (Linux's IOVA_START_PFN). */
constexpr u64 kStartPfn = 1;

/**
 * Nodes the 3.4 loop examines one by one before alloc() jumps to the
 * first fitting hole. Most allocations stop within a few nodes of the
 * cached node; the long rescans after a cache reset are the ones the
 * jump shortens.
 */
constexpr u64 kLinearScan = 16;

} // namespace

LinuxIovaAllocator::LinuxIovaAllocator(u64 limit_pfn,
                                       cycles::CycleAccount *acct,
                                       const cycles::CostModel &cost)
    : IovaAllocator(acct, cost), limit_pfn_(limit_pfn)
{
    RIO_ASSERT(limit_pfn_ > kStartPfn, "degenerate IOVA space");
}

Result<IovaRange>
LinuxIovaAllocator::alloc(u64 npages)
{
    RIO_ASSERT(npages > 0, "alloc(0)");
    auto lock = lockScope();
    u64 visits = 0;
    u64 rebalances = 0;
    u64 limit_pfn = limit_pfn_;

    // __get_cached_rbnode: resume just below the cached node, or
    // start from the rightmost node after a cache reset — the path
    // that makes some allocations linear in the live-IOVA count.
    // The loop keeps curr == prev(above): the new range goes between
    // them, so the insert splices there without a second descent.
    RbTree::Node *curr;
    RbTree::Node *above = cached_node_; // the last node examined
    if (cached_node_) {
        limit_pfn = cached_node_->pfn_lo - 1;
        curr = tree_.prev(cached_node_);
        ++visits;
    } else {
        curr = tree_.last();
        if (curr)
            ++visits;
    }

    for (u64 steps = 0; curr; ++steps) {
        if (steps >= kLinearScan && limit_pfn + 1 == above->pfn_lo) {
            curr = skipToFit(curr, &above, npages, &limit_pfn, &visits);
            break;
        }
        ++visits;
        if (limit_pfn < curr->pfn_lo) {
            // Entirely above the remaining window; move left.
        } else if (limit_pfn <= curr->pfn_hi) {
            // Window top lands inside this range; skip below it.
            limit_pfn = curr->pfn_lo - 1;
        } else {
            const u64 pad = padSize(npages, limit_pfn);
            if (curr->pfn_hi + npages + pad <= limit_pfn)
                break; // found a free, size-aligned slot
            limit_pfn = curr->pfn_lo - 1;
        }
        above = curr;
        curr = tree_.prev(curr);
    }

    const u64 pad = padSize(npages, limit_pfn);
    if (!curr) {
        if (kStartPfn + npages + pad > limit_pfn) {
            charge(cycles::Cat::kMapIovaAlloc,
                   visits * cost_.rb_node_visit + cost_.iova_op_base);
            return Status(ErrorCode::kResourceExhausted,
                          "IOVA space exhausted");
        }
    }

    const u64 pfn_lo = limit_pfn - (npages + pad) + 1;
    const u64 pfn_hi = pfn_lo + npages - 1;
    RbTree::Node *node = tree_.insertBetween(curr, above, pfn_lo, pfn_hi,
                                             &visits, &rebalances);
    cachedInsertUpdate(node);

    ++alloc_calls_;
    last_alloc_visits_ = visits;
    total_alloc_visits_ += visits;
    charge(cycles::Cat::kMapIovaAlloc,
           visits * cost_.rb_node_visit +
               rebalances * cost_.rb_rebalance_step + cost_.iova_op_base);
    return rangeOf(node);
}

Status
LinuxIovaAllocator::freeNode(RbTree::Node *node)
{
    auto lock = lockScope();
    u64 visits = 0;
    u64 rebalances = 0;
    cachedDeleteUpdate(node, &visits);
    tree_.erase(node, &visits, &rebalances);
    charge(cycles::Cat::kUnmapIovaFree,
           visits * cost_.rb_node_visit +
               rebalances * cost_.rb_rebalance_step + cost_.iova_op_base +
               cost_.linux_free_extra);
    return Status::ok();
}

RbTree::Node *
LinuxIovaAllocator::skipToFit(RbTree::Node *curr, RbTree::Node **above,
                              u64 npages, u64 *limit_pfn, u64 *visits)
{
    // From here on the loop examines curr, prev(curr), ... and each
    // node's window is the gap below its successor. A node whose gap
    // is under npages cannot fit and only moves the window down, so
    // the loop stops at the first node, going left, whose gap holds
    // npages AND the size-aligned slot with its pad. Each jump lands
    // on such a candidate; the visits it charges are the nodes the
    // loop would have stepped through, counted by rank.
    const u64 top = tree_.rank(curr);
    u64 bound = (*above)->pfn_lo;
    while (RbTree::Node *succ = tree_.lastGapAtLeast(bound, npages)) {
        RbTree::Node *cand = tree_.prev(succ);
        const u64 limit = succ->pfn_lo - 1;
        if (cand->pfn_hi + npages + padSize(npages, limit) <= limit) {
            *visits += top - tree_.rank(cand) + 1;
            *above = succ;
            *limit_pfn = limit;
            return cand;
        }
        bound = succ->pfn_lo - 1;
    }
    // No hole fits: the loop walks off the leftmost node.
    *visits += top + 1;
    *above = tree_.first();
    *limit_pfn = (*above)->pfn_lo - 1;
    return nullptr;
}

void
LinuxIovaAllocator::cachedDeleteUpdate(RbTree::Node *freed, u64 *visits)
{
    // __cached_rbnode_delete_update: freeing at or above the cached
    // node moves the cache to the freed node's successor — or resets
    // it entirely when the rightmost range is freed, forcing the next
    // allocation to rescan from rb_last.
    if (!cached_node_)
        return;
    if (freed->pfn_lo >= cached_node_->pfn_lo) {
        RbTree::Node *succ = tree_.next(freed);
        ++*visits;
        if (succ && succ->pfn_lo < limit_pfn_)
            cached_node_ = succ;
        else
            cached_node_ = nullptr;
    }
}

} // namespace rio::iova
