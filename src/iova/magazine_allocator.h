/**
 * @file
 * Constant-time IOVA allocator modeled on the authors' design (their
 * companion FAST'15 paper, cited as [37]): freed ranges are parked in
 * per-size magazines and remain resident in the red-black tree, so
 * reallocation of a same-size range is a magazine pop — O(1) — and
 * the tree only ever grows toward the steady-state working set.
 *
 * Side effect the paper calls out (§3.2): because parked ranges stay
 * in the tree, the tree is *fuller* than the stock allocator's, so
 * the unmap-path lookup ("iova find") is deeper and costlier
 * (Table 1: 418 vs. 249 cycles) while alloc and free become ~100 and
 * ~60 cycles. Both effects emerge here from the same mechanism.
 *
 * Depot granularity: by default every operation goes straight to the
 * shared depot under the allocator lock — one lock acquisition and
 * one locked RMW per op, the per-handle layering the ROADMAP lists
 * as perf debt. setCoreCache() installs the full Bonwick scheme: a
 * per-core pair of bounded magazines (loaded + previous) served
 * without the lock, exchanging whole magazines with the locked depot
 * only when both run dry or both fill — amortizing the lock to one
 * acquisition per `rounds` operations.
 */
#ifndef RIO_IOVA_MAGAZINE_ALLOCATOR_H
#define RIO_IOVA_MAGAZINE_ALLOCATOR_H

#include <unordered_map>
#include <vector>

#include "iova/iova_allocator.h"
#include "iova/rbtree.h"

namespace rio::iova {

/** The allocator behind the paper's strict+ and defer+ modes. */
class MagazineIovaAllocator : public IovaAllocator
{
  public:
    MagazineIovaAllocator(u64 limit_pfn, cycles::CycleAccount *acct,
                          const cycles::CostModel &cost);

    Result<IovaRange> alloc(u64 npages) override;

    u64 live() const override { return live_; }

    /** Ranges currently parked in magazines. */
    u64 parked() const { return tree_.size() - live_; }

    /** Allocations served from a magazine (steady state: ~all). */
    u64 magazineHits() const { return magazine_hits_; }
    u64 allocCalls() const { return alloc_calls_; }

    /**
     * Install the per-core magazine pair in front of the depot.
     * @p rounds is the magazine capacity M (ops between depot
     * exchanges in steady state); 0 restores the direct-depot layout.
     * Call only while nothing is parked in the core pair (fresh
     * allocator or right after construction).
     */
    void setCoreCache(u32 rounds);
    u32 coreCacheRounds() const { return rounds_; }

    /** Ops served by the core pair without touching the lock. */
    u64 coreHits() const { return core_hits_; }
    /** Whole-magazine exchanges with the locked depot. */
    u64 depotExchanges() const { return depot_exchanges_; }

  protected:
    Status freeNode(RbTree::Node *node) override;

  private:
    using Magazine = std::vector<RbTree::Node *>;

    /** The core's loaded/previous pair for one size class. */
    struct CorePair
    {
        Magazine loaded;
        Magazine previous;
    };

    Result<IovaRange> allocCached(u64 npages);
    Status freeCached(RbTree::Node *node);
    Result<IovaRange> carveFresh(u64 npages);
    IovaRange takeNode(RbTree::Node *node);

    u64 limit_pfn_;
    /** Top of the never-yet-used address space (fresh carve point). */
    u64 next_top_;
    /** The last range carved: the tree's leftmost node, since parked
     * ranges never leave the tree. */
    RbTree::Node *lowest_ = nullptr;
    /** Depot. rounds_ == 0: flat per-size stacks of single ranges
     * (the legacy layout). rounds_ > 0: per-size stacks of *full*
     * magazines, exchanged whole. */
    std::unordered_map<u64, std::vector<RbTree::Node *>> magazines_;
    std::unordered_map<u64, std::vector<Magazine>> depot_;
    std::unordered_map<u64, CorePair> core_pairs_;
    u32 rounds_ = 0;
    u64 live_ = 0;
    u64 magazine_hits_ = 0;
    u64 alloc_calls_ = 0;
    u64 core_hits_ = 0;
    u64 depot_exchanges_ = 0;
};

} // namespace rio::iova

#endif // RIO_IOVA_MAGAZINE_ALLOCATOR_H
