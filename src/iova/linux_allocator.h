/**
 * @file
 * Faithful model of the Linux 3.4 IOVA allocator
 * (drivers/iommu/iova.c): top-down allocation below a DMA limit pfn,
 * a red-black tree of allocated ranges, and the cached32_node
 * heuristic whose reset behaviour causes the allocation pathology the
 * paper measures (§3.2): after certain frees the next allocation
 * linearly scans the tree from the rightmost node across all live
 * mappings.
 */
#ifndef RIO_IOVA_LINUX_ALLOCATOR_H
#define RIO_IOVA_LINUX_ALLOCATOR_H

#include "iova/iova_allocator.h"
#include "iova/rbtree.h"

namespace rio::iova {

/**
 * The stock allocator used by the strict and defer modes.
 *
 * Algorithm (== __alloc_and_insert_iova_range of Linux 3.4):
 *  - allocation starts from the cached node (or rb_last when the
 *    cache is empty) and walks left looking for a size-aligned gap;
 *  - on insert the cache points at the new (lowest) node;
 *  - on free of a range at-or-above the cached node, the cache moves
 *    to the freed node's successor, or empties if there is none —
 *    the reset that triggers the linear rescans.
 */
class LinuxIovaAllocator : public IovaAllocator
{
  public:
    /**
     * @param limit_pfn allocate at or below this pfn (Linux uses the
     * 32-bit DMA limit, 0xFFFFF for 4 KB pages).
     */
    LinuxIovaAllocator(u64 limit_pfn, cycles::CycleAccount *acct,
                       const cycles::CostModel &cost);

    Result<IovaRange> alloc(u64 npages) override;

    u64 live() const override { return tree_.size(); }

    /** Scan-length statistics, used to demonstrate the pathology. */
    u64 lastAllocVisits() const { return last_alloc_visits_; }
    u64 totalAllocVisits() const { return total_alloc_visits_; }
    u64 allocCalls() const { return alloc_calls_; }

    /** True when the cached-node heuristic currently has a node. */
    bool hasCachedNode() const { return cached_node_ != nullptr; }

  protected:
    Status freeNode(RbTree::Node *node) override;

  private:
    static u64 padSize(u64 size, u64 limit_pfn) { return (limit_pfn + 1) % size; }

    /**
     * Finish the 3.4 scan from @p curr, whose successor *@p above set
     * the window top (*@p limit_pfn == (*above)->pfn_lo - 1), in
     * O(log n) per candidate hole. Returns the node the loop would
     * stop at (nullptr: it walks off the left end), sets *@p above to
     * that node's successor and *@p limit_pfn to the loop's final
     * window top, and adds the nodes it would examine to *@p visits.
     */
    RbTree::Node *skipToFit(RbTree::Node *curr, RbTree::Node **above,
                            u64 npages, u64 *limit_pfn, u64 *visits);

    void cachedInsertUpdate(RbTree::Node *node) { cached_node_ = node; }
    void cachedDeleteUpdate(RbTree::Node *freed, u64 *visits);

    u64 limit_pfn_;
    RbTree::Node *cached_node_ = nullptr;

    u64 last_alloc_visits_ = 0;
    u64 total_alloc_visits_ = 0;
    u64 alloc_calls_ = 0;
};

} // namespace rio::iova

#endif // RIO_IOVA_LINUX_ALLOCATOR_H
