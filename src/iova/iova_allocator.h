/**
 * @file
 * IOVA allocator interface. The baseline IOMMU driver needs an
 * allocator of I/O-virtual page ranges; the paper contrasts the stock
 * Linux allocator (whose cached-node heuristic exhibits an O(live)
 * pathology, Table 1 "iova alloc": 3,986 cycles) with the authors'
 * constant-time allocator (strict+/defer+: 92 cycles).
 */
#ifndef RIO_IOVA_IOVA_ALLOCATOR_H
#define RIO_IOVA_IOVA_ALLOCATOR_H

#include "base/status.h"
#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "des/spinlock.h"
#include "iova/rbtree.h"

namespace rio::iova {

/**
 * An allocated range's node in its allocator's tree, as alloc() and
 * find() return it. The unmap path hands it back to find() and
 * free(), which then reach the node without a search, as Linux's
 * __free_iova() takes the struct iova that find_iova() returned.
 * Opaque to callers; valid from the call that returned it until the
 * range is freed (the node then goes back to the tree's pool).
 */
class IovaHandle
{
  public:
    IovaHandle() = default;
    explicit operator bool() const { return node_ != nullptr; }

  private:
    friend class IovaAllocator;
    explicit IovaHandle(RbTree::Node *node) : node_(node) {}
    RbTree::Node *node_ = nullptr;
};

/** An allocated IOVA page range [pfn_lo, pfn_hi], inclusive. */
struct IovaRange
{
    u64 pfn_lo = 0;
    u64 pfn_hi = 0;
    IovaHandle handle; //!< the range's node, for find() and free()

    u64 npages() const { return pfn_hi - pfn_lo + 1; }
    IovaAddr addr() const { return pfn_lo << kPageShift; }
};

/**
 * Allocator of IOVA page ranges kept in a red-black tree.
 * Implementations charge cycles into the supplied CycleAccount at the
 * point where work happens, so the Table 1 component costs emerge
 * from the algorithms themselves.
 *
 * The three-call protocol mirrors the Linux unmap path: the driver
 * first *finds* the range for an address (charged as "iova find"),
 * then *frees* it (charged as "iova free"). alloc() is charged as
 * "iova alloc".
 */
class IovaAllocator
{
  public:
    IovaAllocator(cycles::CycleAccount *acct, const cycles::CostModel &cost)
        : acct_(acct), cost_(cost)
    {
    }
    virtual ~IovaAllocator() = default;

    IovaAllocator(const IovaAllocator &) = delete;
    IovaAllocator &operator=(const IovaAllocator &) = delete;

    /**
     * Allocate @p npages contiguous IOVA pages, size-aligned as the
     * Linux allocator does. Fails with kResourceExhausted when the
     * space is full.
     */
    virtual Result<IovaRange> alloc(u64 npages) = 0;

    /**
     * Look up the live range containing @p pfn (the unmap path's
     * find_iova()), charged by the nodes the search visits. Returns
     * kNotFound for unknown or already-freed pfns — the double-unmap
     * case callers must handle.
     */
    Result<IovaRange> find(u64 pfn);

    /**
     * find() for a range whose handle the caller kept: charged
     * exactly as the search for any pfn in the range (its node's
     * root path), without searching.
     */
    Result<IovaRange> find(IovaHandle handle);

    /** Release the range @p handle names (not yet freed). */
    Status free(IovaHandle handle);

    /**
     * Release the range whose low pfn is @p pfn_lo, located by an
     * uncharged search. Must have been returned by alloc() and not
     * yet freed.
     */
    Status free(u64 pfn_lo);

    /** Ranges currently allocated-and-not-freed. */
    virtual u64 live() const = 0;

    /** Nodes resident in the search structure (>= live for strict+). */
    u64 treeSize() const { return tree_.size(); }

    /** The search structure (tests: searches, shape checks). */
    const RbTree &tree() const { return tree_; }

    /** Tree structural check, for property tests. */
    bool validate() const { return tree_.validate(); }

    /**
     * Model Linux's globally locked allocator (§3.2): every public
     * operation runs under @p lock, with spin-waits charged to this
     * allocator's account at @p core's virtual time. The lock is
     * typically shared by every baseline handle of one DmaContext so
     * cores contend on it; unset (the default) means uncontended use.
     */
    void
    setContention(des::SimSpinlock *lock, des::Core *core)
    {
        lock_ = lock;
        lock_core_ = core;
    }

  protected:
    /** Release @p node, a live range of this allocator's tree. */
    virtual Status freeNode(RbTree::Node *node) = 0;

    /** The range and handle of @p node. */
    static IovaRange
    rangeOf(RbTree::Node *node)
    {
        return IovaRange{node->pfn_lo, node->pfn_hi, IovaHandle(node)};
    }

    /** Serialize a public operation on the shared allocator lock. */
    des::SpinGuard
    lockScope()
    {
        return des::SpinGuard(lock_, lock_core_, acct_);
    }

    void
    charge(cycles::Cat cat, Cycles c)
    {
        if (acct_)
            acct_->charge(cat, c);
    }

    cycles::CycleAccount *acct_;
    const cycles::CostModel &cost_;
    RbTree tree_;
    des::SimSpinlock *lock_ = nullptr;
    des::Core *lock_core_ = nullptr;
};

} // namespace rio::iova

#endif // RIO_IOVA_IOVA_ALLOCATOR_H
