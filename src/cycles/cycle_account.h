/**
 * @file
 * Per-category cycle accounting. The categories are exactly the rows
 * of the paper's Table 1 plus the non-DMA packet-processing work
 * ("other" in Figure 7), so the bench binaries can print the same
 * breakdowns the paper prints.
 */
#ifndef RIO_CYCLES_CYCLE_ACCOUNT_H
#define RIO_CYCLES_CYCLE_ACCOUNT_H

#include <array>
#include <string>

#include "base/types.h"

namespace rio::cycles {

/** Where a charged cycle goes in the Table 1 / Figure 7 breakdowns. */
enum class Cat : unsigned {
    kMapIovaAlloc = 0, //!< map: allocate an IOVA integer
    kMapPageTable,     //!< map: insert translation (incl. sync_mem)
    kMapOther,         //!< map: call overhead, pinning, packing
    kUnmapIovaFind,    //!< unmap: locate the IOVA in allocator state
    kUnmapIovaFree,    //!< unmap: release the IOVA integer
    kUnmapPageTable,   //!< unmap: remove translation (incl. sync_mem)
    kUnmapIotlbInv,    //!< unmap: IOTLB/rIOTLB invalidation
    kUnmapOther,       //!< unmap: call overhead, deferred-list mgmt
    kProcessing,       //!< TCP/IP, interrupts, application logic
    kLockWait,         //!< spinning on a contended driver lock
    kFaultHandling,    //!< fault report read-out + recovery policy work
    kLifecycle,        //!< quiesce/detach work + QI time-out recovery
    kVirt,             //!< vmexit round trips, hypercalls, shadow syncs
    kNumCats
};

inline constexpr unsigned kNumCats =
    static_cast<unsigned>(Cat::kNumCats);

/** Short printable name for @p cat ("iova alloc", ...). */
const char *catName(Cat cat);

/**
 * Accumulates cycles by category. One CycleAccount per simulated
 * core; the DMA layer and workloads charge into it, and the
 * experiment runner reads totals and breakdowns out of it. Every
 * charge lands at once: des::Core::virtualNow() derives mid-item
 * virtual time from the running total().
 */
class CycleAccount
{
  public:
    CycleAccount() { reset(); }

    /** Charge @p c cycles to @p cat. */
    void
    charge(Cat cat, Cycles c)
    {
        cycles_[static_cast<unsigned>(cat)] += c;
        ops_[static_cast<unsigned>(cat)] += 1;
    }

    /** Charge without bumping the op count (continuation of an op). */
    void
    chargeCont(Cat cat, Cycles c)
    {
        cycles_[static_cast<unsigned>(cat)] += c;
    }

    Cycles get(Cat cat) const
    {
        return cycles_[static_cast<unsigned>(cat)];
    }

    u64 ops(Cat cat) const { return ops_[static_cast<unsigned>(cat)]; }

    /** Average cycles per operation in @p cat (0 if none). */
    double
    avg(Cat cat) const
    {
        const u64 n = ops(cat);
        return n ? static_cast<double>(get(cat)) / static_cast<double>(n)
                 : 0.0;
    }

    /** Sum over all categories. */
    Cycles total() const;

    /** Sum over the map-side categories. */
    Cycles mapTotal() const;

    /** Sum over the unmap-side categories. */
    Cycles unmapTotal() const;

    /** Sum over DMA-management categories (everything but processing). */
    Cycles dmaTotal() const { return total() - get(Cat::kProcessing); }

    void reset();

    /** A -= style delta: this minus @p earlier, category-wise. */
    CycleAccount since(const CycleAccount &earlier) const;

    /** Category-wise sum (aggregating several cores' windows). */
    CycleAccount &
    operator+=(const CycleAccount &o)
    {
        for (unsigned i = 0; i < kNumCats; ++i) {
            cycles_[i] += o.cycles_[i];
            ops_[i] += o.ops_[i];
        }
        return *this;
    }

  private:
    std::array<Cycles, kNumCats> cycles_;
    std::array<u64, kNumCats> ops_;
};

} // namespace rio::cycles

#endif // RIO_CYCLES_CYCLE_ACCOUNT_H
