/**
 * @file
 * NodePool: a memory resource that keeps freed small blocks for
 * reuse instead of returning them to the heap. Node containers on
 * the per-packet path (the IOVA tree, a DMA handle's live-mapping
 * map, the rIOTLB) free one node for every node they allocate, so
 * once a container has reached its peak size its inserts stop
 * touching the heap. Containers take it as a std::pmr resource; the
 * element order of a std::pmr::unordered_map does not depend on
 * where its nodes live.
 *
 * One pool serves one container owner on one event lane: no
 * locking. Spare blocks stay poisoned under ASan, so a stale node
 * pointer into a freed entry is still caught.
 */
#ifndef RIO_BASE_NODE_POOL_H
#define RIO_BASE_NODE_POOL_H

#include <memory_resource>

#include "base/types.h"

namespace rio {

class NodePool final : public std::pmr::memory_resource
{
  public:
    NodePool() = default;
    ~NodePool() override;
    NodePool(const NodePool &) = delete;
    NodePool &operator=(const NodePool &) = delete;

  private:
    /** Blocks up to this size are recycled; larger ones (a hash
     * map's bucket array) go straight to the heap. */
    static constexpr size_t kMaxBytes = 128;
    /** Size classes are multiples of 8 bytes, and a class's blocks
     * are requested at exactly that size: a 56-byte tree node keeps
     * malloc's 64-byte chunk (asked as 64 bytes, it would take 80). */
    static constexpr size_t kGrain = 8;

    struct Spare
    {
        Spare *next;
    };

    static size_t bin(size_t bytes) { return (bytes - 1) / kGrain; }

    void *do_allocate(size_t bytes, size_t align) override;
    void do_deallocate(void *p, size_t bytes, size_t align) override;
    bool
    do_is_equal(const std::pmr::memory_resource &o) const noexcept override
    {
        return this == &o;
    }

    Spare *spare_[kMaxBytes / kGrain] = {}; //!< per size class
};

} // namespace rio

#endif // RIO_BASE_NODE_POOL_H
