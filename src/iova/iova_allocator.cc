#include "iova/iova_allocator.h"

#include "base/logging.h"

namespace rio::iova {

Result<IovaRange>
IovaAllocator::find(u64 pfn)
{
    auto lock = lockScope();
    u64 visits = 0;
    RbTree::Node *node = tree_.findContaining(pfn, &visits);
    charge(cycles::Cat::kUnmapIovaFind,
           visits * cost_.rb_node_visit + cost_.cached_access);
    if (!node || !node->live)
        return Status(ErrorCode::kNotFound, "IOVA not allocated");
    return rangeOf(node);
}

Result<IovaRange>
IovaAllocator::find(IovaHandle handle)
{
    RIO_ASSERT(handle, "find through a null IOVA handle");
    auto lock = lockScope();
    RbTree::Node *node = handle.node_;
    charge(cycles::Cat::kUnmapIovaFind,
           tree_.depth(node) * cost_.rb_node_visit + cost_.cached_access);
    if (!node->live)
        return Status(ErrorCode::kNotFound, "IOVA not allocated");
    return rangeOf(node);
}

Status
IovaAllocator::free(IovaHandle handle)
{
    RIO_ASSERT(handle, "free through a null IOVA handle");
    if (!handle.node_->live)
        return Status(ErrorCode::kNotFound, "free of unallocated IOVA");
    return freeNode(handle.node_);
}

Status
IovaAllocator::free(u64 pfn_lo)
{
    // Linux's __free_iova() takes the node find_iova() returned, so
    // this lookup is mechanical and not charged.
    RbTree::Node *node = tree_.findContaining(pfn_lo, nullptr);
    if (!node || node->pfn_lo != pfn_lo || !node->live)
        return Status(ErrorCode::kNotFound, "free of unallocated IOVA");
    return freeNode(node);
}

} // namespace rio::iova
