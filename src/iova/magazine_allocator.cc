#include "iova/magazine_allocator.h"

#include "base/logging.h"

namespace rio::iova {

namespace {

constexpr u64 kStartPfn = 1;

} // namespace

MagazineIovaAllocator::MagazineIovaAllocator(u64 limit_pfn,
                                             cycles::CycleAccount *acct,
                                             const cycles::CostModel &cost)
    : IovaAllocator(acct, cost), limit_pfn_(limit_pfn), next_top_(limit_pfn)
{
    RIO_ASSERT(limit_pfn_ > kStartPfn, "degenerate IOVA space");
}

Result<IovaRange>
MagazineIovaAllocator::alloc(u64 npages)
{
    RIO_ASSERT(npages > 0, "alloc(0)");
    if (rounds_ > 0)
        return allocCached(npages);
    auto lock = lockScope();
    ++alloc_calls_;

    auto it = magazines_.find(npages);
    if (it != magazines_.end() && !it->second.empty()) {
        RbTree::Node *node = it->second.back();
        it->second.pop_back();
        ++magazine_hits_;
        charge(cycles::Cat::kMapIovaAlloc,
               cost_.iova_op_base + cost_.magazine_op);
        return takeNode(node);
    }
    return carveFresh(npages);
}

IovaRange
MagazineIovaAllocator::takeNode(RbTree::Node *node)
{
    RIO_ASSERT(!node->live, "live node parked in magazine");
    node->live = true;
    ++live_;
    return rangeOf(node);
}

Result<IovaRange>
MagazineIovaAllocator::carveFresh(u64 npages)
{
    // Magazine miss: carve fresh space just below everything used so
    // far. Parked ranges never leave the tree, so the space below
    // next_top_ is virgin and this stays O(log n) — the design's
    // whole point is that no linear scan ever happens. The caller
    // holds the allocator lock (tree surgery is depot-side work on
    // both layouts).
    const u64 pad = (next_top_ + 1) % npages;
    if (next_top_ < kStartPfn + npages + pad) {
        charge(cycles::Cat::kMapIovaAlloc, cost_.iova_op_base);
        return Status(ErrorCode::kResourceExhausted, "IOVA space exhausted");
    }
    const u64 pfn_lo = next_top_ - (npages + pad) + 1;
    const u64 pfn_hi = pfn_lo + npages - 1;
    next_top_ = pfn_lo - 1;

    u64 visits = 0;
    u64 rebalances = 0;
    RbTree::Node *node = tree_.insertBetween(nullptr, lowest_, pfn_lo,
                                             pfn_hi, &visits, &rebalances);
    lowest_ = node;
    node->live = true;
    ++live_;
    charge(cycles::Cat::kMapIovaAlloc,
           cost_.iova_op_base + cost_.magazine_op +
               visits * cost_.rb_node_visit +
               rebalances * cost_.rb_rebalance_step);
    return rangeOf(node);
}

Result<IovaRange>
MagazineIovaAllocator::allocCached(u64 npages)
{
    ++alloc_calls_;
    CorePair &cp = core_pairs_[npages];
    // Loaded magazine: the lock-free common case.
    if (!cp.loaded.empty()) {
        RbTree::Node *node = cp.loaded.back();
        cp.loaded.pop_back();
        ++core_hits_;
        ++magazine_hits_;
        charge(cycles::Cat::kMapIovaAlloc,
               cost_.iova_op_base + cost_.magazine_op);
        return takeNode(node);
    }
    // Previous full: swap the pair in place, still lock-free.
    if (!cp.previous.empty()) {
        std::swap(cp.loaded, cp.previous);
        RbTree::Node *node = cp.loaded.back();
        cp.loaded.pop_back();
        ++core_hits_;
        ++magazine_hits_;
        charge(cycles::Cat::kMapIovaAlloc,
               cost_.iova_op_base + cost_.magazine_op +
                   cost_.cached_access);
        return takeNode(node);
    }
    // Both dry: exchange with the depot under the lock — the only
    // locked step, amortized over `rounds_` subsequent allocations.
    {
        auto lock = lockScope();
        auto it = depot_.find(npages);
        if (it != depot_.end() && !it->second.empty()) {
            cp.loaded = std::move(it->second.back());
            it->second.pop_back();
            ++depot_exchanges_;
            RbTree::Node *node = cp.loaded.back();
            cp.loaded.pop_back();
            ++magazine_hits_;
            charge(cycles::Cat::kMapIovaAlloc,
                   cost_.iova_op_base + cost_.magazine_op +
                       cost_.locked_rmw);
            return takeNode(node);
        }
    }
    auto lock = lockScope();
    return carveFresh(npages);
}

Status
MagazineIovaAllocator::freeNode(RbTree::Node *node)
{
    // Parking happens in the core pair when there is one.
    if (rounds_ > 0)
        return freeCached(node);
    auto lock = lockScope();
    node->live = false;
    --live_;
    magazines_[node->pfn_hi - node->pfn_lo + 1].push_back(node);
    charge(cycles::Cat::kUnmapIovaFree,
           cost_.magazine_op + cost_.cached_access + cost_.locked_rmw);
    return Status::ok();
}

Status
MagazineIovaAllocator::freeCached(RbTree::Node *node)
{
    node->live = false;
    --live_;
    const u64 npages = node->pfn_hi - node->pfn_lo + 1;
    CorePair &cp = core_pairs_[npages];
    if (cp.loaded.size() >= rounds_) {
        if (cp.previous.size() < rounds_) {
            // Previous is empty (it is only ever empty or full):
            // swap, then park in the fresh loaded magazine.
            std::swap(cp.loaded, cp.previous);
            charge(cycles::Cat::kUnmapIovaFree, cost_.cached_access);
        } else {
            // Both full: hand the previous magazine to the depot
            // whole — the one locked step on the free path.
            auto lock = lockScope();
            depot_[npages].push_back(std::move(cp.previous));
            cp.previous = std::move(cp.loaded);
            cp.loaded = Magazine{};
            cp.loaded.reserve(rounds_);
            ++depot_exchanges_;
            charge(cycles::Cat::kUnmapIovaFree, cost_.locked_rmw);
        }
    }
    cp.loaded.push_back(node);
    ++core_hits_;
    charge(cycles::Cat::kUnmapIovaFree,
           cost_.magazine_op + cost_.cached_access);
    return Status::ok();
}

void
MagazineIovaAllocator::setCoreCache(u32 rounds)
{
    if (rounds == rounds_)
        return;
    // Re-layout: flush every parked range back into the flat depot
    // stacks, then adopt the new geometry. Pure configuration — no
    // cycles charged, no range leaves the tree.
    for (auto &[npages, pair] : core_pairs_) {
        for (RbTree::Node *n : pair.loaded)
            magazines_[npages].push_back(n);
        for (RbTree::Node *n : pair.previous)
            magazines_[npages].push_back(n);
    }
    core_pairs_.clear();
    for (auto &[npages, mags] : depot_)
        for (Magazine &m : mags)
            for (RbTree::Node *n : m)
                magazines_[npages].push_back(n);
    depot_.clear();
    rounds_ = rounds;
    if (rounds_ == 0)
        return;
    // Seed the new depot with full magazines from the flat stacks;
    // any remainder short of a full magazine goes to the core pair.
    for (auto &[npages, stack] : magazines_) {
        CorePair &cp = core_pairs_[npages];
        cp.loaded.reserve(rounds_);
        for (RbTree::Node *n : stack) {
            if (cp.loaded.size() < rounds_) {
                cp.loaded.push_back(n);
                continue;
            }
            if (depot_[npages].empty() ||
                depot_[npages].back().size() >= rounds_)
                depot_[npages].emplace_back();
            depot_[npages].back().push_back(n);
        }
    }
    magazines_.clear();
}

} // namespace rio::iova
