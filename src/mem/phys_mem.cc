#include "mem/phys_mem.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <mutex>

#include "base/logging.h"

namespace rio::mem {

namespace {

/** Bytes of one host block: its frames plus one page of slack, room to
 * align any malloc result up to a page boundary. */
constexpr u64 kBlockBytes = (PhysicalMemory::kBlockFrames + 1) * kPageSize;

/**
 * Host blocks of destroyed memories, shared by every memory in the
 * process (cluster rows build and destroy machines on parallelFor
 * threads, hence the mutex; it is taken once per block, not per
 * frame). Blocks wait here poisoned under ASan, so a stale frame
 * pointer into a dead machine is still caught. Never destroyed: a
 * memory may die after static destructors have run, and the list
 * keeps the pooled blocks reachable for LeakSanitizer.
 */
struct BlockPool
{
    std::mutex mu;
    std::vector<u8 *> blocks;
};

BlockPool &
blockPool()
{
    static BlockPool *pool = new BlockPool;
    return *pool;
}

} // namespace

PhysicalMemory::PhysicalMemory(u64 size_bytes)
    : capacity_(pageAlignDown(size_bytes))
{
    RIO_ASSERT(capacity_ >= 2 * kPageSize, "memory too small");
    const u64 frames = capacity_ >> kPageShift;
    leaves_.resize((frames + kLeafFrames - 1) / kLeafFrames);
}

PhysicalMemory::~PhysicalMemory()
{
    for (u8 *block : blocks_)
        ASAN_POISON_MEMORY_REGION(block, kBlockBytes);
    BlockPool &pool = blockPool();
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.blocks.insert(pool.blocks.end(), blocks_.begin(), blocks_.end());
}

u8 *
PhysicalMemory::carveFrame()
{
    if (block_left_ == 0) {
        // A pooled block first: its pages are already faulted in.
        // Otherwise malloc, page-aligned by hand within its slack.
        // Under ASan the slack and the uncarved frames stay poisoned,
        // so running off the end of a frame is still caught.
        u8 *block = nullptr;
        {
            BlockPool &pool = blockPool();
            std::lock_guard<std::mutex> lock(pool.mu);
            if (!pool.blocks.empty()) {
                block = pool.blocks.back();
                pool.blocks.pop_back();
            }
        }
        if (!block) {
            block = static_cast<u8 *>(std::malloc(kBlockBytes));
            RIO_ASSERT(block, "host out of memory for frames");
            ASAN_POISON_MEMORY_REGION(block, kBlockBytes);
        }
        blocks_.push_back(block);
        block_next_ = reinterpret_cast<u8 *>(
            pageAlignUp(reinterpret_cast<std::uintptr_t>(block)));
        block_left_ = kBlockFrames;
        // Past the first block, a memory is growing in bulk: zero the
        // whole block in one pass. The first block keeps per-frame
        // zeroing, so a machine that carves a few frames does not pay
        // for thirty.
        if (blocks_.size() > 1) {
            constexpr u64 kFramesBytes = kBlockFrames * kPageSize;
            ASAN_UNPOISON_MEMORY_REGION(block_next_, kFramesBytes);
            std::memset(block_next_, 0, kFramesBytes);
            ASAN_POISON_MEMORY_REGION(block_next_, kFramesBytes);
        }
    }
    u8 *frame = block_next_;
    block_next_ += kPageSize;
    --block_left_;
    ASAN_UNPOISON_MEMORY_REGION(frame, kPageSize);
    if (blocks_.size() == 1)
        std::memset(frame, 0, kPageSize);
    return frame;
}

u8 *
PhysicalMemory::frameFor(PhysAddr addr)
{
    const u64 fn = addr >> kPageShift;
    auto &leaf = leaves_[fn / kLeafFrames];
    if (!leaf)
        leaf = std::make_unique<Leaf>(); // value-initialized: all null
    u8 *&slot = (*leaf)[fn % kLeafFrames];
    if (!slot)
        slot = carveFrame();
    return slot;
}

void
PhysicalMemory::readSpan(PhysAddr addr, void *dst, u64 size) const
{
    RIO_ASSERT(addr + size <= capacity_ && addr + size >= addr,
               "phys read out of range: addr=", addr, " size=", size);
    auto *out = static_cast<u8 *>(dst);
    while (size > 0) {
        const u64 in_page = std::min(size, kPageSize - (addr & kPageMask));
        const u8 *frame = frameIfPresent(addr);
        if (frame) {
            std::memcpy(out, frame + (addr & kPageMask), in_page);
        } else {
            std::memset(out, 0, in_page);
        }
        out += in_page;
        addr += in_page;
        size -= in_page;
    }
}

void
PhysicalMemory::writeSpan(PhysAddr addr, const void *src, u64 size)
{
    RIO_ASSERT(addr + size <= capacity_ && addr + size >= addr,
               "phys write out of range: addr=", addr, " size=", size);
    if (watched(addr, size))
        observer_(addr, size);
    const auto *in = static_cast<const u8 *>(src);
    while (size > 0) {
        const u64 in_page = std::min(size, kPageSize - (addr & kPageMask));
        std::memcpy(frameFor(addr) + (addr & kPageMask), in, in_page);
        in += in_page;
        addr += in_page;
        size -= in_page;
    }
}

void
PhysicalMemory::setWriteObserver(WriteObserver cb, PhysAddr lo, u64 len)
{
    observer_ = std::move(cb);
    watch_lo_ = observer_ ? lo : 0;
    // An empty end turns the inline writes' range check off; a range
    // running past the top of the address space ends there.
    watch_end_ = !observer_ ? 0 : len > ~lo ? ~PhysAddr{0} : lo + len;
}

void
PhysicalMemory::write32(PhysAddr addr, u32 value)
{
    write(addr, &value, sizeof(value));
}

u8
PhysicalMemory::read8(PhysAddr addr) const
{
    u8 v;
    read(addr, &v, sizeof(v));
    return v;
}

void
PhysicalMemory::write8(PhysAddr addr, u8 value)
{
    write(addr, &value, sizeof(value));
}

void
PhysicalMemory::fillZero(PhysAddr addr, u64 size)
{
    RIO_ASSERT(addr + size <= capacity_ && addr + size >= addr,
               "phys fill out of range: addr=", addr, " size=", size);
    if (watched(addr, size))
        observer_(addr, size);
    while (size > 0) {
        const u64 in_page = std::min(size, kPageSize - (addr & kPageMask));
        if (u8 *frame = frameIfPresent(addr))
            std::memset(frame + (addr & kPageMask), 0, in_page);
        addr += in_page;
        size -= in_page;
    }
}

PhysAddr
PhysicalMemory::allocFrame()
{
    u64 fn;
    if (!freelist_.empty()) {
        fn = freelist_.back();
        freelist_.pop_back();
    } else {
        fn = next_free_frame_++;
        RIO_ASSERT((fn << kPageShift) < capacity_,
                   "simulated physical memory exhausted");
    }
    ++allocated_frames_;
    const PhysAddr addr = fn << kPageShift;
    fillZero(addr, kPageSize);
    return addr;
}

PhysAddr
PhysicalMemory::allocContiguous(u64 size)
{
    const u64 npages = pagesSpanned(0, size);
    RIO_ASSERT(npages > 0, "allocContiguous(0)");
    // Contiguous runs always come from the bump pointer; the freelist
    // only serves single frames.
    const u64 fn = next_free_frame_;
    next_free_frame_ += npages;
    RIO_ASSERT((next_free_frame_ << kPageShift) <= capacity_,
               "simulated physical memory exhausted");
    allocated_frames_ += npages;
    const PhysAddr addr = fn << kPageShift;
    fillZero(addr, npages * kPageSize);
    return addr;
}

void
PhysicalMemory::freeFrame(PhysAddr addr)
{
    RIO_ASSERT(isPageAligned(addr), "freeFrame on unaligned address");
    RIO_ASSERT(allocated_frames_ > 0, "freeFrame with none allocated");
    --allocated_frames_;
    freelist_.push_back(addr >> kPageShift);
}

} // namespace rio::mem
