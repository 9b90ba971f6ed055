#include "mem/phys_mem.h"

#include <algorithm>

#include "base/logging.h"

namespace rio::mem {

PhysicalMemory::PhysicalMemory(u64 size_bytes)
    : capacity_(pageAlignDown(size_bytes))
{
    RIO_ASSERT(capacity_ >= 2 * kPageSize, "memory too small");
    const u64 frames = capacity_ >> kPageShift;
    leaves_.resize((frames + kLeafFrames - 1) / kLeafFrames);
}

PhysicalMemory::Frame &
PhysicalMemory::frameFor(PhysAddr addr)
{
    const u64 fn = addr >> kPageShift;
    auto &leaf = leaves_[fn / kLeafFrames];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    auto &slot = (*leaf)[fn % kLeafFrames];
    if (!slot)
        slot = std::make_unique<Frame>(); // value-initialized: zeroed
    return *slot;
}

PhysicalMemory::Frame *
PhysicalMemory::frameIfPresent(PhysAddr addr) const
{
    const u64 fn = addr >> kPageShift;
    const Leaf *leaf = leaves_[fn / kLeafFrames].get();
    return leaf ? (*leaf)[fn % kLeafFrames].get() : nullptr;
}

void
PhysicalMemory::read(PhysAddr addr, void *dst, u64 size) const
{
    RIO_ASSERT(addr + size <= capacity_ && addr + size >= addr,
               "phys read out of range: addr=", addr, " size=", size);
    auto *out = static_cast<u8 *>(dst);
    while (size > 0) {
        const u64 in_page = std::min(size, kPageSize - (addr & kPageMask));
        const Frame *frame = frameIfPresent(addr);
        if (frame) {
            std::memcpy(out, frame->data() + (addr & kPageMask), in_page);
        } else {
            std::memset(out, 0, in_page);
        }
        out += in_page;
        addr += in_page;
        size -= in_page;
    }
}

void
PhysicalMemory::write(PhysAddr addr, const void *src, u64 size)
{
    RIO_ASSERT(addr + size <= capacity_ && addr + size >= addr,
               "phys write out of range: addr=", addr, " size=", size);
    if (observer_)
        observer_(addr, size);
    const auto *in = static_cast<const u8 *>(src);
    while (size > 0) {
        const u64 in_page = std::min(size, kPageSize - (addr & kPageMask));
        Frame &frame = frameFor(addr);
        std::memcpy(frame.data() + (addr & kPageMask), in, in_page);
        in += in_page;
        addr += in_page;
        size -= in_page;
    }
}

u64
PhysicalMemory::read64(PhysAddr addr) const
{
    u64 v;
    read(addr, &v, sizeof(v));
    return v;
}

void
PhysicalMemory::write64(PhysAddr addr, u64 value)
{
    write(addr, &value, sizeof(value));
}

u32
PhysicalMemory::read32(PhysAddr addr) const
{
    u32 v;
    read(addr, &v, sizeof(v));
    return v;
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
    if (observer_ && size > 0)
        observer_(addr, size);
    while (size > 0) {
        const u64 in_page = std::min(size, kPageSize - (addr & kPageMask));
        if (Frame *frame = frameIfPresent(addr))
            std::memset(frame->data() + (addr & kPageMask), 0, in_page);
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
