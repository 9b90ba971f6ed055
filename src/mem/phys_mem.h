/**
 * @file
 * Sparse simulated physical memory. All IOMMU/rIOMMU translation
 * structures, ring descriptors and DMA target buffers live here, so
 * the translation hardware models walk *real* memory-resident tables
 * and functional bugs (bad pointer, stale entry) surface as wrong
 * data rather than being structurally impossible.
 *
 * Frames are found through a two-level direct-indexed table — a
 * directory sized from the capacity, leaves of kLeafFrames frame
 * pointers allocated on first write — so an access is two indexed
 * loads, never a hash probe. A materialized frame is a page-aligned
 * 4 KB slice of a kBlockFrames-frame host block, carved in
 * materialization order, so a word access never straddles host pages.
 * A destroyed memory hands its blocks to a process-wide pool that the
 * next memory carves from, so host pages are faulted in once per
 * process, not once per machine. A memory's first block is zeroed a
 * frame at a time as frames are carved; each later block is zeroed
 * whole when carving reaches it. read64/read32 are inline for any
 * naturally aligned in-range word (a never-written frame reads 0),
 * write64 for one of a materialized frame outside the watched range;
 * read/write are inline for an in-range access within one frame
 * (write: a materialized frame outside the watched range) and loop
 * frame by frame out of line otherwise.
 */
#ifndef RIO_MEM_PHYS_MEM_H
#define RIO_MEM_PHYS_MEM_H

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "base/types.h"

namespace rio::mem {

/**
 * 4 KB-frame sparse physical memory with a bump-plus-freelist frame
 * allocator. Frames are materialized (and zeroed, once) on first
 * write; reads of untouched memory return zeros, as DRAM-after-clear
 * would, and zeroing a never-written frame does not materialize it.
 */
class PhysicalMemory
{
  public:
    /**
     * @param size_bytes capacity cap (default 8 GB, the paper's
     * server memory); allocation beyond it panics.
     */
    explicit PhysicalMemory(u64 size_bytes = u64{8} << 30);

    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    // ---- raw access ---------------------------------------------------
    void
    read(PhysAddr addr, void *dst, u64 size) const
    {
        if (!withinOneFrame(addr, size)) {
            readSpan(addr, dst, size);
        } else if (const u8 *frame = frameIfPresent(addr)) {
            std::memcpy(dst, frame + (addr & kPageMask), size);
        } else {
            std::memset(dst, 0, size);
        }
    }

    void
    write(PhysAddr addr, const void *src, u64 size)
    {
        u8 *frame = !watched(addr, size) && withinOneFrame(addr, size)
                        ? frameIfPresent(addr)
                        : nullptr;
        if (frame)
            std::memcpy(frame + (addr & kPageMask), src, size);
        else
            writeSpan(addr, src, size);
    }

    u64 read64(PhysAddr addr) const { return readWord<u64>(addr); }
    u32 read32(PhysAddr addr) const { return readWord<u32>(addr); }

    void
    write64(PhysAddr addr, u64 value)
    {
        u8 *word = watched(addr, sizeof(value))
                       ? nullptr
                       : wordIfPresent(addr, sizeof(value));
        if (word)
            std::memcpy(word, &value, sizeof(value));
        else
            writeSpan(addr, &value, sizeof(value));
    }

    void write32(PhysAddr addr, u32 value);
    u8 read8(PhysAddr addr) const;
    void write8(PhysAddr addr, u8 value);

    /** Read a trivially-copyable struct. */
    template <typename T>
    T
    readObject(PhysAddr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T obj;
        read(addr, &obj, sizeof(T));
        return obj;
    }

    /** Write a trivially-copyable struct. */
    template <typename T>
    void
    writeObject(PhysAddr addr, const T &obj)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &obj, sizeof(T));
    }

    /** Zero [addr, addr+size). Frames never written stay unmaterialized
     * (they already read as zeros); an observer watching any of it still
     * sees the whole range. */
    void fillZero(PhysAddr addr, u64 size);

    // ---- write observation ----------------------------------------------
    /**
     * Invoked with the full (addr, size) of every non-empty mutation of
     * physical memory that intersects the watched range [lo, lo+len)
     * (all write paths funnel through write()/fillZero()); the default
     * range is all of memory. Writes outside the range keep the inline
     * paths. One observer at a time; null clears it. Used by the
     * migration engine for dirty-page tracking over the guest arena —
     * the hook is host-side only and charges no simulated cycles.
     */
    using WriteObserver = std::function<void(PhysAddr addr, u64 size)>;
    void setWriteObserver(WriteObserver cb, PhysAddr lo = 0,
                          u64 len = ~u64{0});

    // ---- allocation -----------------------------------------------------
    /** Allocate one zeroed 4 KB frame; returns its physical address. */
    PhysAddr allocFrame();

    /**
     * Allocate @p size bytes of physically contiguous, page-aligned
     * memory (device rings, table arrays).
     */
    PhysAddr allocContiguous(u64 size);

    /** Return a frame to the freelist. */
    void freeFrame(PhysAddr addr);

    /** Frames currently allocated (for leak checks in tests). */
    u64 allocatedFrames() const { return allocated_frames_; }

    u64 capacity() const { return capacity_; }

    /**
     * Host bytes of the 4 KB frame holding @p addr, or null if that
     * frame was never written or @p addr is out of range. A frame
     * never moves, so the pointer is valid for this memory's lifetime.
     * Read-only: writes go through write() so the observer sees them.
     */
    const u8 *
    frameData(PhysAddr addr) const
    {
        return addr < capacity_ ? frameIfPresent(addr) : nullptr;
    }

    /** Frames per leaf of the frame table (one leaf spans 2 MB). */
    static constexpr u64 kLeafFrames = 512;

    /**
     * Frames per host block. A block is one malloc, page-aligned by
     * hand; with its alignment slack it stays below glibc's 128 KB
     * mmap threshold. A destroyed memory's blocks go to a process-wide
     * pool, not back to malloc: glibc trims the heap top, and the next
     * machine would fault those pages in again.
     */
    static constexpr u64 kBlockFrames = 30;

  private:
    using Leaf = std::array<u8 *, kLeafFrames>;

    /** Out-of-line read()/write(): range-checked, frame by frame; the
     * write notifies the observer and materializes absent frames. */
    void readSpan(PhysAddr addr, void *dst, u64 size) const;
    void writeSpan(PhysAddr addr, const void *src, u64 size);

    /** True if [addr, addr+size) is non-empty and intersects the
     * observer's watched range (always false with no observer). */
    bool
    watched(PhysAddr addr, u64 size) const
    {
        return addr < watch_end_ && addr + size > watch_lo_ && size > 0;
    }

    /** True if [addr, addr+size) is non-empty, in range and inside one
     * frame (capacity_ is page-aligned, so addr < capacity_ suffices
     * for the frame's end). */
    bool
    withinOneFrame(PhysAddr addr, u64 size) const
    {
        return addr < capacity_ &&
               size - 1 < kPageSize - (addr & kPageMask);
    }

    /** The frame holding @p addr, materialized zeroed if absent. */
    u8 *frameFor(PhysAddr addr);
    /** A zeroed frame carved from the current block (the first block
     * zeroes each frame as it goes; later ones are zeroed whole when
     * carving reaches them). */
    u8 *carveFrame();

    /** The frame holding @p addr, or null if it was never written. */
    u8 *
    frameIfPresent(PhysAddr addr) const
    {
        const u64 fn = addr >> kPageShift;
        const Leaf *leaf = leaves_[fn / kLeafFrames].get();
        return leaf ? (*leaf)[fn % kLeafFrames] : nullptr;
    }

    /** The host bytes of the naturally aligned @p size-byte word at
     * @p addr, or null unless it is in range and already materialized. */
    u8 *
    wordIfPresent(PhysAddr addr, u64 size) const
    {
        if ((addr & (size - 1)) != 0 || addr >= capacity_)
            return nullptr;
        u8 *frame = frameIfPresent(addr);
        return frame ? frame + (addr & kPageMask) : nullptr;
    }

    /** Inline word read: a never-written frame reads 0. A misaligned
     * or out-of-range word goes to readSpan(), which checks the range. */
    template <typename T>
    T
    readWord(PhysAddr addr) const
    {
        T v = 0;
        if ((addr & (sizeof(T) - 1)) == 0 && addr < capacity_) {
            if (const u8 *frame = frameIfPresent(addr))
                std::memcpy(&v, frame + (addr & kPageMask), sizeof(T));
        } else {
            readSpan(addr, &v, sizeof(T));
        }
        return v;
    }

    u64 capacity_;
    u64 next_free_frame_ = 1; // frame 0 reserved: catches null derefs
    u64 allocated_frames_ = 0;
    std::vector<u64> freelist_;
    std::vector<std::unique_ptr<Leaf>> leaves_; //!< frame-table directory
    std::vector<u8 *> blocks_; //!< host blocks, pooled on destruction
    u8 *block_next_ = nullptr; //!< next uncarved frame of blocks_.back()
    u64 block_left_ = 0;       //!< uncarved frames left in it
    WriteObserver observer_;
    PhysAddr watch_lo_ = 0;  //!< observer range start
    PhysAddr watch_end_ = 0; //!< observer range end; 0: no observer
};

} // namespace rio::mem

#endif // RIO_MEM_PHYS_MEM_H
