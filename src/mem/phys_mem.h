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
 * loads, never a hash probe.
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

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    // ---- raw access ---------------------------------------------------
    void read(PhysAddr addr, void *dst, u64 size) const;
    void write(PhysAddr addr, const void *src, u64 size);

    u64 read64(PhysAddr addr) const;
    void write64(PhysAddr addr, u64 value);
    u32 read32(PhysAddr addr) const;
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
     * (they already read as zeros); the observer still sees the whole
     * range. */
    void fillZero(PhysAddr addr, u64 size);

    // ---- write observation ----------------------------------------------
    /**
     * Invoked on every mutation of physical memory (all write paths
     * funnel through write()/fillZero()). One observer at a time;
     * null clears it. Used by the migration engine for dirty-page
     * tracking — the hook is host-side only and charges no simulated
     * cycles.
     */
    using WriteObserver = std::function<void(PhysAddr addr, u64 size)>;
    void setWriteObserver(WriteObserver cb) { observer_ = std::move(cb); }

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

    /** Frames per leaf of the frame table (one leaf spans 2 MB). */
    static constexpr u64 kLeafFrames = 512;

  private:
    using Frame = std::array<u8, kPageSize>;
    using Leaf = std::array<std::unique_ptr<Frame>, kLeafFrames>;

    /** The frame holding @p addr, materialized zeroed if absent. */
    Frame &frameFor(PhysAddr addr);
    /** The frame holding @p addr, or null if it was never written. */
    Frame *frameIfPresent(PhysAddr addr) const;

    u64 capacity_;
    u64 next_free_frame_ = 1; // frame 0 reserved: catches null derefs
    u64 allocated_frames_ = 0;
    std::vector<u64> freelist_;
    std::vector<std::unique_ptr<Leaf>> leaves_; //!< frame-table directory
    WriteObserver observer_;
};

} // namespace rio::mem

#endif // RIO_MEM_PHYS_MEM_H
