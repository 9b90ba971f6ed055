/**
 * @file
 * AHCI/SATA-like disk model: a single 32-slot command queue whose
 * slots the drive may complete in ARBITRARY order — precisely the
 * work mode §4 calls out as incompatible with rIOMMU's flat-table
 * sequencing (and not worth supporting, because SATA drives are too
 * slow for IOMMU overheads to matter; the Bonnie++ experiment shows
 * strict vs. none indistinguishable). Used by the
 * bench_ablation_sata reproduction of that observation.
 */
#ifndef RIO_AHCI_AHCI_H
#define RIO_AHCI_AHCI_H

#include <array>
#include <functional>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "des/core.h"
#include "des/simulator.h"
#include "dma/dma_handle.h"
#include "mem/phys_mem.h"

namespace rio::ahci {

/** Drive timing. Defaults approximate a 7200 RPM SATA HDD. */
struct AhciProfile
{
    u32 sector_bytes = 4096;
    /** Positioning latency for the next random command. */
    Nanos seek_ns = 4000000; // 4 ms
    /** Extra latency when the access is sequential to the last one. */
    Nanos sequential_ns = 25000; // 25 us
    /** Media bandwidth. */
    double bandwidth_gbps = 1.2; // ~150 MB/s
    Nanos doorbell_ns = 700;
    Nanos irq_ns = 3000;
};

/** The 32-slot AHCI port (NCQ-style out-of-order completion). */
class AhciDevice
{
  public:
    static constexpr u32 kSlots = 32;

    using CompletionCallback = std::function<void(u32 slot, Status)>;

    AhciDevice(des::Simulator &sim, des::Core &core,
               mem::PhysicalMemory &pm, dma::DmaHandle &handle,
               AhciProfile profile = {}, u64 seed = 1);

    AhciDevice(const AhciDevice &) = delete;
    AhciDevice &operator=(const AhciDevice &) = delete;

    /** Free command slots. */
    u32 freeSlots() const;

    /**
     * Issue a read/write of @p nsectors at @p lba from/to @p data_pa.
     * Maps the buffer, occupies a slot, returns the slot id.
     */
    Result<u32> issue(bool is_write, u64 lba, u32 nsectors,
                      PhysAddr data_pa);

    void setCompletionCallback(CompletionCallback cb)
    {
        completion_cb_ = std::move(cb);
    }

    // ---- lifecycle --------------------------------------------------------
    /** Surprise hot-unplug: cancel scheduled device events (epoch
     * bump) and forget the NCQ backlog; mappings stay busy for
     * removeCleanup(). */
    void surpriseUnplug();

    /** Driver-side cleanup after a surprise removal: unmap every busy
     * slot through the (detached) handle. */
    void removeCleanup();

    /** Replug a removed drive: the port accepts commands again. */
    void replug();

    bool isUp() const { return up_; }

    u64 completed() const { return completed_; }
    u64 bytesMoved() const { return bytes_moved_; }

  private:
    struct Slot
    {
        bool busy = false;
        bool is_write = false;
        u64 lba = 0;
        u32 nsectors = 0;
        dma::DmaMapping mapping;
    };

    void deviceStart(u32 slot_idx);
    void serviceNext();
    void complete(u32 slot_idx);

    des::Simulator &sim_;
    des::Core &core_;
    mem::PhysicalMemory &pm_;
    dma::DmaHandle &handle_;
    AhciProfile profile_;
    Rng rng_;

    std::array<Slot, kSlots> slots_{};
    std::vector<u32> pending_; //!< queued for the (serial) media
    bool up_ = true;
    // Lifecycle epoch: scheduled device events capture it and bail on
    // mismatch, so unplug cancels everything in flight.
    u64 epoch_ = 0;
    bool media_busy_ = false;
    u64 last_lba_end_ = 0;
    u64 completed_ = 0;
    u64 bytes_moved_ = 0;
    std::vector<u8> scratch_;

    CompletionCallback completion_cb_;
};

} // namespace rio::ahci

#endif // RIO_AHCI_AHCI_H
