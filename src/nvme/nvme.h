/**
 * @file
 * NVMe-like storage device model. The paper (§4, Applicability)
 * argues rIOMMU fits PCIe SSDs because NVM Express mandates
 * ring-shaped submission/completion queues (up to 64 K queues of up
 * to 64 K commands) with strict (un)mapping order. This model
 * implements that substrate: paired submission/completion queues in
 * simulated memory, command fetch / data transfer / completion
 * writeback all through the configured DMA translation path, and a
 * flash backing store with configurable latency/bandwidth.
 */
#ifndef RIO_NVME_NVME_H
#define RIO_NVME_NVME_H

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "des/core.h"
#include "des/simulator.h"
#include "dma/dma_handle.h"
#include "mem/phys_mem.h"

namespace rio::nvme {

/** Op codes of the NVM command set subset we model. */
enum class Opcode : u8 { kWrite = 0x01, kRead = 0x02, kFlush = 0x00 };

/** A 64-byte NVMe submission-queue entry (subset of fields). */
struct Command
{
    u8 opcode = 0;
    u8 pad0[3] = {};
    u32 cid = 0;    //!< command identifier
    u64 prp1 = 0;   //!< DMA address of the data buffer
    u64 slba = 0;   //!< starting logical block
    u32 nlb = 0;    //!< number of logical blocks (0's based in real
                    //!< NVMe; 1's based here for clarity)
    u8 pad1[36] = {};
};
static_assert(sizeof(Command) == 64, "SQE is 64 bytes");

/** A 16-byte completion-queue entry (subset). */
struct Completion
{
    u32 cid = 0;
    u16 status = 0; //!< 0 == success
    u16 phase = 0;  //!< toggles per CQ wrap
    u64 pad = 0;
};
static_assert(sizeof(Completion) == 16, "CQE is 16 bytes");

/** Device timing/geometry. */
struct NvmeProfile
{
    u32 block_bytes = 4096;
    u32 queue_entries = 256;
    /** Per-command access latency (fast NVMe flash, ~20 us). */
    Nanos access_latency_ns = 20000;
    /** Sustained media bandwidth. */
    double bandwidth_gbps = 25.0;
    /** Completion interrupt coalescing. */
    u32 irq_batch = 8;
    Nanos irq_delay_ns = 4000;
    Nanos doorbell_ns = 700;
};

/**
 * One I/O queue pair plus the device engine behind it. The driver
 * API (submit/poll) runs on the core; command fetch, data DMA and
 * completion writeback run in device context through the DmaHandle.
 */
class NvmeDevice
{
  public:
    /** Called on the core when a command completes. */
    using CompletionCallback =
        std::function<void(u32 cid, Status status)>;

    NvmeDevice(des::Simulator &sim, des::Core &core,
               mem::PhysicalMemory &pm, dma::DmaHandle &handle,
               NvmeProfile profile = {});
    ~NvmeDevice();

    NvmeDevice(const NvmeDevice &) = delete;
    NvmeDevice &operator=(const NvmeDevice &) = delete;

    /** Allocate and map the SQ/CQ rings. */
    void bringUp();
    void shutDown();

    // ---- lifecycle --------------------------------------------------------
    /** Surprise hot-unplug: cancel scheduled device events (epoch
     * bump) and reset the engine; mappings stay for removeCleanup(). */
    void surpriseUnplug();

    /** Driver-side cleanup after a surprise removal: unmap every live
     * mapping through the (detached) handle and reset the queues. */
    void removeCleanup();

    /** Replug a removed device: bringUp() again (queue frames are
     * carved only once). */
    void replug();

    bool isUp() const { return up_; }

    /** rRING sizes an rIOMMU handle needs for this device:
     * rid 0 statics (SQ+CQ), rid 1 data buffers. */
    static std::vector<u32>
    riommuRingSizes(const NvmeProfile &profile = {})
    {
        return {2, profile.queue_entries};
    }

    // ---- driver API (call on the core) ---------------------------------
    /** Free submission slots. */
    u32 submitSpace() const;

    /**
     * Map the data buffer, write the SQE and ring the doorbell.
     * @returns the assigned command id.
     */
    Result<u32> submit(Opcode op, u64 slba, u32 nlb, PhysAddr data_pa);

    void setCompletionCallback(CompletionCallback cb)
    {
        completion_cb_ = std::move(cb);
    }

    // ---- observability ----------------------------------------------------
    u64 completed() const { return completed_; }
    u64 mediaBytes() const { return media_bytes_; }
    u64 dmaFaults() const { return dma_faults_; }

    /** Peek the flash backing store (tests). */
    std::vector<u8> flashRead(u64 slba, u32 nlb) const;
    void flashWrite(u64 slba, const std::vector<u8> &data);

  private:
    static constexpr u16 kStaticRid = 0;
    static constexpr u16 kDataRid = 1;

    struct Slot
    {
        bool busy = false;
        dma::DmaMapping mapping;
        Opcode op = Opcode::kFlush;
        u64 slba = 0;
        u32 nlb = 0;
    };

    void kick();
    void devicePump();
    void deviceExecute(u32 sq_idx);
    void raiseIrq();
    void irqHandler();

    /** Shared unmap-all used by shutDown and removeCleanup. */
    void teardownMappings();

    des::Simulator &sim_;
    des::Core &core_;
    mem::PhysicalMemory &pm_;
    dma::DmaHandle &handle_;
    NvmeProfile profile_;

    bool up_ = false;
    // Lifecycle epoch: scheduled device events capture it and bail on
    // mismatch, so unplug cancels everything in flight.
    u64 epoch_ = 0;
    bool queues_carved_ = false; //!< SQ/CQ frames: carve once
    PhysAddr sq_base_ = 0;
    PhysAddr cq_base_ = 0;
    dma::DmaMapping sq_mapping_;
    dma::DmaMapping cq_mapping_;

    u32 sq_tail_ = 0;  // driver writes
    u32 sq_head_ = 0;  // device reads
    u32 sq_inflight_ = 0;
    u32 cq_tail_ = 0;  // device writes
    u32 cq_head_ = 0;  // driver reads
    u32 next_cid_ = 1;
    bool device_busy_ = false;
    bool kick_scheduled_ = false;
    bool irq_pending_ = false;
    bool irq_timer_ = false;
    u32 completions_since_irq_ = 0;

    std::vector<Slot> slots_; // indexed by SQ index
    std::unordered_map<u32, u32> cid_to_slot_;
    std::unordered_map<u64, std::vector<u8>> flash_; // lba -> block
    std::vector<u8> scratch_;

    u64 completed_ = 0;
    u64 media_bytes_ = 0;
    u64 dma_faults_ = 0;

    CompletionCallback completion_cb_;
};

} // namespace rio::nvme

#endif // RIO_NVME_NVME_H
