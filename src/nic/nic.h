/**
 * @file
 * NIC device + driver model, faithful to the paper's setting (§2.3):
 * descriptor rings shared between driver and device, target buffers
 * mapped just before DMA and unmapped right after (§3.1 Figures 4/6),
 * interrupt coalescing producing the ~200-unmap completion bursts the
 * paper measures, and per-packet device accesses that really traverse
 * the configured translation path (baseline IOMMU, rIOMMU, or none).
 *
 * Driver-side work (map/unmap, ring maintenance) runs on the
 * simulated core and is charged cycles; device-side work (descriptor
 * fetch, buffer DMA, completion writeback) runs in device event
 * context and is charged to no core, per the validated model (§3.3).
 */
#ifndef RIO_NIC_NIC_H
#define RIO_NIC_NIC_H

#include <functional>
#include <memory>
#include <vector>

#include "base/fifo.h"
#include "base/status.h"
#include "des/core.h"
#include "des/simulator.h"
#include "dma/dma_handle.h"
#include "net/packet.h"
#include "nic/profile.h"
#include "ring/descriptor_ring.h"

namespace rio::nic {

/** Cumulative NIC counters (sample-and-subtract for windows). */
struct NicStats
{
    u64 tx_packets = 0;
    u64 tx_payload_bytes = 0;
    u64 tx_irqs = 0;
    u64 rx_packets = 0;
    u64 rx_payload_bytes = 0;
    u64 rx_dropped = 0;
    u64 rx_irqs = 0;
    u64 dma_faults = 0;
    u64 unmap_bursts = 0;
    u64 unmap_burst_len_sum = 0;
    u64 surprise_unplugs = 0;
    u64 replugs = 0;

    NicStats &
    operator+=(const NicStats &o)
    {
        tx_packets += o.tx_packets;
        tx_payload_bytes += o.tx_payload_bytes;
        tx_irqs += o.tx_irqs;
        rx_packets += o.rx_packets;
        rx_payload_bytes += o.rx_payload_bytes;
        rx_dropped += o.rx_dropped;
        rx_irqs += o.rx_irqs;
        dma_faults += o.dma_faults;
        unmap_bursts += o.unmap_bursts;
        unmap_burst_len_sum += o.unmap_burst_len_sum;
        surprise_unplugs += o.surprise_unplugs;
        replugs += o.replugs;
        return *this;
    }
};

/** The NIC: driver API on one side, wire API on the other. */
class Nic
{
  public:
    using RxCallback = std::function<void(const net::Packet &)>;
    using TxSpaceCallback = std::function<void()>;
    using WireTxCallback = std::function<void(const net::Packet &)>;

    Nic(des::Simulator &sim, des::Core &core, mem::PhysicalMemory &pm,
        dma::DmaHandle &handle, const NicProfile &profile);
    ~Nic();

    Nic(const Nic &) = delete;
    Nic &operator=(const Nic &) = delete;

    /**
     * Allocate rings and buffer pools, install the static ring
     * mappings, and prefill every Rx descriptor with a mapped buffer
     * (the long-lived working set the IOVA allocator has to live
     * with). Call once, on the core.
     */
    void bringUp();

    /** Tear down: drain mappings, unmap rings. */
    void shutDown();

    // ---- lifecycle --------------------------------------------------------
    /**
     * Device side of a surprise hot-unplug: the hardware vanishes
     * mid-burst. Every scheduled device event is cancelled (epoch
     * bump) and the posting/irq state machines reset; mappings are
     * untouched — recovering those is removeCleanup()'s job.
     */
    void surpriseUnplug();

    /**
     * Driver-side cleanup after a surprise removal: unmap every live
     * mapping (unmap still works through a detached handle — that is
     * the teardown path), return buffers to their pools and free the
     * rings. Requires the NIC to be down.
     */
    void removeCleanup();

    /** Replug a removed NIC: bringUp() again (pools are carved only
     * once) and restart the stack via the tx-space callback. */
    void replug();

    bool isUp() const { return up_; }

    // ---- driver API (call on the core) ---------------------------------
    /** Whole packets that still fit in the Tx ring. */
    u32 txSpacePackets(u32 payload_bytes) const;

    /**
     * Map the packet's target buffers, post its descriptor(s) and
     * ring the doorbell. Small sends are inlined (no mapping).
     */
    Status sendPacket(const net::Packet &pkt);

    /** Invoked (on the core) for each received packet after the
     * driver has recycled its buffer. */
    void setRxCallback(RxCallback cb) { rx_cb_ = std::move(cb); }

    /** Invoked (on the core) when Tx completions freed ring space. */
    void setTxSpaceCallback(TxSpaceCallback cb)
    {
        tx_space_cb_ = std::move(cb);
    }

    // ---- wire API (device side) ------------------------------------------
    /** Invoked when a packet has fully left the NIC onto the wire. */
    void setWireTxCallback(WireTxCallback cb)
    {
        wire_tx_cb_ = std::move(cb);
    }

    /** A packet arrives from the wire; the device DMAs it to memory. */
    void packetFromWire(const net::Packet &pkt);

    // ---- observability ----------------------------------------------------
    const NicStats &stats() const { return stats_; }
    const NicProfile &profile() const { return profile_; }
    dma::DmaHandle &handle() { return handle_; }

    /** Mappings the driver currently holds (rx prefill + tx inflight). */
    u64 liveMappings() const { return handle_.liveMappings(); }

  private:
    // rIOMMU ring-id convention (NicProfile::riommuRingSizes).
    static constexpr u16 kStaticRid = 0;
    static constexpr u16 kTxRid = 1;
    static u16 rxRid(unsigned ring) { return static_cast<u16>(2 + ring); }

    struct TxMeta
    {
        dma::DmaMapping mapping;
        bool mapped = false;
        bool is_header = false;
        bool eop = false;
        net::Packet pkt;
    };

    struct RxRingState
    {
        std::unique_ptr<ring::DescriptorRing> ring;
        dma::DmaMapping ring_mapping;
        std::vector<dma::DmaMapping> meta; // per-entry buffer mapping
        std::vector<PhysAddr> buf_pa;      // per-entry buffer
        u32 clean_idx = 0;                 // driver's next to recycle
        u32 completed = 0;                 // device-completed, unhandled
        Fifo<net::Packet> inflight;        // payload metadata FIFO
    };

    /** Simple LIFO pool of equally-sized buffers. */
    struct BufferPool
    {
        std::vector<PhysAddr> free;
        PhysAddr pop();
        void push(PhysAddr pa) { free.push_back(pa); }
    };

    // device-side helpers (translated accesses)
    ring::Descriptor deviceReadDesc(const dma::DmaMapping &ring_mapping,
                                    const ring::DescriptorRing &ring,
                                    u32 idx, bool *fault);
    void deviceWriteDesc(const dma::DmaMapping &ring_mapping,
                         const ring::DescriptorRing &ring, u32 idx,
                         const ring::Descriptor &desc);

    void kickTx();
    void deviceTxPump();
    /** The in-flight packet has left the wire (device event). */
    void completeTx();
    void raiseTxIrq();
    void txIrqHandler();
    void scheduleRxIrq();
    void rxIrqHandler();

    /** Shared unmap-all used by shutDown and removeCleanup. */
    void teardownMappings();

    des::Simulator &sim_;
    des::Core &core_;
    mem::PhysicalMemory &pm_;
    dma::DmaHandle &handle_;
    const NicProfile &profile_;

    bool up_ = false;

    // Lifecycle epoch: bumped on every bringUp/shutDown/unplug; each
    // scheduled device event captures it and bails on mismatch, so a
    // stale timer cannot touch a NIC that was unplugged (or replugged)
    // after it was scheduled.
    u64 epoch_ = 0;
    bool pools_carved_ = false; //!< tx pools + rx buffers: carve once
    std::vector<PhysAddr> rx_buf_base_; //!< per-ring rx buffer carve

    // Tx state
    std::unique_ptr<ring::DescriptorRing> tx_ring_;
    dma::DmaMapping tx_ring_mapping_;
    std::vector<TxMeta> tx_meta_;
    u32 tx_clean_idx_ = 0;
    u32 tx_completed_unclean_ = 0; //!< completed, not yet recycled
    u32 tx_completed_since_irq_ = 0;
    bool tx_kick_scheduled_ = false;
    bool tx_busy_ = false;
    // The one packet in flight while tx_busy_: its descriptors are
    // the tx_ndesc_ ring slots from tx_first_. Kept here rather than
    // in the completion event, whose capture stays [this, epoch].
    u32 tx_first_ = 0;
    u32 tx_ndesc_ = 0;
    net::Packet tx_pkt_;
    bool tx_fault_ = false;
    bool tx_irq_pending_ = false;
    bool tx_irq_timer_pending_ = false;
    BufferPool header_pool_;
    BufferPool data_pool_;

    // Rx state
    std::vector<RxRingState> rx_rings_;
    bool rx_irq_scheduled_ = false;

    std::vector<u8> scratch_;
    NicStats stats_;

    RxCallback rx_cb_;
    TxSpaceCallback tx_space_cb_;
    WireTxCallback wire_tx_cb_;
};

} // namespace rio::nic

#endif // RIO_NIC_NIC_H
