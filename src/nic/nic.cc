#include "nic/nic.h"

#include <algorithm>

#include "base/logging.h"

namespace rio::nic {

using ring::Descriptor;

PhysAddr
Nic::BufferPool::pop()
{
    RIO_ASSERT(!free.empty(), "buffer pool exhausted");
    const PhysAddr pa = free.back();
    free.pop_back();
    return pa;
}

Nic::Nic(des::Simulator &sim, des::Core &core, mem::PhysicalMemory &pm,
         dma::DmaHandle &handle, const NicProfile &profile)
    : sim_(sim), core_(core), pm_(pm), handle_(handle), profile_(profile),
      scratch_(profile.data_buf_bytes, 0)
{
}

Nic::~Nic() = default;

void
Nic::bringUp()
{
    RIO_ASSERT(!up_, "bringUp twice");
    up_ = true;
    ++epoch_;
    tx_clean_idx_ = 0;
    tx_completed_unclean_ = 0;
    tx_completed_since_irq_ = 0;

    // Tx descriptor ring + its static mapping (first rRING of the
    // pair in the rIOMMU design: mapped at init, unmapped at bring
    // down, always accessible to the device).
    tx_ring_ = std::make_unique<ring::DescriptorRing>(
        pm_, profile_.tx_ring_entries);
    auto m = handle_.map(kStaticRid, tx_ring_->base(),
                         static_cast<u32>(tx_ring_->bytes()),
                         iommu::DmaDir::kBidir);
    RIO_ASSERT(m.isOk(), "tx ring map failed: ", m.status().toString());
    tx_ring_mapping_ = m.value();
    tx_meta_.assign(profile_.tx_ring_entries, TxMeta{});

    // Tx buffer pools: separate header and data buffers, carved with
    // their natural stride so sub-page neighbours share pages as they
    // do in a real kernel. Carved exactly once: teardown returns every
    // buffer to its pool, so a replug reuses the same frames instead
    // of leaking a fresh carve per lifecycle event.
    if (!pools_carved_) {
        const u64 hbytes = static_cast<u64>(profile_.header_buf_bytes) *
                           profile_.tx_ring_entries;
        PhysAddr hbase = pm_.allocContiguous(hbytes);
        for (u32 i = 0; i < profile_.tx_ring_entries; ++i)
            header_pool_.push(hbase + i * profile_.header_buf_bytes);
        const u64 dbytes = static_cast<u64>(profile_.data_buf_bytes) *
                           profile_.tx_ring_entries;
        PhysAddr dbase = pm_.allocContiguous(dbytes);
        for (u32 i = 0; i < profile_.tx_ring_entries; ++i)
            data_pool_.push(dbase + i * profile_.data_buf_bytes);
    }

    // Rx rings: static ring mapping plus a fully-mapped buffer per
    // descriptor — the long-lived IOVA working set (§3.2).
    rx_rings_.resize(profile_.rx_rings);
    for (unsigned r = 0; r < profile_.rx_rings; ++r) {
        RxRingState &rr = rx_rings_[r];
        rr.ring = std::make_unique<ring::DescriptorRing>(
            pm_, profile_.rx_ring_entries);
        auto rm = handle_.map(kStaticRid, rr.ring->base(),
                              static_cast<u32>(rr.ring->bytes()),
                              iommu::DmaDir::kBidir);
        RIO_ASSERT(rm.isOk(), "rx ring map failed");
        rr.ring_mapping = rm.value();

        rr.meta.resize(profile_.rx_ring_entries);
        rr.buf_pa.resize(profile_.rx_ring_entries);
        if (r >= rx_buf_base_.size())
            rx_buf_base_.push_back(pm_.allocContiguous(
                static_cast<u64>(profile_.data_buf_bytes) *
                profile_.rx_ring_entries));
        const PhysAddr base = rx_buf_base_[r];
        for (u32 i = 0; i < profile_.rx_ring_entries; ++i) {
            rr.buf_pa[i] = base + static_cast<u64>(i) *
                                      profile_.data_buf_bytes;
            auto bm = handle_.map(rxRid(r), rr.buf_pa[i],
                                  profile_.data_buf_bytes,
                                  iommu::DmaDir::kFromDevice);
            RIO_ASSERT(bm.isOk(), "rx buffer map failed");
            rr.meta[i] = bm.value();
            rr.ring->push(Descriptor{bm.value().device_addr,
                                     profile_.data_buf_bytes,
                                     Descriptor::kOwnedByDevice});
        }
    }
    pools_carved_ = true;
}

void
Nic::shutDown()
{
    RIO_ASSERT(up_, "shutDown while down");
    up_ = false;
    ++epoch_; // cancel in-flight device events
    tx_busy_ = false;
    tx_kick_scheduled_ = false;
    tx_irq_pending_ = false;
    tx_irq_timer_pending_ = false;
    rx_irq_scheduled_ = false;
    teardownMappings();
}

void
Nic::teardownMappings()
{
    // Recycle any completed-but-uncleaned and pending Tx mappings in
    // FIFO order, then the Rx buffers, then the static ring mappings.
    if (tx_ring_) {
        u32 idx = tx_clean_idx_;
        for (u32 n = 0; n < profile_.tx_ring_entries; ++n) {
            TxMeta &meta = tx_meta_[idx];
            if (meta.mapped) {
                (void)handle_.unmap(meta.mapping, /*end_of_burst=*/true);
                (meta.is_header ? header_pool_ : data_pool_)
                    .push(meta.mapping.pa);
                meta.mapped = false;
            }
            idx = tx_ring_->next(idx);
        }
    }
    for (unsigned r = 0; r < rx_rings_.size(); ++r) {
        RxRingState &rr = rx_rings_[r];
        u32 i = rr.clean_idx;
        for (u32 n = 0; n < profile_.rx_ring_entries; ++n) {
            (void)handle_.unmap(rr.meta[i],
                                /*end_of_burst=*/n + 1 ==
                                    profile_.rx_ring_entries);
            i = rr.ring->next(i);
        }
        (void)handle_.unmap(rr.ring_mapping, true);
        rr.ring.reset();
    }
    rx_rings_.clear();
    if (tx_ring_) {
        (void)handle_.unmap(tx_ring_mapping_, true);
        tx_ring_.reset();
    }
    tx_clean_idx_ = 0;
    tx_completed_unclean_ = 0;
    tx_completed_since_irq_ = 0;
}

void
Nic::surpriseUnplug()
{
    RIO_ASSERT(up_, "surpriseUnplug while down");
    up_ = false;
    ++epoch_; // every scheduled device event dies on the epoch check
    // The cancelled events can no longer clear the flags they were
    // responsible for; reset the state machines so a later replug
    // starts from a clean slate.
    tx_busy_ = false;
    tx_kick_scheduled_ = false;
    tx_irq_pending_ = false;
    tx_irq_timer_pending_ = false;
    rx_irq_scheduled_ = false;
    tx_completed_since_irq_ = 0;
    ++stats_.surprise_unplugs;
}

void
Nic::removeCleanup()
{
    RIO_ASSERT(!up_, "removeCleanup on a live NIC");
    teardownMappings();
}

void
Nic::replug()
{
    RIO_ASSERT(!up_ && !tx_ring_, "replug without cleanup");
    ++stats_.replugs;
    bringUp();
    // A fresh empty ring means tx space opened up; restart the stack.
    if (tx_space_cb_)
        tx_space_cb_();
}

u32
Nic::txSpacePackets(u32 payload_bytes) const
{
    // A surprise-unplugged NIC has no tx space: the stack stalls here
    // and replug()'s tx-space callback restarts it after the outage.
    if (!up_ || !tx_ring_)
        return 0;
    // Descriptors popped by the device but not yet recycled by the
    // completion handler still pin their target buffers and metadata;
    // the driver may only reuse slots it has cleaned.
    const u32 space = tx_ring_->spaceLeft() > tx_completed_unclean_
                          ? tx_ring_->spaceLeft() - tx_completed_unclean_
                          : 0;
    return space / profile_.txDescsPerPacket(payload_bytes);
}

Status
Nic::sendPacket(const net::Packet &pkt)
{
    RIO_ASSERT(up_, "sendPacket on a down NIC");
    RIO_ASSERT(pkt.payload_bytes <= net::kMss &&
                   pkt.payload_bytes <= profile_.data_buf_bytes,
               "payload exceeds MSS");
    const unsigned descs = profile_.txDescsPerPacket(pkt.payload_bytes);
    if (txSpacePackets(pkt.payload_bytes) == 0)
        return Status(ErrorCode::kOverflow, "tx ring full");

    if (descs == 1 && pkt.payload_bytes <= profile_.inline_tx_threshold) {
        // Inline send: payload travels in the descriptor itself, no
        // target buffer, no mapping (ConnectX BlueFlame-style).
        const u32 idx = tx_ring_->push(
            Descriptor{0, pkt.payload_bytes,
                       Descriptor::kOwnedByDevice |
                           Descriptor::kEndOfPacket});
        TxMeta &meta = tx_meta_[idx];
        meta = TxMeta{};
        meta.eop = true;
        meta.pkt = pkt;
    } else {
        for (unsigned b = 0; b < descs; ++b) {
            const bool is_header = descs > 1 && b == 0;
            const bool last = b + 1 == descs;
            const PhysAddr pa =
                is_header ? header_pool_.pop() : data_pool_.pop();
            const u32 len = is_header ? profile_.header_buf_bytes
                                      : std::max(pkt.payload_bytes, 1u);
            auto m = handle_.map(kTxRid, pa, len, iommu::DmaDir::kToDevice);
            if (!m.isOk()) {
                (is_header ? header_pool_ : data_pool_).push(pa);
                return m.status();
            }
            const u32 idx = tx_ring_->push(Descriptor{
                m.value().device_addr, len,
                Descriptor::kOwnedByDevice |
                    (last ? Descriptor::kEndOfPacket : 0u)});
            TxMeta &meta = tx_meta_[idx];
            meta.mapping = m.value();
            meta.mapped = true;
            meta.is_header = is_header;
            meta.eop = last;
            meta.pkt = pkt;
        }
    }
    kickTx();
    return Status::ok();
}

void
Nic::kickTx()
{
    if (tx_kick_scheduled_ || tx_busy_)
        return;
    tx_kick_scheduled_ = true;
    // The doorbell MMIO happens after the cycles the driver has
    // charged so far — expensive (un)map work delays the device.
    const Nanos when =
        std::max(sim_.now(), core_.virtualNow()) + profile_.doorbell_ns;
    const u64 e = epoch_;
    sim_.scheduleAt(when, [this, e] {
        if (e != epoch_)
            return;
        tx_kick_scheduled_ = false;
        deviceTxPump();
    });
}

ring::Descriptor
Nic::deviceReadDesc(const dma::DmaMapping &ring_mapping,
                    const ring::DescriptorRing &ring, u32 idx, bool *fault)
{
    Descriptor desc;
    Status s = handle_.deviceRead(ring_mapping.device_addr +
                                      ring.offsetOf(idx),
                                  &desc, sizeof(desc));
    if (!s) {
        ++stats_.dma_faults;
        if (fault)
            *fault = true;
        return Descriptor{};
    }
    return desc;
}

void
Nic::deviceWriteDesc(const dma::DmaMapping &ring_mapping,
                     const ring::DescriptorRing &ring, u32 idx,
                     const ring::Descriptor &desc)
{
    Status s = handle_.deviceWrite(ring_mapping.device_addr +
                                       ring.offsetOf(idx),
                                   &desc, sizeof(desc));
    if (!s)
        ++stats_.dma_faults;
}

void
Nic::deviceTxPump()
{
    if (tx_busy_ || !up_)
        return;
    if (tx_ring_->pending() == 0) {
        if (tx_completed_since_irq_ > 0)
            raiseTxIrq();
        return;
    }

    // Gather the descriptors of the next packet (through the ring's
    // own translation, like real hardware fetching its ring). They
    // are consecutive from the head: the packet in flight is
    // [tx_first_, tx_first_ + tx_ndesc_) in ring order.
    tx_fault_ = false;
    tx_first_ = tx_ring_->head();
    tx_ndesc_ = 0;
    u32 idx = tx_first_;
    for (;;) {
        const Descriptor desc =
            deviceReadDesc(tx_ring_mapping_, *tx_ring_, idx, &tx_fault_);
        if (!desc.ownedByDevice() && !tx_fault_)
            return; // spurious kick; nothing posted yet
        ++tx_ndesc_;
        if (desc.endOfPacket() || tx_fault_ ||
            tx_ndesc_ >= profile_.tx_buffers_per_packet)
            break;
        idx = tx_ring_->next(idx);
    }
    const u32 last = idx;

    // Fetch the target buffers through translation.
    idx = tx_first_;
    for (u32 n = 0; n < tx_ndesc_; ++n, idx = tx_ring_->next(idx)) {
        const TxMeta &meta = tx_meta_[idx];
        if (!meta.mapped)
            continue;
        Status s = handle_.deviceRead(meta.mapping.device_addr,
                                      scratch_.data(), meta.mapping.size);
        if (!s) {
            ++stats_.dma_faults;
            tx_fault_ = true;
        }
    }

    tx_pkt_ = tx_meta_[last].pkt;
    tx_busy_ = true;
    const Nanos tx_ns = static_cast<Nanos>(
        net::wireTimeNs(tx_pkt_.payload_bytes, profile_.line_rate_gbps));
    const u64 e = epoch_;
    sim_.scheduleAfter(std::max<Nanos>(tx_ns, 1), [this, e] {
        if (e != epoch_)
            return; // NIC unplugged while the packet was in flight
        completeTx();
    });
}

void
Nic::completeTx()
{
    // Write back status through translation, retire the descriptors,
    // maybe coalesce an interrupt.
    u32 idx = tx_first_;
    for (u32 n = 0; n < tx_ndesc_; ++n, idx = tx_ring_->next(idx)) {
        Descriptor desc = tx_ring_->read(idx);
        desc.flags = (desc.flags & ~Descriptor::kOwnedByDevice) |
                     Descriptor::kCompleted;
        deviceWriteDesc(tx_ring_mapping_, *tx_ring_, idx, desc);
        tx_ring_->pop();
    }
    tx_completed_since_irq_ += tx_ndesc_;
    tx_completed_unclean_ += tx_ndesc_;
    const net::Packet pkt = tx_pkt_;
    ++stats_.tx_packets;
    stats_.tx_payload_bytes += pkt.payload_bytes;
    if (!tx_fault_ && wire_tx_cb_)
        wire_tx_cb_(pkt);
    tx_busy_ = false;
    if (tx_completed_since_irq_ >= profile_.tx_completion_batch) {
        raiseTxIrq();
    } else if (!tx_irq_timer_pending_) {
        // Interrupt moderation: signal a partial batch only after the
        // moderation delay.
        tx_irq_timer_pending_ = true;
        const u64 te = epoch_;
        sim_.scheduleAfter(profile_.tx_irq_delay_ns, [this, te] {
            if (te != epoch_)
                return;
            tx_irq_timer_pending_ = false;
            if (tx_completed_since_irq_ > 0)
                raiseTxIrq();
        });
    }
    deviceTxPump();
}

void
Nic::raiseTxIrq()
{
    tx_completed_since_irq_ = 0;
    if (tx_irq_pending_)
        return;
    tx_irq_pending_ = true;
    ++stats_.tx_irqs;
    const u64 e = epoch_;
    core_.post([this, e] {
        if (e != epoch_)
            return;
        txIrqHandler();
    });
}

void
Nic::txIrqHandler()
{
    tx_irq_pending_ = false;
    if (!up_)
        return;
    // The completion burst is the next tx_completed_unclean_ slots
    // from tx_clean_idx_. Clear them, then unmap them back-to-front-
    // aware: only the last unmap of the burst carries end_of_burst (§4).
    const u32 burst = tx_completed_unclean_;
    if (burst == 0)
        return;
    const u32 first = tx_clean_idx_;
    u32 mapped_left = 0;
    for (u32 n = 0; n < burst; ++n) {
        // Head-write-back style cleanup: descriptors retire strictly
        // in ring order and the IRQ accounting counts exactly the
        // retired ones, so the counter identifies the burst even when
        // a faulted DMA write dropped a descriptor's in-memory
        // completion bit.
        mapped_left += tx_meta_[tx_clean_idx_].mapped ? 1 : 0;
        tx_ring_->write(tx_clean_idx_, Descriptor{});
        tx_clean_idx_ = tx_ring_->next(tx_clean_idx_);
    }
    tx_completed_unclean_ = 0;

    if (mapped_left > 0) {
        ++stats_.unmap_bursts;
        stats_.unmap_burst_len_sum += mapped_left;
    }
    u32 i = first;
    for (u32 n = 0; n < burst; ++n, i = tx_ring_->next(i)) {
        TxMeta &meta = tx_meta_[i];
        if (!meta.mapped)
            continue;
        --mapped_left;
        Status s = handle_.unmap(meta.mapping,
                                 /*end_of_burst=*/mapped_left == 0);
        RIO_ASSERT(s.isOk(), "tx unmap failed: ", s.toString());
        (meta.is_header ? header_pool_ : data_pool_)
            .push(meta.mapping.pa);
        meta.mapped = false;
    }
    if (tx_space_cb_)
        tx_space_cb_();
}

void
Nic::packetFromWire(const net::Packet &pkt)
{
    if (!up_) {
        ++stats_.rx_dropped;
        return;
    }
    // RSS: a flow always hashes to the same Rx ring (a single
    // netperf connection exercises one ring; 32 ApacheBench
    // connections spread out). Starved rings overflow to neighbours.
    RxRingState *rr = nullptr;
    unsigned ring = static_cast<unsigned>(pkt.flow) % rx_rings_.size();
    for (unsigned probe = 0; probe < rx_rings_.size(); ++probe) {
        RxRingState &cand = rx_rings_[(ring + probe) % rx_rings_.size()];
        if (cand.ring->pending() > 0) {
            rr = &cand;
            break;
        }
    }
    if (!rr) {
        ++stats_.rx_dropped;
        return;
    }

    bool fault = false;
    const u32 idx = rr->ring->head();
    Descriptor desc =
        deviceReadDesc(rr->ring_mapping, *rr->ring, idx, &fault);
    if (!fault && pkt.payload_bytes > 0) {
        const u32 len = std::min(pkt.payload_bytes, desc.len);
        Status s = handle_.deviceWrite(desc.addr, scratch_.data(), len);
        if (!s) {
            ++stats_.dma_faults;
            fault = true;
        }
    }
    if (fault) {
        ++stats_.rx_dropped;
        return;
    }
    desc.flags = (desc.flags & ~Descriptor::kOwnedByDevice) |
                 Descriptor::kCompleted;
    deviceWriteDesc(rr->ring_mapping, *rr->ring, idx, desc);
    rr->ring->pop();
    ++rr->completed;
    rr->inflight.push(pkt);
    ++stats_.rx_packets;
    stats_.rx_payload_bytes += pkt.payload_bytes;
    scheduleRxIrq();
}

void
Nic::scheduleRxIrq()
{
    if (rx_irq_scheduled_)
        return;
    rx_irq_scheduled_ = true;
    const u64 e = epoch_;
    sim_.scheduleAfter(profile_.rx_irq_delay_ns, [this, e] {
        if (e != epoch_)
            return;
        rx_irq_scheduled_ = false;
        ++stats_.rx_irqs;
        core_.post([this, e] {
            if (e != epoch_)
                return;
            rxIrqHandler();
        });
    });
}

void
Nic::rxIrqHandler()
{
    if (!up_)
        return;
    for (unsigned r = 0; r < rx_rings_.size(); ++r) {
        RxRingState &rr = rx_rings_[r];
        const u32 burst = rr.completed;
        if (burst == 0)
            continue;
        rr.completed = 0;
        ++stats_.unmap_bursts;
        stats_.unmap_burst_len_sum += burst;
        for (u32 n = 0; n < burst; ++n) {
            const u32 idx = rr.clean_idx;
            // Unmap first; only then is the buffer safe to hand to
            // the stack (Figure 6), and only the burst's last unmap
            // invalidates the ring's rIOTLB entry.
            Status s = handle_.unmap(rr.meta[idx],
                                     /*end_of_burst=*/n + 1 == burst);
            RIO_ASSERT(s.isOk(), "rx unmap failed: ", s.toString());
            // Replenish the slot with a freshly mapped buffer.
            auto m = handle_.map(rxRid(r), rr.buf_pa[idx],
                                 profile_.data_buf_bytes,
                                 iommu::DmaDir::kFromDevice);
            RIO_ASSERT(m.isOk(), "rx remap failed: ",
                       m.status().toString());
            rr.meta[idx] = m.value();
            rr.ring->push(Descriptor{m.value().device_addr,
                                     profile_.data_buf_bytes,
                                     Descriptor::kOwnedByDevice});
            rr.clean_idx = rr.ring->next(rr.clean_idx);

            RIO_ASSERT(!rr.inflight.empty(), "rx bookkeeping mismatch");
            const net::Packet pkt = rr.inflight.pop();
            if (rx_cb_)
                rx_cb_(pkt);
        }
    }
}

} // namespace rio::nic
