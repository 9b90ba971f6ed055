#include "ahci/ahci.h"

#include <algorithm>

#include "base/logging.h"

namespace rio::ahci {

AhciDevice::AhciDevice(des::Simulator &sim, des::Core &core,
                       mem::PhysicalMemory &pm, dma::DmaHandle &handle,
                       AhciProfile profile, u64 seed)
    : sim_(sim), core_(core), pm_(pm), handle_(handle), profile_(profile),
      rng_(seed), scratch_(profile.sector_bytes, 0)
{
}

u32
AhciDevice::freeSlots() const
{
    u32 n = 0;
    for (const Slot &slot : slots_)
        n += slot.busy ? 0 : 1;
    return n;
}

Result<u32>
AhciDevice::issue(bool is_write, u64 lba, u32 nsectors, PhysAddr data_pa)
{
    u32 idx = kSlots;
    for (u32 i = 0; i < kSlots; ++i) {
        if (!slots_[i].busy) {
            idx = i;
            break;
        }
    }
    if (!up_)
        return Status(ErrorCode::kDetached, "issue on an unplugged drive");
    if (idx == kSlots)
        return Status(ErrorCode::kOverflow, "all 32 NCQ slots busy");
    if (nsectors == 0)
        return Status(ErrorCode::kInvalidArgument, "empty transfer");

    auto m = handle_.map(0, data_pa, nsectors * profile_.sector_bytes,
                         is_write ? iommu::DmaDir::kToDevice
                                  : iommu::DmaDir::kFromDevice);
    if (!m.isOk())
        return m.status();

    slots_[idx] = Slot{true, is_write, lba, nsectors, m.value()};
    const Nanos when =
        std::max(sim_.now(), core_.virtualNow()) + profile_.doorbell_ns;
    const u64 e = epoch_;
    sim_.scheduleAt(when, [this, idx, e] {
        if (e != epoch_)
            return;
        deviceStart(idx);
    });
    return idx;
}

void
AhciDevice::deviceStart(u32 slot_idx)
{
    // The media and the SATA link serve one command at a time; NCQ
    // only reorders which queued command goes next.
    pending_.push_back(slot_idx);
    serviceNext();
}

void
AhciDevice::serviceNext()
{
    if (media_busy_ || pending_.empty())
        return;
    media_busy_ = true;
    // NCQ reordering: prefer the command that continues the current
    // head position (what real NCQ scheduling buys), else pick any.
    size_t pick = rng_.below(pending_.size());
    for (size_t i = 0; i < pending_.size(); ++i) {
        if (slots_[pending_[i]].lba == last_lba_end_) {
            pick = i;
            break;
        }
    }
    const u32 slot_idx = pending_[pick];
    pending_.erase(pending_.begin() + static_cast<long>(pick));

    const Slot &slot = slots_[slot_idx];
    const bool sequential = slot.lba == last_lba_end_;
    last_lba_end_ = slot.lba + slot.nsectors;

    Nanos service = sequential ? profile_.sequential_ns : profile_.seek_ns;
    service += static_cast<Nanos>(
        static_cast<double>(slot.nsectors * profile_.sector_bytes) * 8 /
        profile_.bandwidth_gbps);

    const u64 e = epoch_;
    sim_.scheduleAfter(service, [this, slot_idx, e] {
        if (e != epoch_)
            return; // drive unplugged while the command was in flight
        // Data phase through translation.
        Slot &slot = slots_[slot_idx];
        bool bad = false;
        for (u32 s = 0; s < slot.nsectors && !bad; ++s) {
            Status ds;
            const u64 addr = slot.mapping.device_addr +
                             static_cast<u64>(s) * profile_.sector_bytes;
            if (slot.is_write) {
                ds = handle_.deviceRead(addr, scratch_.data(),
                                        profile_.sector_bytes);
            } else {
                ds = handle_.deviceWrite(addr, scratch_.data(),
                                         profile_.sector_bytes);
            }
            bad = !ds.isOk();
        }
        if (!bad)
            bytes_moved_ += slot.nsectors * profile_.sector_bytes;
        media_busy_ = false;
        serviceNext();
        sim_.scheduleAfter(profile_.irq_ns, [this, slot_idx, bad, e] {
            if (e != epoch_)
                return;
            core_.post([this, slot_idx, bad, e] {
                if (e != epoch_)
                    return;
                complete(slot_idx);
                if (completion_cb_) {
                    completion_cb_(slot_idx,
                                   bad ? Status(ErrorCode::kIoPageFault,
                                                "DMA error")
                                       : Status::ok());
                }
            });
        });
    });
}

void
AhciDevice::complete(u32 slot_idx)
{
    Slot &slot = slots_[slot_idx];
    RIO_ASSERT(slot.busy, "completing an idle slot");
    // SATA-style: one unmap per completion; no burst structure to
    // exploit (the queue completes out of order).
    Status s = handle_.unmap(slot.mapping, /*end_of_burst=*/true);
    RIO_ASSERT(s.isOk(), "ahci unmap failed: ", s.toString());
    slot.busy = false;
    ++completed_;
}

void
AhciDevice::surpriseUnplug()
{
    RIO_ASSERT(up_, "surpriseUnplug while down");
    up_ = false;
    ++epoch_; // every scheduled device event dies on the epoch check
    pending_.clear();
    media_busy_ = false;
}

void
AhciDevice::removeCleanup()
{
    RIO_ASSERT(!up_, "removeCleanup on a live drive");
    for (Slot &slot : slots_) {
        if (!slot.busy)
            continue;
        (void)handle_.unmap(slot.mapping, /*end_of_burst=*/true);
        slot.busy = false;
        }
}

void
AhciDevice::replug()
{
    RIO_ASSERT(!up_, "replug while up");
    up_ = true;
}

} // namespace rio::ahci
