#include "nvme/nvme.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"

namespace rio::nvme {

NvmeDevice::NvmeDevice(des::Simulator &sim, des::Core &core,
                       mem::PhysicalMemory &pm, dma::DmaHandle &handle,
                       NvmeProfile profile)
    : sim_(sim), core_(core), pm_(pm), handle_(handle), profile_(profile),
      scratch_(profile.block_bytes, 0)
{
    RIO_ASSERT(profile_.queue_entries >= 2 &&
                   profile_.queue_entries <= 65536,
               "NVMe queues hold up to 64K commands");
}

NvmeDevice::~NvmeDevice() = default;

void
NvmeDevice::bringUp()
{
    RIO_ASSERT(!up_, "bringUp twice");
    up_ = true;
    ++epoch_;
    const u64 sq_bytes =
        static_cast<u64>(profile_.queue_entries) * sizeof(Command);
    const u64 cq_bytes =
        static_cast<u64>(profile_.queue_entries) * sizeof(Completion);
    if (!queues_carved_) {
        sq_base_ = pm_.allocContiguous(sq_bytes);
        cq_base_ = pm_.allocContiguous(cq_bytes);
        queues_carved_ = true;
    }

    auto sm = handle_.map(kStaticRid, sq_base_, static_cast<u32>(sq_bytes),
                          iommu::DmaDir::kBidir);
    RIO_ASSERT(sm.isOk(), "SQ map failed");
    sq_mapping_ = sm.value();
    auto cm = handle_.map(kStaticRid, cq_base_, static_cast<u32>(cq_bytes),
                          iommu::DmaDir::kBidir);
    RIO_ASSERT(cm.isOk(), "CQ map failed");
    cq_mapping_ = cm.value();

    slots_.assign(profile_.queue_entries, Slot{});
}

void
NvmeDevice::shutDown()
{
    RIO_ASSERT(up_, "shutDown while down");
    up_ = false;
    ++epoch_; // cancel in-flight device events
    device_busy_ = false;
    kick_scheduled_ = false;
    irq_pending_ = false;
    irq_timer_ = false;
    teardownMappings();
}

void
NvmeDevice::teardownMappings()
{
    u32 idx = sq_head_;
    for (u32 n = 0; n < profile_.queue_entries; ++n) {
        if (slots_[idx].busy) {
            (void)handle_.unmap(slots_[idx].mapping, true);
            slots_[idx].busy = false;
        }
        idx = (idx + 1) % profile_.queue_entries;
    }
    (void)handle_.unmap(sq_mapping_, true);
    (void)handle_.unmap(cq_mapping_, true);
    cid_to_slot_.clear();
    sq_tail_ = 0;
    sq_head_ = 0;
    sq_inflight_ = 0;
    cq_tail_ = 0;
    cq_head_ = 0;
    completions_since_irq_ = 0;
}

void
NvmeDevice::surpriseUnplug()
{
    RIO_ASSERT(up_, "surpriseUnplug while down");
    up_ = false;
    ++epoch_; // every scheduled device event dies on the epoch check
    device_busy_ = false;
    kick_scheduled_ = false;
    irq_pending_ = false;
    irq_timer_ = false;
    completions_since_irq_ = 0;
}

void
NvmeDevice::removeCleanup()
{
    RIO_ASSERT(!up_, "removeCleanup on a live device");
    teardownMappings();
}

void
NvmeDevice::replug()
{
    RIO_ASSERT(!up_, "replug while up");
    bringUp();
}

u32
NvmeDevice::submitSpace() const
{
    return profile_.queue_entries - 1 - sq_inflight_;
}

Result<u32>
NvmeDevice::submit(Opcode op, u64 slba, u32 nlb, PhysAddr data_pa)
{
    RIO_ASSERT(up_, "submit on a down device");
    if (submitSpace() == 0)
        return Status(ErrorCode::kOverflow, "submission queue full");
    if (nlb == 0 || nlb > 2)
        return Status(ErrorCode::kInvalidArgument,
                      "this model moves 1..2 blocks per command (PRP1 "
                      "only)");

    const u32 bytes = nlb * profile_.block_bytes;
    const iommu::DmaDir dir = op == Opcode::kRead
                                  ? iommu::DmaDir::kFromDevice
                                  : iommu::DmaDir::kToDevice;
    auto m = handle_.map(kDataRid, data_pa, bytes, dir);
    if (!m.isOk())
        return m.status();

    const u32 idx = sq_tail_;
    Slot &slot = slots_[idx];
    RIO_ASSERT(!slot.busy, "SQ slot still busy");
    slot = Slot{true, m.value(), op, slba, nlb};

    Command cmd;
    cmd.opcode = static_cast<u8>(op);
    cmd.cid = next_cid_++;
    cmd.prp1 = m.value().device_addr;
    cmd.slba = slba;
    cmd.nlb = nlb;
    pm_.writeObject(sq_base_ + idx * sizeof(Command), cmd);
    cid_to_slot_[cmd.cid] = idx;

    sq_tail_ = (sq_tail_ + 1) % profile_.queue_entries;
    ++sq_inflight_;
    kick();
    return cmd.cid;
}

void
NvmeDevice::kick()
{
    if (kick_scheduled_ || device_busy_)
        return;
    kick_scheduled_ = true;
    const Nanos when =
        std::max(sim_.now(), core_.virtualNow()) + profile_.doorbell_ns;
    const u64 e = epoch_;
    sim_.scheduleAt(when, [this, e] {
        if (e != epoch_)
            return;
        kick_scheduled_ = false;
        devicePump();
    });
}

void
NvmeDevice::devicePump()
{
    if (device_busy_ || !up_ || sq_head_ == sq_tail_)
        return;
    device_busy_ = true;
    deviceExecute(sq_head_);
}

void
NvmeDevice::deviceExecute(u32 sq_idx)
{
    // Fetch the command through translation, as the controller does.
    Command cmd;
    Status s = handle_.deviceRead(sq_mapping_.device_addr +
                                      sq_idx * sizeof(Command),
                                  &cmd, sizeof(cmd));
    bool fault = false;
    if (!s) {
        ++dma_faults_;
        fault = true;
    }

    const u32 bytes = cmd.nlb * profile_.block_bytes;
    const Nanos xfer_ns = static_cast<Nanos>(
        static_cast<double>(bytes) * 8 / profile_.bandwidth_gbps);
    const Nanos done_at =
        sim_.now() + profile_.access_latency_ns + xfer_ns;

    const u64 e = epoch_;
    sim_.scheduleAt(done_at, [this, cmd, sq_idx, fault, e]() mutable {
        if (e != epoch_)
            return; // device unplugged while the command was in flight
        bool bad = fault;
        if (!bad && cmd.opcode == static_cast<u8>(Opcode::kWrite)) {
            // Pull the data from memory into flash.
            for (u32 b = 0; b < cmd.nlb && !bad; ++b) {
                Status ds = handle_.deviceRead(
                    cmd.prp1 + b * profile_.block_bytes, scratch_.data(),
                    profile_.block_bytes);
                if (!ds) {
                    ++dma_faults_;
                    bad = true;
                    break;
                }
                flash_[cmd.slba + b] = scratch_;
                media_bytes_ += profile_.block_bytes;
            }
        } else if (!bad && cmd.opcode == static_cast<u8>(Opcode::kRead)) {
            for (u32 b = 0; b < cmd.nlb && !bad; ++b) {
                auto it = flash_.find(cmd.slba + b);
                if (it != flash_.end()) {
                    scratch_ = it->second;
                } else {
                    std::fill(scratch_.begin(), scratch_.end(), 0);
                }
                Status ds = handle_.deviceWrite(
                    cmd.prp1 + b * profile_.block_bytes, scratch_.data(),
                    profile_.block_bytes);
                if (!ds) {
                    ++dma_faults_;
                    bad = true;
                    break;
                }
                media_bytes_ += profile_.block_bytes;
            }
        }

        // Completion writeback through translation.
        Completion cqe;
        cqe.cid = cmd.cid;
        cqe.status = bad ? 1 : 0;
        cqe.phase = 1;
        Status cs = handle_.deviceWrite(cq_mapping_.device_addr +
                                            cq_tail_ * sizeof(Completion),
                                        &cqe, sizeof(cqe));
        if (!cs)
            ++dma_faults_;
        cq_tail_ = (cq_tail_ + 1) % profile_.queue_entries;
        sq_head_ = (sq_head_ + 1) % profile_.queue_entries;
        ++completions_since_irq_;
        (void)sq_idx;

        if (completions_since_irq_ >= profile_.irq_batch) {
            raiseIrq();
        } else if (!irq_timer_) {
            irq_timer_ = true;
            const u64 te = epoch_;
            sim_.scheduleAfter(profile_.irq_delay_ns, [this, te] {
                if (te != epoch_)
                    return;
                irq_timer_ = false;
                if (completions_since_irq_ > 0)
                    raiseIrq();
            });
        }
        device_busy_ = false;
        devicePump();
    });
}

void
NvmeDevice::raiseIrq()
{
    completions_since_irq_ = 0;
    if (irq_pending_)
        return;
    irq_pending_ = true;
    const u64 e = epoch_;
    core_.post([this, e] {
        if (e != epoch_)
            return;
        irqHandler();
    });
}

void
NvmeDevice::irqHandler()
{
    irq_pending_ = false;
    if (!up_)
        return;
    // Reap completions in CQ order; strict FIFO per the NVMe model,
    // so the unmap order matches the map order (ring semantics).
    std::vector<std::pair<u32, Status>> done;
    while (cq_head_ != cq_tail_) {
        const Completion cqe = pm_.readObject<Completion>(
            cq_base_ + cq_head_ * sizeof(Completion));
        cq_head_ = (cq_head_ + 1) % profile_.queue_entries;
        auto it = cid_to_slot_.find(cqe.cid);
        RIO_ASSERT(it != cid_to_slot_.end(), "unknown cid completed");
        Slot &slot = slots_[it->second];
        done.emplace_back(cqe.cid,
                          cqe.status == 0
                              ? Status::ok()
                              : Status(ErrorCode::kIoPageFault,
                                       "device reported DMA error"));
        cid_to_slot_.erase(it);
        slot.busy = false;
        --sq_inflight_;
        ++completed_;
        // Keep the mapping to unmap in burst order below.
        const bool last = cq_head_ == cq_tail_;
        Status us = handle_.unmap(slot.mapping, /*end_of_burst=*/last);
        RIO_ASSERT(us.isOk(), "nvme unmap failed: ", us.toString());
    }
    for (auto &[cid, status] : done) {
        if (completion_cb_)
            completion_cb_(cid, status);
    }
}

std::vector<u8>
NvmeDevice::flashRead(u64 slba, u32 nlb) const
{
    std::vector<u8> out;
    for (u32 b = 0; b < nlb; ++b) {
        auto it = flash_.find(slba + b);
        if (it != flash_.end())
            out.insert(out.end(), it->second.begin(), it->second.end());
        else
            out.insert(out.end(), profile_.block_bytes, 0);
    }
    return out;
}

void
NvmeDevice::flashWrite(u64 slba, const std::vector<u8> &data)
{
    RIO_ASSERT(data.size() % profile_.block_bytes == 0,
               "flashWrite must be block aligned");
    for (u64 b = 0; b * profile_.block_bytes < data.size(); ++b) {
        std::vector<u8> block(
            data.begin() + static_cast<long>(b * profile_.block_bytes),
            data.begin() +
                static_cast<long>((b + 1) * profile_.block_bytes));
        flash_[slba + b] = std::move(block);
    }
}

} // namespace rio::nvme
