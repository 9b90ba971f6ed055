#include "iommu/inval_queue.h"

#include "base/logging.h"
#include "iommu/virt_hooks.h"

namespace rio::iommu {

namespace {

constexpr u64 kDescBytes = 16;

/** Issue-side half of the QI timeline span on @p core's track (the
 * span id is a lane-confined counter of the core). */
obs::Event
qiIssueEvent(des::Core &core, u16 bdf)
{
    obs::Event e;
    e.kind = obs::Ev::kQiIssue;
    e.bdf = bdf;
    e.id = core.nextSpanId();
    e.t = core.virtualNow();
    return e;
}

/** Completion (or timeout) half, @p c cycles after the issue. */
obs::Event
qiEndEvent(const obs::Event &issue, Cycles c, double core_ghz, bool ok)
{
    obs::Event e = issue;
    e.kind = ok ? obs::Ev::kQiComplete : obs::Ev::kQiTimeout;
    e.t = issue.t + static_cast<Nanos>(static_cast<double>(c) / core_ghz);
    e.dur_ns = e.t - issue.t;
    e.arg = c;
    return e;
}

} // namespace

QiDescriptor
QiDescriptor::entry(u16 sid, u64 iova_pfn)
{
    QiDescriptor d;
    d.word0 = static_cast<u64>(Type::kIotlbEntry) |
              (static_cast<u64>(sid) << 8);
    d.word1 = iova_pfn;
    return d;
}

QiDescriptor
QiDescriptor::global()
{
    QiDescriptor d;
    d.word0 = static_cast<u64>(Type::kIotlbGlobal);
    return d;
}

QiDescriptor
QiDescriptor::wait(PhysAddr status_addr)
{
    QiDescriptor d;
    d.word0 = static_cast<u64>(Type::kWait);
    d.word1 = status_addr;
    return d;
}

InvalQueue::InvalQueue(mem::PhysicalMemory &pm, Iommu &iommu,
                       const cycles::CostModel &cost, u32 entries)
    : pm_(pm), iommu_(iommu), cost_(cost), entries_(entries)
{
    RIO_ASSERT(entries_ >= 4, "QI ring too small");
    base_ = pm_.allocContiguous(static_cast<u64>(entries_) * kDescBytes);
    status_addr_ = pm_.allocFrame();
}

InvalQueue::~InvalQueue()
{
    for (u64 off = 0;
         off < pageAlignUp(static_cast<u64>(entries_) * kDescBytes);
         off += kPageSize) {
        pm_.freeFrame(base_ + off);
    }
    pm_.freeFrame(status_addr_);
}

QiDescriptor
InvalQueue::descriptorAt(u32 idx) const
{
    RIO_ASSERT(idx < entries_, "QI index out of range");
    QiDescriptor d;
    d.word0 = pm_.read64(base_ + idx * kDescBytes);
    d.word1 = pm_.read64(base_ + idx * kDescBytes + 8);
    return d;
}

Cycles
InvalQueue::submit(const QiDescriptor &desc)
{
    pm_.write64(base_ + tail_ * kDescBytes, desc.word0);
    pm_.write64(base_ + tail_ * kDescBytes + 8, desc.word1);
    tail_ = (tail_ + 1) % entries_;
    if (tail_ == 0)
        ++stats_.wraps;
    ++stats_.submitted;
    return cost_.qi_submit;
}

Cycles
InvalQueue::hardwareDrain()
{
    Cycles hw = 0;
    while (head_ != tail_ && !queue_error_) {
        const QiDescriptor desc = descriptorAt(head_);
        // An entry invalidation needs the target device's ack (ATS
        // semantics); a vanished device never answers, so the queue
        // freezes *at* the descriptor — it stays at the head for
        // abortAndSkip to step over. Global flushes and waits are
        // IOMMU-internal and never stall.
        if (desc.type() == QiDescriptor::Type::kIotlbEntry &&
            unresponsive_sids_.count(desc.sid())) {
            queue_error_ = true;
            break;
        }
        head_ = (head_ + 1) % entries_;
        hw += cost_.qi_hw_per_descriptor;
        switch (desc.type()) {
          case QiDescriptor::Type::kIotlbEntry:
            iommu_.iotlb().invalidateEntry(desc.sid(), desc.word1);
            break;
          case QiDescriptor::Type::kIotlbGlobal:
            iommu_.iotlb().flushAll();
            ++stats_.global_flushes;
            break;
          case QiDescriptor::Type::kWait:
            pm_.write64(desc.word1, ++status_cookie_);
            ++stats_.waits;
            break;
        }
    }
    return hw;
}

Status
InvalQueue::invalidateEntrySync(Bdf bdf, u64 iova_pfn,
                                cycles::CycleAccount *acct)
{
    return syncOp(QiDescriptor::entry(bdf.pack(), iova_pfn), bdf.pack(),
                  acct, cycles::Cat::kUnmapIotlbInv, /*count_op=*/true);
}

Status
InvalQueue::flushAllSync(cycles::CycleAccount *acct, cycles::Cat cat)
{
    return syncOp(QiDescriptor::global(), 0, acct, cat, /*count_op=*/false);
}

Status
InvalQueue::syncOp(const QiDescriptor &desc, u16 bdf,
                   cycles::CycleAccount *acct, cycles::Cat cat,
                   bool count_op)
{
    des::SpinGuard lock(lock_, lock_core_, acct);
    // Events go to the core's recorder; a queue with no core (a bare
    // context) records none.
    obs::Event issue;
    if (lock_core_) {
        issue = qiIssueEvent(*lock_core_, bdf);
        lock_core_->emit(issue);
    }
    Cycles c = submit(desc);
    c += submit(QiDescriptor::wait(status_addr_));
    c += cost_.qi_doorbell;
    if (traps_)
        traps_->onQiDoorbell(acct);
    c += hardwareDrain();
    if (queue_error_ || head_ != tail_) {
        // Bounded spin: the wait never landed. Give up instead of
        // spinning forever in virtual time.
        c += cost_.qi_timeout_spin;
        ++stats_.timeouts;
        if (lock_core_) {
            lock_core_->emit(qiEndEvent(issue, c, cost_.core_ghz, false));
            lock_core_->dump("qi_timeout");
        }
        if (acct)
            acct->charge(cycles::Cat::kLifecycle, c);
        return Status(ErrorCode::kTimedOut,
                      "QI wait descriptor timed out (ITE)");
    }
    // Spin on the status word the hardware writes back.
    c += cost_.qi_wait_latency;
    RIO_ASSERT(pm_.read64(status_addr_) == status_cookie_,
               "QI wait did not complete");
    c += 2 * cost_.cached_access;
    stats_.sync_cycles.observe(c);
    if (lock_core_)
        lock_core_->emit(qiEndEvent(issue, c, cost_.core_ghz, true));
    if (acct) {
        if (count_op)
            acct->charge(cat, c);
        else
            acct->chargeCont(cat, c);
    }
    return Status::ok();
}

void
InvalQueue::setDeviceResponsive(u16 sid, bool responsive)
{
    if (responsive)
        unresponsive_sids_.erase(sid);
    else
        unresponsive_sids_.insert(sid);
}

Status
InvalQueue::recoverRetry(cycles::CycleAccount *acct)
{
    des::SpinGuard lock(lock_, lock_core_, acct);
    Cycles c = cost_.lifecycle_backoff;
    ++stats_.retries;
    if (queue_error_) {
        queue_error_ = false;
        c += cost_.qi_doorbell;
        if (traps_)
            traps_->onQiDoorbell(acct);
        c += hardwareDrain(); // re-freezes if the device is still dead
    }
    const bool drained = !queue_error_ && head_ == tail_;
    if (acct)
        acct->charge(cycles::Cat::kLifecycle, c);
    if (!drained)
        return Status(ErrorCode::kTimedOut,
                      "QI retry timed out again (device unresponsive)");
    return Status::ok();
}

Status
InvalQueue::abortAndSkip(cycles::CycleAccount *acct)
{
    des::SpinGuard lock(lock_, lock_core_, acct);
    Cycles c = cost_.lifecycle_abort_recovery;
    if (queue_error_) {
        // The dead descriptor is still at the head; step over it.
        // Its invalidation never executed — the caller must purge
        // the IOTLB in software for that device.
        RIO_ASSERT(head_ != tail_, "queue error with empty queue");
        head_ = (head_ + 1) % entries_;
        ++stats_.head_skips;
        queue_error_ = false;
        // Restarting the queue re-rings the doorbell.
        if (traps_)
            traps_->onQiDoorbell(acct);
        c += hardwareDrain(); // may re-freeze on the next dead entry
    }
    const bool drained = !queue_error_ && head_ == tail_;
    if (acct)
        acct->charge(cycles::Cat::kLifecycle, c);
    if (!drained)
        return Status(ErrorCode::kTimedOut,
                      "QI still frozen after head skip");
    return Status::ok();
}

} // namespace rio::iommu
