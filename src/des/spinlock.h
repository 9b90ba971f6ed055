/**
 * @file
 * SimSpinlock: a deterministic queued-spinlock model for the
 * multi-core topology. The DES executes one core's work item at a
 * time, so real mutual exclusion is never needed; what the lock
 * models is the *time* a core burns spinning while another core's
 * critical section (in overlapping virtual time) holds the lock.
 *
 * The lock keeps the virtual timestamp at which its last critical
 * section ends. An acquirer whose core-local virtual time is earlier
 * than that spins for the difference: the wait is charged to the
 * acquiring core's CycleAccount under Cat::kLockWait, which (via
 * Core::virtualNow) advances the core to exactly the grant time —
 * ticket-lock semantics in simulated time, bit-reproducible across
 * runs because grant order is the deterministic DES execution order.
 *
 * This is the §3.2 scalability pathology of the baseline modes: the
 * Linux IOVA allocator and the invalidation-queue tail register are
 * globally locked, so map/unmap serializes across cores, while the
 * rIOMMU's per-ring state needs no lock at all.
 */
#ifndef RIO_DES_SPINLOCK_H
#define RIO_DES_SPINLOCK_H

#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "des/core.h"

namespace rio::des {

/** Deterministic virtual-time spinlock shared by simulated cores. */
class SimSpinlock
{
  public:
    /** Cumulative contention counters. */
    struct Stats
    {
        u64 acquisitions = 0;  //!< total acquire() calls
        u64 contended = 0;     //!< acquisitions that had to spin
        Cycles wait_cycles = 0; //!< total cycles spent spinning
    };

    SimSpinlock(const cycles::CostModel &cost, const char *name)
        : cost_(cost), name_(name)
    {
    }

    SimSpinlock(const SimSpinlock &) = delete;
    SimSpinlock &operator=(const SimSpinlock &) = delete;

    /**
     * Acquire at @p core's current virtual time. If the lock's last
     * critical section ends later, the spin-wait is charged to
     * @p acct (Cat::kLockWait) — advancing the core's virtual "now"
     * to the grant time. A null @p core (purely functional use, no
     * simulated time) acquires instantly. Returns the cycles waited.
     */
    Cycles acquire(Core *core, cycles::CycleAccount *acct);

    /** Release at @p core's current virtual time. A kLockRelease
     * event is recorded only when the matching acquire() waited. */
    void release(Core *core);

    const Stats &stats() const { return stats_; }
    const char *name() const { return name_; }

    /** Virtual time at which the lock next becomes free. */
    Nanos freeAt() const { return free_at_; }

  private:
    const cycles::CostModel &cost_;
    const char *name_;
    bool held_ = false;
    bool waited_ = false; //!< this scope's acquire() spun
    Nanos free_at_ = 0;
    Stats stats_;
};

/** RAII guard; a null lock or core degrades to a no-op / free pass. */
class SpinGuard
{
  public:
    SpinGuard(SimSpinlock *lock, Core *core, cycles::CycleAccount *acct)
        : lock_(lock), core_(core)
    {
        if (lock_)
            lock_->acquire(core_, acct);
    }
    ~SpinGuard()
    {
        if (lock_)
            lock_->release(core_);
    }

    SpinGuard(const SpinGuard &) = delete;
    SpinGuard &operator=(const SpinGuard &) = delete;

  private:
    SimSpinlock *lock_;
    Core *core_;
};

} // namespace rio::des

#endif // RIO_DES_SPINLOCK_H
