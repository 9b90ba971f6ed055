/**
 * @file
 * A simulated CPU core: a serial execution resource whose busy time
 * is derived from the cycles charged to its CycleAccount. This is the
 * heart of the paper's methodology (§3.3): end-to-end performance is
 * determined by how many cycles the *core* spends per packet, so the
 * simulation advances core time by exactly the charged cycles.
 */
#ifndef RIO_DES_CORE_H
#define RIO_DES_CORE_H

#include "base/fifo.h"
#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "des/simulator.h"

namespace rio::des {

/**
 * Serial core. Work items are closures; a closure's duration is the
 * delta of the core's CycleAccount across its execution, converted at
 * the configured clock. Items queue FIFO when the core is busy
 * (interrupt handlers behind application work, etc.).
 */
class Core
{
  public:
    Core(Simulator &sim, const cycles::CostModel &cost)
        : sim_(sim), cost_(cost)
    {
    }

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    cycles::CycleAccount &acct() { return acct_; }
    const cycles::CycleAccount &acct() const { return acct_; }
    const cycles::CostModel &cost() const { return cost_; }

    /**
     * Enqueue @p fn to run on the core as soon as it is free. The
     * cycles @p fn charges extend the core's busy time.
     */
    void post(EventFn fn);

    /** Total cycles the core has been busy. */
    Cycles busyCycles() const { return busy_cycles_; }

    /**
     * The moment "now" from the executing work item's perspective:
     * its start time plus the cycles it has charged so far. Actions a
     * handler triggers mid-execution (a doorbell write, say) should
     * be timestamped with this, so that expensive driver work really
     * delays the device — essential for the latency results.
     */
    Nanos
    virtualNow() const
    {
        if (!in_item_)
            return sim_.now();
        const Cycles charged = acct_.total() - item_start_cycles_;
        return item_start_time_ +
               static_cast<Nanos>(static_cast<double>(charged) /
                                  cost_.core_ghz);
    }

    /** Earliest time the core is free again. */
    Nanos freeAt() const { return free_at_; }

    /** Work items executed. */
    u64 itemsRun() const { return items_run_; }

    /**
     * Timeline track of this core: (machine ordinal, core ordinal),
     * assigned by sys::Machine via obs::Timeline::allocPid(). Purely
     * observability — never read by simulation logic.
     */
    void
    setObsTrack(u16 pid, u16 tid)
    {
        obs_pid_ = pid;
        obs_tid_ = tid;
    }

    u16 obsPid() const { return obs_pid_; }
    u16 obsTid() const { return obs_tid_; }

    /**
     * Deterministic id for pairing async timeline spans (QI
     * issue→complete) emitted from this core's context: the track
     * identity in the high bits plus a core-confined counter. A core
     * lives on exactly one event lane, so unlike a shared atomic the
     * sequence depends only on simulation content — span ids, and
     * hence Chrome-trace output, are byte-identical across thread
     * counts. The 16-bit sequence wraps; ids only need to be unique
     * among *concurrent* spans of one core, so this is harmless.
     */
    u32
    nextSpanId()
    {
        return (static_cast<u32>(obs_pid_ & 0xff) << 24) |
               (static_cast<u32>(obs_tid_ & 0xff) << 16) |
               static_cast<u32>(++span_seq_ & 0xffff);
    }

    /**
     * Deterministic distributed-trace identity for an op injected on
     * this core: `(machine << 48) | (core << 40) | seq`, with the
     * sequence core-confined for the same thread-count-invariance
     * reason as nextSpanId(). 40 sequence bits never wrap in
     * practice; trace 0 is reserved for "no trace".
     */
    u64
    nextTraceId()
    {
        return (static_cast<u64>(obs_pid_) << 48) |
               (static_cast<u64>(obs_tid_ & 0xff) << 40) |
               (++trace_seq_ & 0xffffffffffULL);
    }

    /** Utilization over [t0, t1], given busy cycles at t0. */
    double
    utilization(Nanos t0, Nanos t1, Cycles busy_at_t0) const
    {
        if (t1 <= t0)
            return 0.0;
        const double busy_ns =
            static_cast<double>(busy_cycles_ - busy_at_t0) / cost_.core_ghz;
        return busy_ns / static_cast<double>(t1 - t0);
    }

  private:
    void scheduleNext();
    void runOne();

    Simulator &sim_;
    const cycles::CostModel &cost_;
    cycles::CycleAccount acct_;
    Fifo<EventFn> queue_;
    bool scheduled_ = false;
    bool in_item_ = false;
    Nanos item_start_time_ = 0;
    Cycles item_start_cycles_ = 0;
    Nanos free_at_ = 0;
    Cycles busy_cycles_ = 0;
    u64 items_run_ = 0;
    u16 obs_pid_ = 0;
    u16 obs_tid_ = 0;
    u32 span_seq_ = 0;
    u64 trace_seq_ = 0;
};

} // namespace rio::des

#endif // RIO_DES_CORE_H
