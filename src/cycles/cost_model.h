/**
 * @file
 * Calibrated primitive-cost model.
 *
 * The paper's methodology (§3.3, §5.1) establishes that end-to-end
 * performance is entirely determined by the number of CPU-core cycles
 * spent per packet; the IOMMU/device hardware runs in parallel and is
 * never the bottleneck. The authors themselves evaluate rIOMMU by
 * executing its driver code and busy-waiting a measured constant per
 * rIOTLB invalidation. We adopt the same model: every driver-side
 * operation is functionally executed against simulated structures and
 * charged cycles from this table.
 *
 * Values are core cycles on the paper's 3.10 GHz Xeon E3-1220 and are
 * calibrated so the component costs that *emerge* from executing the
 * real algorithms land near Table 1 of the paper (see
 * EXPERIMENTS.md for the paper-vs-measured comparison).
 */
#ifndef RIO_CYCLES_COST_MODEL_H
#define RIO_CYCLES_COST_MODEL_H

#include "base/types.h"

namespace rio::cycles {

/**
 * Primitive operation costs, charged by the data-structure code at
 * the point where the work actually happens.
 */
struct CostModel
{
    /** Core clock in GHz (Xeon E3-1220 of the paper's testbed). */
    double core_ghz = 3.1;

    // ---- CPU-side memory system -------------------------------------
    /** Cached load/store hitting L1. */
    Cycles cached_access = 4;
    /** Store to a line that will be written back (page-table update). */
    Cycles table_store = 10;
    /** Full memory barrier (MFENCE). */
    Cycles memory_barrier = 35;
    /**
     * CLFLUSH of a dirty line plus the stall the driver observes.
     * The paper attributes the 500+ cycle page-table insert mostly to
     * barriers + cacheline flushes on non-coherent I/O page walks.
     */
    Cycles cacheline_flush = 250;

    // ---- Red-black tree (Linux IOVA allocator) -----------------------
    /**
     * Cost per rb-tree node visited during search/scan. Pointer
     * chasing over a pool much larger than L1 makes each visit a
     * (partial) cache miss; 25 cycles reproduces both the logarithmic
     * find (~250 cycles at ~3K live IOVAs) and, together with the
     * cached-node pathology, the ~4K-cycle linear allocations.
     */
    Cycles rb_node_visit = 20;
    /** Cost per rebalancing step (rotation/recolor) on insert/erase. */
    Cycles rb_rebalance_step = 18;
    /** Extra constant in the stock allocator's free path (slab free +
     * lock handoff), absent from the magazine allocator. */
    Cycles linux_free_extra = 70;

    /** Fixed lock/slab overhead of any allocator alloc/free call. */
    Cycles iova_op_base = 55;

    // ---- IOVA magazine allocator (strict+ / defer+) ------------------
    /** Constant-time magazine pop/push (the authors' FAST'15 design). */
    Cycles magazine_op = 35;

    // ---- Baseline IOMMU page tables ----------------------------------
    /**
     * Per-level cost of the *driver's* software walk when inserting a
     * translation (cold: descends physical pointers it last touched a
     * full ring-lap ago).
     */
    Cycles pt_walk_level_insert = 65;
    /**
     * Per-level cost when removing: the map() walk just warmed the
     * upper levels, so unmap's walk is cheaper.
     */
    Cycles pt_walk_level_remove = 25;

    // ---- IOTLB ---------------------------------------------------------
    /**
     * Synchronous single-entry IOTLB invalidation (queued invalidation
     * descriptor + wait). The paper measures ~2,127 cycles and uses
     * 2,150 as its own busy-wait constant; we use theirs. The rIOMMU
     * driver charges this constant directly; the baseline modes build
     * the same total from the QI steps below (iommu/inval_queue.h).
     */
    Cycles iotlb_invalidate_entry = 2150;
    /** QI: write one 128-bit descriptor into the queue (2 stores +
     * bookkeeping). */
    Cycles qi_submit = 40;
    /** QI: uncached MMIO write of the queue-tail doorbell. */
    Cycles qi_doorbell = 300;
    /** QI: hardware consumption per descriptor. */
    Cycles qi_hw_per_descriptor = 150;
    /** QI: round-trip + status-writeback latency the core spins
     * through on a wait descriptor. Composed:
     * 2*40 + 300 + 2*150 + 1462 + 8 = 2,150, the paper's constant. */
    Cycles qi_wait_latency = 1462;
    /** Enqueue-only cost under deferred invalidation (Table 1: 9). */
    Cycles iotlb_invalidate_queued = 9;
    /** Full IOTLB flush, paid once per deferred batch (250 frees). */
    Cycles iotlb_global_flush = 2150;
    /** Per-entry management of the deferred-free list (defer mode). */
    Cycles defer_list_op = 170;

    // ---- IOMMU hardware-side walk (charged to the device, not core) --
    /**
     * One dependent DRAM read per radix level during a hardware
     * IOTLB-miss walk; 4 levels == 1,532 cycles, the miss penalty the
     * paper measures with its ibverbs rig (§5.3).
     */
    Cycles hw_walk_level = 383;
    /** rIOMMU flat-table walk: a bounds check plus one rPTE fetch. */
    Cycles hw_rwalk = 400;
    /** IOTLB/rIOTLB lookup hit. */
    Cycles hw_tlb_hit = 2;

    // ---- Fixed driver overheads (Table 1 "other" rows) ----------------
    /** Function-call/pinning/bookkeeping overhead of a map call. */
    Cycles map_other = 44;
    /** Same for unmap (strict; defer adds defer_list_op on top). */
    Cycles unmap_other = 26;

    // ---- Misc ----------------------------------------------------------
    /** Locked (atomic) read-modify-write, e.g. rRING tail bump. */
    Cycles locked_rmw = 20;

    // ---- Fault reporting & recovery -----------------------------------
    /**
     * Reading the fault-recording state after an I/O page fault: an
     * interrupt-context read of the fault-status register plus the
     * uncached reads that drain one fault-log record and the write
     * that clears it. Charged once per recovered fault regardless of
     * policy.
     */
    Cycles fault_report = 750;
    /**
     * Re-installing a damaged translation under the retry-with-remap
     * policy: one leaf-level table store plus barrier, on top of the
     * per-retry device access itself.
     */
    Cycles fault_remap = 350;
    /**
     * Backoff penalty of the drop-with-backoff policy: the driver
     * parks the faulting request and schedules a later retransmit
     * (timer programming + softirq bookkeeping).
     */
    Cycles fault_backoff = 2000;

    // ---- Device lifecycle & invalidation time-out ----------------------
    /**
     * Bounded spin on a queued-invalidation wait descriptor whose
     * status write never lands (ITE analog: the target device stopped
     * ack'ing, e.g. it was surprise-removed). Four full QI round
     * trips before the driver declares a time-out.
     */
    Cycles qi_timeout_spin = 8600;
    /**
     * Back-off before retrying a timed-out invalidation: timer
     * programming plus the modeled wait the driver sleeps through
     * before re-ringing the doorbell.
     */
    Cycles lifecycle_backoff = 4000;
    /**
     * Abort-queue recovery: clear the sticky queue-error state, skip
     * the head past the dead descriptor and restart the queue
     * (fault-status read, head rewrite, doorbell).
     */
    Cycles lifecycle_abort_recovery = 1200;
    /**
     * Per-device quiesce/detach bookkeeping: walking driver state to
     * stop posting, plus context-entry teardown writes.
     */
    Cycles lifecycle_quiesce = 400;

    // ---- Virtualization (guest VMs, src/virt) --------------------------
    /**
     * VM exit + VM entry round trip: world switch, VMCS save/restore
     * and the cache/TLB pollution the guest observes on resume.
     * Calibrated to published VT-x exit latencies (~1,200 cycles on
     * the paper-era Xeon generation).
     */
    Cycles vmexit_roundtrip = 1200;
    /** Hypervisor exit-reason decode + dispatch to the device model. */
    Cycles hyp_dispatch = 400;
    /**
     * Emulating one trapped vIOMMU register access: instruction decode
     * of the faulting MMIO, register-file update in the device model.
     */
    Cycles vreg_emulate = 500;
    /**
     * Replaying one trapped guest invalidation against the host IOMMU
     * under the emulated strategy (host QI submit + doorbell from the
     * hypervisor's context).
     */
    Cycles inval_replay = 800;
    /**
     * Same replay under nested translation: hardware walks guest
     * tables directly, so the hypervisor only forwards the doorbell
     * (no descriptor rewrite, no shadow bookkeeping).
     */
    Cycles inval_replay_nested = 150;
    /**
     * Syncing one write-protect-trapped guest page-table store into
     * the merged shadow table (re-walk + shadow store + unprotect/
     * reprotect dance), on top of the exit round trip.
     */
    Cycles shadow_sync = 350;
    /**
     * One explicit hypercall (e.g. rIOMMU paravirtual ring-table
     * registration at guest boot): vmexit round trip plus argument
     * marshalling and hypervisor-side validation.
     */
    Cycles hypercall = 1500;

    /** Convert cycles to nanoseconds at this model's clock. */
    double toNanos(Cycles c) const
    {
        return static_cast<double>(c) / core_ghz;
    }
    /** Convert cycles to seconds. */
    double toSeconds(Cycles c) const { return toNanos(c) * 1e-9; }
    /** Cycles per second. */
    double hz() const { return core_ghz * 1e9; }
};

/** The default, paper-calibrated cost model. */
const CostModel &defaultCostModel();

} // namespace rio::cycles

#endif // RIO_CYCLES_COST_MODEL_H
