/**
 * @file
 * Baseline VT-d-style IOMMU hardware model (paper §2.2 / Figure 2):
 * a root table indexed by bus number points at context tables indexed
 * by (device, function); a context entry points at the device's
 * 4-level I/O page table; translations are cached in a small IOTLB.
 *
 * All structures are resident in simulated physical memory and the
 * hardware walker really dereferences them, so stale or corrupted
 * tables misbehave exactly as hardware would. Device accesses are
 * *not* charged to the core's cycle account — the paper's validated
 * model shows device-side translation latency does not affect
 * end-to-end performance — but each translation reports its own
 * hardware cost for the §5.3 IOTLB-miss study.
 */
#ifndef RIO_IOMMU_IOMMU_H
#define RIO_IOMMU_IOMMU_H

#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "cycles/cost_model.h"
#include "iommu/fault_log.h"
#include "iommu/iotlb.h"
#include "iommu/page_table.h"
#include "iommu/types.h"
#include "mem/phys_mem.h"

namespace rio::iommu {

/** Context-cache counters (tests and the lifecycle bench). */
struct CtxCacheStats
{
    u64 hits = 0;
    u64 misses = 0; //!< memory walks of root + context tables
    u64 purges = 0; //!< per-device invalidations (attach/detach)
};

/** Result of one hardware translation. */
struct Translation
{
    PhysAddr pa = 0;
    bool iotlb_hit = false;
    int walk_levels = 0;  //!< page-table reads performed on a miss
    Cycles hw_cycles = 0; //!< device-side latency of this translation
    /** Combined memory references of the walk: equals walk_levels on
     * bare metal; under nested translation every table access adds
     * its stage-2 references (24 worst case for 4x4 levels). */
    int mem_refs = 0;
};

/** The baseline IOMMU. One instance serves all devices on the bus. */
class Iommu
{
  public:
    Iommu(mem::PhysicalMemory &pm, const cycles::CostModel &cost,
          IotlbConfig iotlb_config = {});
    ~Iommu();

    Iommu(const Iommu &) = delete;
    Iommu &operator=(const Iommu &) = delete;

    // ---- OS-side configuration ---------------------------------------
    /**
     * Point the context entry for @p bdf at @p table. The page table
     * is owned by the caller (the DMA layer) and must outlive the
     * attachment.
     */
    void attachDevice(Bdf bdf, IoPageTable *table);

    /**
     * Clear the context entry and purge the device's IOTLB entries
     * *and* its context-cache entry — a detach that leaves either
     * cached lets a stale or malicious device keep translating
     * through structures the OS believes are gone.
     */
    void detachDevice(Bdf bdf);

    /**
     * Drop @p bdf's cached context entry. The model's analog of a
     * VT-d context-cache invalidation descriptor: required whenever
     * software rewrites a context entry in memory behind the
     * hardware's back.
     */
    void invalidateContextCache(Bdf bdf);

    /**
     * Hardware pass-through (the paper's HWpt control mode):
     * translation returns the IOVA unchanged without touching the
     * IOTLB or tables.
     */
    void setPassthrough(bool on) { passthrough_ = on; }
    bool passthrough() const { return passthrough_; }

    /**
     * Install (or, with nullptr, remove) the stage-2 translation the
     * walker applies to every table access and to the final data
     * page — the nested-virtualization 2-D walk. Bare metal and the
     * emulated/shadow strategies leave this unset.
     */
    void setStage2(VirtStage2 *s2) { stage2_ = s2; }
    VirtStage2 *stage2() const { return stage2_; }

    // ---- hardware-side translation ------------------------------------
    /**
     * Translate @p iova for a DMA by @p bdf. On failure records a
     * FaultRecord and returns kIoPageFault/kPermission. DMAs are not
     * restartable (§2.2): callers treat faults as device-fatal.
     */
    Result<Translation> translate(Bdf bdf, IovaAddr iova, Access access);

    /** Device writes @p len bytes to memory at @p iova (may span pages). */
    Status dmaWrite(Bdf bdf, IovaAddr iova, const void *src, u64 len);

    /** Device reads @p len bytes from memory at @p iova. */
    Status dmaRead(Bdf bdf, IovaAddr iova, void *dst, u64 len);

    // ---- invalidation interface (called by the OS driver) -------------
    /**
     * Drop one IOTLB entry. Mechanical only — the *cost* (Table 1's
     * 2,127-cycle synchronous invalidation) is charged by the DMA
     * layer, which knows whether it is strict or deferred.
     */
    void invalidateIotlbEntry(Bdf bdf, u64 iova_pfn);

    /** Drop the whole IOTLB (deferred mode's batched flush). */
    void flushIotlb();

    // ---- observability ---------------------------------------------------
    const std::vector<FaultRecord> &faults() const { return faults_; }
    void clearFaults() { faults_.clear(); }

    /** The fault-recording ring (memory-resident, drained by the
     * driver's fault interrupt handler). */
    FaultLog &faultLog() { return fault_log_; }
    const FaultLog &faultLog() const { return fault_log_; }

    Iotlb &iotlb() { return iotlb_; }
    const Iotlb &iotlb() const { return iotlb_; }

    const CtxCacheStats &ctxCacheStats() const { return ctx_stats_; }

    /** IOTLB-miss walks taken and the combined (stage-1 + stage-2)
     * memory references they cost — the 2-D-walk quantity the
     * huge-page stage-2 ablation reports (24 -> 19 per radix miss). */
    u64 walkCount() const { return walks_; }
    u64 walkMemRefs() const { return walk_mem_refs_; }

    /** Cached context entries (== attached devices that translated). */
    u64 contextCacheSize() const { return ctx_cache_.size(); }

    /** Root-table physical address (as programmed into hardware). */
    PhysAddr rootTableAddr() const { return root_table_; }

  private:
    /** Locate the page-table root for @p bdf via root+context tables. */
    IoPageTable *lookupContext(Bdf bdf);

    PhysAddr contextSlot(Bdf bdf);

    /** Record a fault in both the debug vector and the hardware log. */
    void recordFault(Bdf bdf, IovaAddr iova, Access access,
                     FaultReason reason);

    mem::PhysicalMemory &pm_;
    const cycles::CostModel &cost_;
    Iotlb iotlb_;
    bool passthrough_ = false;
    VirtStage2 *stage2_ = nullptr;

    PhysAddr root_table_;
    std::vector<PhysAddr> context_tables_; // one frame per bus, lazily
    // The walker reads the in-memory tables for the root pointer, but
    // the IoPageTable object (owner of driver-side charging state) is
    // located via this map, keyed by its root address.
    std::unordered_map<PhysAddr, IoPageTable *> tables_by_root_;
    // Context cache (VT-d caches context entries separately from the
    // IOTLB): successful walks are cached by requester id so repeat
    // translations skip the two memory reads. Purged per device on
    // attach/detach, like hardware requires.
    std::unordered_map<u16, IoPageTable *> ctx_cache_;
    CtxCacheStats ctx_stats_;
    u64 walks_ = 0;
    u64 walk_mem_refs_ = 0;
    std::vector<FaultRecord> faults_;
    FaultLog fault_log_;
};

} // namespace rio::iommu

#endif // RIO_IOMMU_IOMMU_H
