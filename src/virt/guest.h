/**
 * @file
 * virt::Guest: one guest VM wrapped around a sys::Machine. The guest
 * owns a guest-physical address space (GPA == HPA identity, lazily
 * populated like an EPT) backed by a real stage-2 page table in
 * simulated memory, and a vIOMMU strategy that decides which of the
 * machine's driver actions trap to the hypervisor:
 *
 *  - emulated: the vIOMMU is a trap-and-emulate device model. Radix
 *    PTE installs cost a caching-mode invalidation trap and every QI
 *    doorbell is replayed against the host IOMMU. rIOMMU's memory-
 *    only protocol has *nothing* to trap once its tables are
 *    registered by paravirtual hypercalls at boot.
 *  - shadow: guest translation tables are write-protected; every
 *    store (radix PTE or rPTE) takes a wp-trap and is synced into a
 *    hypervisor-owned merged shadow table.
 *  - nested: hardware walks guest tables directly, each step
 *    translated through the stage-2 table — the 2-D walk that costs a
 *    radix miss up to 24 combined references but an rIOMMU flat-table
 *    miss at most 5.
 *
 * The machine's protection-mode handles run unmodified; the guest
 * installs hooks (iommu/virt_hooks.h) around them and removes them on
 * destruction. Construct after the machine's devices are attached and
 * before bringUp() so boot-time traps precede any measurement window.
 */
#ifndef RIO_VIRT_GUEST_H
#define RIO_VIRT_GUEST_H

#include <memory>
#include <vector>

#include "iommu/page_table.h"
#include "iommu/virt_hooks.h"
#include "sys/machine.h"
#include "virt/platform.h"
#include "virt/vm_exit.h"

namespace rio::virt {

/** Aggregate guest counters (tests and bench columns). */
struct GuestStats
{
    u64 vm_exits = 0;     //!< traps taken, registration included
    u64 hypercalls = 0;   //!< paravirtual registrations at boot
    u64 stage2_fills = 0; //!< lazy EPT-style identity fills
    u64 stage2_pages = 0; //!< guest frames currently stage-2 mapped
    u64 shadow_syncs = 0; //!< table writes mirrored into shadows
};

/** One guest VM. Lifetime must be inside the Machine's. */
class Guest final : public iommu::VirtStage2
{
  public:
    /**
     * Attach to @p machine under @p strategy (must not be kBare —
     * bare metal means no Guest at all, keeping the zero-overhead
     * invariant trivially). Binds every NIC handle present at
     * construction; handles attached later run untrapped.
     */
    Guest(sys::Machine &machine, Platform strategy);
    ~Guest() override;

    Guest(const Guest &) = delete;
    Guest &operator=(const Guest &) = delete;

    /** VirtStage2: GPA -> HPA for a device-side access. Walks (and
     * lazily fills) the stage-2 table; identity-valued, so bare and
     * nested runs compute identical physical addresses. */
    PhysAddr deviceTranslate(PhysAddr gpa, int *mem_refs) override;

    Platform strategy() const { return strategy_; }

    VmExitModel &exitModel() { return exits_; }
    const VmExitModel &exitModel() const { return exits_; }

    /** The stage-2 (GPA->HPA) table (tests). */
    iommu::IoPageTable &stage2() { return stage2_; }

    /**
     * Pause the guest's vCPUs (live migration stop-and-copy): table
     * writes and doorbells issued while paused come from the
     * hypervisor's own teardown, which edits tables it owns — the
     * functional side of every trap (shadow mirroring) still runs,
     * but no vmexit is charged. Resume is the target guest's job;
     * a paused source is abandoned, not unpaused.
     */
    void setPaused(bool paused) { paused_ = paused; }
    bool paused() const { return paused_; }

    /**
     * Back guest memory with 2 MB stage-2 leaves: lazy fills install
     * one huge identity mapping per 2 MB region, so each stage-2
     * resolution in the nested 2-D walk reads 3 tables instead of 4
     * (radix nested miss 24 -> 19 combined refs, rIOMMU 5 -> 4).
     * Flip before traffic; mixing granularities is not modeled.
     */
    void setHugeStage2(bool huge) { huge_stage2_ = huge; }

    /**
     * The hypervisor's merged shadow radix table for binding @p i
     * (NIC handles first, in NIC order, then extra handles in
     * bindHandle() order), or null (non-shadow strategy, or an
     * rIOMMU/none handle whose shadow is not a radix table).
     */
    const iommu::IoPageTable *shadowTable(unsigned nic_idx) const;

    /**
     * Bind a handle attached outside the NIC array (e.g. a Cluster
     * machine's RDMA handle, attached via
     * Machine::attachDeviceHandle) under this guest's vIOMMU
     * strategy, with traps charged to @p core. Returns the binding
     * index for shadowTable(). Call before traffic, like the ctor's
     * NIC bindings.
     */
    unsigned bindHandle(dma::DmaHandle &h, des::Core &core);

    /** Bindings installed (NIC + extra). */
    unsigned numBindings() const
    {
        return static_cast<unsigned>(bindings_.size());
    }

    GuestStats stats() const;

  private:
    class TrapBinding;

    sys::Machine &m_;
    Platform strategy_;
    VmExitModel exits_;
    iommu::IoPageTable stage2_;
    std::vector<std::unique_ptr<TrapBinding>> bindings_;
    u64 stage2_fills_ = 0;
    u64 hypercalls_ = 0;
    bool huge_stage2_ = false;
    bool paused_ = false;
};

} // namespace rio::virt

#endif // RIO_VIRT_GUEST_H
