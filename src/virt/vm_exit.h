/**
 * @file
 * VmExitModel: the hypervisor's cost side. Every trap a guest takes
 * is composed from the calibrated CostModel virtualization constants,
 * charged to the trapping core under Cat::kVirt, counted per reason
 * (exits(r)), and emitted as a "vmexit" span on the core's
 * timeline track — so a --timeline trace shows exactly where a
 * guest's time went.
 */
#ifndef RIO_VIRT_VM_EXIT_H
#define RIO_VIRT_VM_EXIT_H

#include <array>

#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "des/core.h"

namespace rio::virt {

/** Why the guest trapped to the hypervisor. */
enum class ExitReason : u8 {
    /** Emulated vIOMMU register write: the caching-mode invalidation
     * a guest must issue when it installs a radix PTE (VT-d CM=1). */
    kVregWrite = 0,
    /** QI tail-doorbell MMIO, replayed against the host IOMMU
     * (emulated and shadow strategies). */
    kQiDoorbell,
    /** QI tail-doorbell under nested translation: hardware walks the
     * guest queue itself, the hypervisor only forwards the kick. */
    kQiForward,
    /** Write-protect trap on a guest translation-table store, synced
     * into the merged shadow table (shadow strategy). */
    kPteWriteProtect,
    /** Explicit paravirtual hypercall (rIOMMU table registration). */
    kHypercall,
    kNumReasons
};

inline constexpr unsigned kNumExitReasons =
    static_cast<unsigned>(ExitReason::kNumReasons);

/** Composes, charges and observes vmexit costs. One per Guest. */
class VmExitModel
{
  public:
    explicit VmExitModel(const cycles::CostModel &cost) : cost_(cost) {}

    /** World-switch + hypervisor cycles of one @p r exit. */
    Cycles cost(ExitReason r) const;

    /**
     * Take one exit: charge cost(r) to @p acct under Cat::kVirt (null
     * acct: functional-only context, free), bump the per-reason
     * counters, and — when @p core is known — emit a vmexit span on
     * its timeline track.
     */
    void charge(ExitReason r, cycles::CycleAccount *acct,
                des::Core *core);

    /** Exits taken, total and per reason. */
    u64 exits() const { return exits_; }
    u64 exits(ExitReason r) const
    {
        return by_reason_[static_cast<unsigned>(r)];
    }

  private:
    const cycles::CostModel &cost_;
    std::array<u64, kNumExitReasons> by_reason_{};
    u64 exits_ = 0;
};

} // namespace rio::virt

#endif // RIO_VIRT_VM_EXIT_H
