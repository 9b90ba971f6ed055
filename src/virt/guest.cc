#include "virt/guest.h"

#include "base/logging.h"
#include "dma/baseline_handle.h"
#include "dma/riommu_handle.h"

namespace rio::virt {

/**
 * The hypervisor's per-handle hook endpoint. One per NIC handle;
 * receives table-write and doorbell traps and turns them into vmexits
 * on the NIC's pinned core. Under the shadow strategy it also owns the
 * merged shadow radix table for a baseline handle — per handle, not
 * per guest, because per-handle IOVA allocators can hand out
 * overlapping IOVA pfns across devices.
 */
class Guest::TrapBinding final : public iommu::VirtTraps
{
  public:
    TrapBinding(Guest &owner, des::Core &core)
        : owner_(owner), core_(core)
    {
    }
    ~TrapBinding() override { unbind(); }

    TrapBinding(const TrapBinding &) = delete;
    TrapBinding &operator=(const TrapBinding &) = delete;

    void
    bindBaseline(dma::BaselineDmaHandle &h)
    {
        baseline_ = &h;
        switch (owner_.strategy_) {
          case Platform::kEmulated:
            // Caching-mode vIOMMU: PTE installs trap (the guest must
            // invalidate even on not-present -> present, VT-d CM=1)
            // and so does the QI doorbell.
            h.pageTable().setVirtTraps(this);
            h.invalQueue().setVirtTraps(this);
            break;
          case Platform::kShadow:
            // Guest tables are write-protected; the hypervisor keeps
            // a merged shadow the hardware actually walks. The shadow
            // is hypervisor-owned: coherent, never charged.
            shadow_ = std::make_unique<iommu::IoPageTable>(
                owner_.m_.ctx().memory(), /*coherent=*/true,
                owner_.m_.cost(), /*acct=*/nullptr);
            h.pageTable().setVirtTraps(this);
            h.invalQueue().setVirtTraps(this);
            break;
          case Platform::kNested:
            // Hardware walks the guest table itself; only the
            // doorbell MMIO still reaches the hypervisor.
            h.invalQueue().setVirtTraps(this);
            break;
          case Platform::kBare:
            RIO_PANIC("bare platform has no guest");
        }
    }

    void
    bindRiommu(dma::RiommuDmaHandle &h)
    {
        riommu_ = &h;
        switch (owner_.strategy_) {
          case Platform::kEmulated:
          case Platform::kNested:
            // Paravirtual registration: one hypercall pins the
            // rDEVICE array, one more per ring pins its flat table.
            // After that the memory-only protocol never traps — the
            // paper's update/invalidate path is ordinary stores.
            {
                const unsigned n = 1u + h.rdevice().nrings();
                for (unsigned k = 0; k < n; ++k)
                    owner_.exits_.charge(ExitReason::kHypercall,
                                         &core_.acct(), &core_);
                owner_.hypercalls_ += n;
            }
            break;
          case Platform::kShadow:
            // No paravirt here: the hypervisor discovers rPTE stores
            // the same way it discovers radix stores, by
            // write-protecting the tables.
            h.rdevice().setVirtTraps(this);
            break;
          case Platform::kBare:
            RIO_PANIC("bare platform has no guest");
        }
    }

    void
    unbind()
    {
        if (baseline_) {
            baseline_->pageTable().setVirtTraps(nullptr);
            baseline_->invalQueue().setVirtTraps(nullptr);
            baseline_ = nullptr;
        }
        if (riommu_) {
            riommu_->rdevice().setVirtTraps(nullptr);
            riommu_ = nullptr;
        }
    }

    void
    onTableWrite(const iommu::TableWrite &w,
                 cycles::CycleAccount *acct) override
    {
        switch (owner_.strategy_) {
          case Platform::kEmulated:
            // Only the install direction traps: the caching-mode
            // invalidation accompanies the new PTE. The teardown
            // invalidation is the QI doorbell, trapped separately —
            // charging it here too would double-count.
            if (w.kind == iommu::TableWrite::Kind::kRadixPte && w.valid &&
                !owner_.paused_)
                owner_.exits_.charge(ExitReason::kVregWrite, acct,
                                     &core_);
            break;
          case Platform::kShadow:
            // A paused guest's table writes are the hypervisor's own
            // teardown: the mirror below still runs (the hardware
            // walks the shadow, so it must stay coherent), but there
            // is no vCPU to exit.
            if (!owner_.paused_)
                owner_.exits_.charge(ExitReason::kPteWriteProtect, acct,
                                     &core_);
            ++shadow_syncs_;
            if (w.kind == iommu::TableWrite::Kind::kRadixPte &&
                shadow_) {
                // Mirror into the merged shadow at the guest's
                // granularity. Permissions are hypervisor-side
                // bookkeeping; the guest table stays authoritative
                // for what the workload checks.
                if (w.valid && w.huge)
                    (void)shadow_->mapHuge(w.iova_pfn, w.phys_pfn,
                                           iommu::DmaDir::kBidir);
                else if (w.valid)
                    (void)shadow_->map(w.iova_pfn, w.phys_pfn,
                                       iommu::DmaDir::kBidir);
                else if (w.huge)
                    (void)shadow_->unmapHuge(w.iova_pfn);
                else
                    (void)shadow_->unmap(w.iova_pfn);
            }
            break;
          case Platform::kNested:
          case Platform::kBare:
            // Nested installs no table-write hook; nothing to do.
            break;
        }
    }

    void
    onQiDoorbell(cycles::CycleAccount *acct) override
    {
        if (owner_.paused_)
            return; // hypervisor-side flush: no vCPU to exit
        owner_.exits_.charge(owner_.strategy_ == Platform::kNested
                                 ? ExitReason::kQiForward
                                 : ExitReason::kQiDoorbell,
                             acct, &core_);
    }

    const iommu::IoPageTable *shadow() const { return shadow_.get(); }
    u64 shadowSyncs() const { return shadow_syncs_; }

  private:
    Guest &owner_;
    des::Core &core_;
    dma::BaselineDmaHandle *baseline_ = nullptr;
    dma::RiommuDmaHandle *riommu_ = nullptr;
    std::unique_ptr<iommu::IoPageTable> shadow_;
    u64 shadow_syncs_ = 0;
};

Guest::Guest(sys::Machine &machine, Platform strategy)
    : m_(machine), strategy_(strategy), exits_(machine.cost()),
      // The stage-2 table is hypervisor state: coherent walks, no
      // core ever charged for its upkeep.
      stage2_(machine.ctx().memory(), /*coherent=*/true, machine.cost(),
              /*acct=*/nullptr)
{
    RIO_ASSERT(strategy != Platform::kBare,
               "bare metal means no Guest; construct none");

    bindings_.reserve(m_.numNics());
    for (unsigned i = 0; i < m_.numNics(); ++i)
        bindHandle(m_.handle(i), m_.nicCore(i));

    if (strategy_ == Platform::kNested) {
        m_.ctx().iommu().setStage2(this);
        m_.ctx().riommu().setStage2(this);
    }
}

Guest::~Guest()
{
    if (strategy_ == Platform::kNested) {
        m_.ctx().iommu().setStage2(nullptr);
        m_.ctx().riommu().setStage2(nullptr);
    }
    for (auto &binding : bindings_)
        binding->unbind();
}

PhysAddr
Guest::deviceTranslate(PhysAddr gpa, int *mem_refs)
{
    const u64 gfn = gpa >> kPageShift;
    int levels = 0;
    auto pte = stage2_.walk(gfn, &levels);
    if (!pte.isOk()) {
        // Lazy EPT-style fill: first touch of a guest frame installs
        // the identity GPA->HPA mapping. Hypervisor work, uncharged;
        // after the fill the walk always runs the full hierarchy.
        // With huge stage-2, one 2 MB leaf covers the whole aligned
        // region and walks stop a level early.
        Status st =
            huge_stage2_
                ? stage2_.mapHuge(gfn & ~(iommu::IoPageTable::kHugePfns - 1),
                                  gfn & ~(iommu::IoPageTable::kHugePfns - 1),
                                  iommu::DmaDir::kBidir)
                : stage2_.map(gfn, gfn, iommu::DmaDir::kBidir);
        RIO_ASSERT(st, "stage-2 fill failed");
        ++stage2_fills_;
        levels = 0;
        pte = stage2_.walk(gfn, &levels);
        RIO_ASSERT(pte.isOk(), "stage-2 walk failed after fill");
    }
    if (mem_refs)
        *mem_refs += levels;
    const u64 offset_mask =
        pte.value().huge()
            ? (iommu::IoPageTable::kHugePfns << kPageShift) - 1
            : kPageMask;
    return pte.value().addr() | (gpa & offset_mask);
}

unsigned
Guest::bindHandle(dma::DmaHandle &h, des::Core &core)
{
    auto binding = std::make_unique<TrapBinding>(*this, core);
    if (auto *bh = dynamic_cast<dma::BaselineDmaHandle *>(&h))
        binding->bindBaseline(*bh);
    else if (auto *rh = dynamic_cast<dma::RiommuDmaHandle *>(&h))
        binding->bindRiommu(*rh);
    // The none handle manages no translation tables, so no vIOMMU
    // strategy has anything to trap; it runs at bare-metal speed
    // inside the guest.
    bindings_.push_back(std::move(binding));
    return static_cast<unsigned>(bindings_.size() - 1);
}

const iommu::IoPageTable *
Guest::shadowTable(unsigned nic_idx) const
{
    return bindings_.at(nic_idx)->shadow();
}

GuestStats
Guest::stats() const
{
    GuestStats s;
    s.vm_exits = exits_.exits();
    s.hypercalls = hypercalls_;
    s.stage2_fills = stage2_fills_;
    s.stage2_pages = stage2_.mappedPages();
    for (const auto &binding : bindings_)
        s.shadow_syncs += binding->shadowSyncs();
    return s;
}

} // namespace rio::virt
