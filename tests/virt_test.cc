/**
 * @file
 * Virtualization subsystem tests (DESIGN.md §10): the 2-D nested-walk
 * reference counts the PR's acceptance pins (24 combined references
 * for a 4-level radix miss, at most 5 for an rIOMMU flat-table miss),
 * vmexit cost composition and per-reason accounting for the emulated /
 * shadow / nested strategies, rIOMMU's boot-time registration
 * hypercalls followed by a trap-free data path, shadow-table
 * mirroring, stage-2 identity correctness on the DMA data path,
 * platform orderings on the quick stream workload (bare < nested <
 * emulated < shadow for the baselines; the strict-vs-rIOMMU advantage
 * strictly larger nested than bare), deterministic replay inside a
 * guest, composition with fault injection + lifecycle churn, leak-free
 * quiesce/unplug under every strategy, per-level walk counters
 * (observability satellite), and vmexit timeline spans.
 */
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "dma/baseline_handle.h"
#include "dma/dma_context.h"
#include "dma/riommu_handle.h"
#include "net/packet.h"
#include "obs/timeline.h"
#include "riommu/structures.h"
#include "sys/machine.h"
#include "virt/guest.h"
#include "workloads/netperf_rr.h"
#include "workloads/stream.h"

namespace rio {
namespace {

using dma::ProtectionMode;
using iommu::Access;
using iommu::DmaDir;
using cycles::Cat;
using virt::ExitReason;
using virt::Platform;

nic::NicProfile
testProfile()
{
    nic::NicProfile p; // small rings, 1 buffer/packet for fast tests
    p.name = "test";
    p.tx_buffers_per_packet = 1;
    p.rx_rings = 1;
    p.rx_ring_entries = 16;
    p.tx_ring_entries = 512;
    p.tx_completion_batch = 16;
    p.tx_irq_delay_ns = 5000;
    p.rx_irq_delay_ns = 1000;
    return p;
}

net::Packet
mappedPacket()
{
    net::Packet pkt;
    pkt.payload_bytes = 1000; // above the inline threshold: maps
    return pkt;
}

workloads::StreamParams
quickStream()
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.measure_packets = 2000;
    p.warmup_packets = 500;
    return p;
}

// ---- platform vocabulary ----------------------------------------------------

TEST(VirtPlatform, NamesRoundTripAndBareIsFirst)
{
    for (Platform p : virt::kAllPlatforms) {
        const auto parsed = virt::parsePlatform(virt::platformName(p));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_EQ(virt::kAllPlatforms.front(), Platform::kBare);
    EXPECT_FALSE(virt::parsePlatform("xen").has_value());
}

TEST(VirtPlatform, ExitCostsComposeFromCostModel)
{
    const cycles::CostModel &cm = cycles::defaultCostModel();
    virt::VmExitModel em(cm);
    EXPECT_EQ(em.cost(ExitReason::kVregWrite),
              cm.vmexit_roundtrip + cm.hyp_dispatch + cm.vreg_emulate +
                  cm.inval_replay);
    EXPECT_EQ(em.cost(ExitReason::kQiDoorbell),
              em.cost(ExitReason::kVregWrite));
    EXPECT_EQ(em.cost(ExitReason::kQiForward),
              cm.vmexit_roundtrip + cm.hyp_dispatch +
                  cm.inval_replay_nested);
    EXPECT_EQ(em.cost(ExitReason::kPteWriteProtect),
              cm.vmexit_roundtrip + cm.hyp_dispatch + cm.shadow_sync);
    EXPECT_EQ(em.cost(ExitReason::kHypercall), cm.hypercall);
    // Forwarding a nested doorbell must be far cheaper than replaying
    // one through the device model, or nested loses its point.
    EXPECT_LT(em.cost(ExitReason::kQiForward),
              em.cost(ExitReason::kQiDoorbell));
}

// ---- the 2-D walk reference counts (acceptance pins) ------------------------

TEST(VirtNestedWalk, RadixMissCostsExactly24CombinedReferences)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kNested);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());

    auto tr = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(tr.isOk());
    EXPECT_FALSE(tr.value().iotlb_hit);
    EXPECT_EQ(tr.value().walk_levels, 4);
    // 4 guest levels x (4 stage-2 refs per table address + the table
    // read itself) + 4 stage-2 refs for the data page = 24.
    EXPECT_EQ(tr.value().mem_refs, 24);
    // Identity stage-2: same physical address as a bare walk.
    EXPECT_EQ(tr.value().pa,
              buf + (mapping.value().device_addr & kPageMask));

    // The IOTLB caches the *combined* translation: a hit re-reads
    // nothing, not even stage-2.
    auto hit = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(hit.isOk());
    EXPECT_TRUE(hit.value().iotlb_hit);
    EXPECT_EQ(hit.value().mem_refs, 0);
    EXPECT_EQ(hit.value().pa, tr.value().pa);

    // The miss lazily populated the stage-2 hierarchy.
    EXPECT_GT(guest.stats().stage2_fills, 0u);
    EXPECT_EQ(guest.stats().stage2_pages, guest.stats().stage2_fills);

    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtNestedWalk, RiommuFlatMissCostsAtMostFiveReferences)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kRiommu, testProfile());
    virt::Guest guest(m, Platform::kNested);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());

    auto tr = m.ctx().riommu().translate(
        m.handle().bdf(), riommu::RIova{mapping.value().device_addr},
        Access::kRead, 1);
    ASSERT_TRUE(tr.isOk());
    EXPECT_FALSE(tr.value().riotlb_hit);
    // 1 rPTE fetch (rDEVICE/rRING descriptors were pinned by the
    // registration hypercalls) + 4 stage-2 refs for the data page.
    EXPECT_LE(tr.value().mem_refs, 5);
    EXPECT_EQ(tr.value().mem_refs, 5);
    EXPECT_EQ(tr.value().pa, buf);

    auto hit = m.ctx().riommu().translate(
        m.handle().bdf(), riommu::RIova{mapping.value().device_addr},
        Access::kRead, 1);
    ASSERT_TRUE(hit.isOk());
    EXPECT_TRUE(hit.value().riotlb_hit);
    EXPECT_EQ(hit.value().mem_refs, 0);

    (void)guest;
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtNestedWalk, HugeStage2CutsRadixMissTo19CombinedReferences)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kNested);
    guest.setHugeStage2(true);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());

    auto tr = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(tr.isOk());
    EXPECT_FALSE(tr.value().iotlb_hit);
    EXPECT_EQ(tr.value().walk_levels, 4);
    // 2 MB stage-2 leaves stop every stage-2 resolution one level
    // early: 4 guest levels x (3 stage-2 refs + the table read) + 3
    // stage-2 refs for the data page = 19 (vs 24 with 4K stage-2).
    EXPECT_EQ(tr.value().mem_refs, 19);
    // Identity stage-2 even through a huge leaf: 2 MB offset
    // composition must reproduce the bare physical address.
    EXPECT_EQ(tr.value().pa,
              buf + (mapping.value().device_addr & kPageMask));
    EXPECT_GT(guest.stage2().hugeMappings(), 0u);

    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtNestedWalk, HugeStage2CutsRiommuFlatMissToFourReferences)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kRiommu, testProfile());
    virt::Guest guest(m, Platform::kNested);
    guest.setHugeStage2(true);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());

    auto tr = m.ctx().riommu().translate(
        m.handle().bdf(), riommu::RIova{mapping.value().device_addr},
        Access::kRead, 1);
    ASSERT_TRUE(tr.isOk());
    EXPECT_FALSE(tr.value().riotlb_hit);
    // 1 rPTE fetch + 3 stage-2 refs for the data page = 4: a nested
    // rIOMMU miss now costs the same as a *bare* radix miss.
    EXPECT_EQ(tr.value().mem_refs, 4);
    EXPECT_EQ(tr.value().pa, buf);

    (void)guest;
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtNestedWalk, Stage1SuperpagesCutRadixMissTo19References)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kNested);
    m.handle().setStage1Superpages(true);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());

    auto tr = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(tr.isOk());
    EXPECT_FALSE(tr.value().iotlb_hit);
    // The guest's own 2 MB leaf ends the stage-1 walk a level early:
    // 3 guest levels x (4 stage-2 refs + the table read) + 4 stage-2
    // refs for the data page = 19 — the same total as huge stage-2
    // over a 4K guest table, but from the other side of the 2-D walk.
    EXPECT_EQ(tr.value().walk_levels, 3);
    EXPECT_EQ(tr.value().mem_refs, 19);
    // 2 MB stage-1 offset composition through identity stage-2.
    EXPECT_EQ(tr.value().pa,
              buf + (mapping.value().device_addr & kPageMask));

    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtNestedWalk, SuperpagesBothStagesReachThe15ReferenceIdeal)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kNested);
    guest.setHugeStage2(true);
    m.handle().setStage1Superpages(true);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());

    auto tr = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(tr.isOk());
    EXPECT_FALSE(tr.value().iotlb_hit);
    // Huge leaves on both stages: 3 guest levels x (3 stage-2 refs +
    // the table read) + 3 stage-2 refs for the data page = 15, the
    // ROADMAP's nested-walk ideal for the radix baseline. (rIOMMU's
    // flat table sits at 4 under huge stage-2 regardless.)
    EXPECT_EQ(tr.value().walk_levels, 3);
    EXPECT_EQ(tr.value().mem_refs, 15);
    EXPECT_EQ(tr.value().pa,
              buf + (mapping.value().device_addr & kPageMask));
    EXPECT_GT(guest.stage2().hugeMappings(), 0u);

    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtNestedWalk, BareWalkIsOneReferencePerLevelAndChargesNoVirt)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    // No Guest: bare metal.
    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    auto tr = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(tr.isOk());
    EXPECT_EQ(tr.value().walk_levels, 4);
    EXPECT_EQ(tr.value().mem_refs, 4);
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    EXPECT_EQ(m.acct().get(Cat::kVirt), 0u);
    EXPECT_EQ(m.acct().ops(Cat::kVirt), 0u);
}

// ---- emulated strategy ------------------------------------------------------

TEST(VirtEmulated, RadixInstallAndDoorbellTrap)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kEmulated);
    virt::VmExitModel &em = guest.exitModel();
    ASSERT_EQ(em.exits(), 0u); // baseline vIOMMU needs no boot traps

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    // Caching-mode install: exactly one vreg-write exit, no doorbell.
    EXPECT_EQ(em.exits(ExitReason::kVregWrite), 1u);
    EXPECT_EQ(em.exits(ExitReason::kQiDoorbell), 0u);
    EXPECT_EQ(m.acct().get(Cat::kVirt), em.cost(ExitReason::kVregWrite));

    // Strict unmap: the PTE clear does NOT re-trap (teardown cost is
    // the doorbell, trapped once — no double counting).
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    EXPECT_EQ(em.exits(ExitReason::kVregWrite), 1u);
    EXPECT_EQ(em.exits(ExitReason::kQiDoorbell), 1u);
    EXPECT_EQ(m.acct().get(Cat::kVirt),
              em.cost(ExitReason::kVregWrite) +
                  em.cost(ExitReason::kQiDoorbell));
    EXPECT_EQ(m.acct().ops(Cat::kVirt), 2u);
    EXPECT_EQ(guest.stats().vm_exits, 2u);
}

TEST(VirtEmulated, DeferredInvalidationBatchesDoorbellExits)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kDefer, testProfile());
    virt::Guest guest(m, Platform::kEmulated);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    // Deferred mode queues the invalidation; until the batch flushes
    // there is no doorbell MMIO, hence no doorbell exit — exactly why
    // defer recovers part of the virtualization tax too.
    EXPECT_EQ(guest.exitModel().exits(ExitReason::kVregWrite), 1u);
    EXPECT_EQ(guest.exitModel().exits(ExitReason::kQiDoorbell), 0u);
}

TEST(VirtEmulated, RiommuPaysRegistrationHypercallsThenNeverTraps)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kRiommu, testProfile());
    virt::Guest guest(m, Platform::kEmulated);
    virt::VmExitModel &em = guest.exitModel();

    auto &rh = dynamic_cast<dma::RiommuDmaHandle &>(m.handle());
    const u64 expected = 1u + rh.rdevice().nrings();
    EXPECT_EQ(guest.stats().hypercalls, expected);
    EXPECT_EQ(em.exits(ExitReason::kHypercall), expected);
    EXPECT_EQ(em.exits(), expected);
    EXPECT_EQ(m.acct().get(Cat::kVirt),
              expected * em.cost(ExitReason::kHypercall));

    // The memory-only protocol: a whole map/unmap burst adds nothing.
    const u64 virt_before = m.acct().get(Cat::kVirt);
    for (int i = 0; i < 32; ++i) {
        const PhysAddr buf = m.ctx().memory().allocFrame();
        auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
        ASSERT_TRUE(mapping.isOk());
        ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    }
    EXPECT_EQ(em.exits(), expected);
    EXPECT_EQ(m.acct().get(Cat::kVirt), virt_before);
}

// ---- shadow strategy --------------------------------------------------------

TEST(VirtShadow, MirrorsRadixTableAndCountsSyncs)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kShadow);
    virt::VmExitModel &em = guest.exitModel();
    ASSERT_NE(guest.shadowTable(0), nullptr);

    auto &bh = dynamic_cast<dma::BaselineDmaHandle &>(m.handle());
    std::vector<dma::DmaMapping> mappings;
    for (int i = 0; i < 3; ++i) {
        const PhysAddr buf = m.ctx().memory().allocFrame();
        auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
        ASSERT_TRUE(mapping.isOk());
        mappings.push_back(mapping.value());
    }
    EXPECT_EQ(em.exits(ExitReason::kPteWriteProtect), 3u);
    ASSERT_TRUE(m.handle().unmap(mappings.back(), true).isOk());
    mappings.pop_back();

    // Every table store trapped: 3 installs + 1 clear. The unmap's
    // QI doorbell is a separate full-replay exit.
    EXPECT_EQ(em.exits(ExitReason::kPteWriteProtect), 4u);
    EXPECT_EQ(em.exits(ExitReason::kQiDoorbell), 1u);
    EXPECT_EQ(guest.stats().shadow_syncs, 4u);

    // The merged shadow tracks the guest table exactly.
    EXPECT_EQ(guest.shadowTable(0)->mappedPages(),
              bh.pageTable().mappedPages());
    EXPECT_EQ(guest.shadowTable(0)->mappedPages(), 2u);

    for (const auto &mp : mappings)
        ASSERT_TRUE(m.handle().unmap(mp, true).isOk());
    EXPECT_EQ(guest.shadowTable(0)->mappedPages(), 0u);
}

TEST(VirtShadow, TrapsRpteStoresWithoutParavirt)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kRiommu, testProfile());
    virt::Guest guest(m, Platform::kShadow);
    virt::VmExitModel &em = guest.exitModel();

    // Shadow does not paravirtualize: no registration hypercalls...
    EXPECT_EQ(guest.stats().hypercalls, 0u);
    EXPECT_EQ(em.exits(), 0u);
    // ...but every rPTE store is a write-protect trap, so rIOMMU's
    // memory-only advantage is destroyed — the one strategy where it
    // pays per packet.
    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    EXPECT_EQ(em.exits(ExitReason::kPteWriteProtect), 1u);
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    EXPECT_EQ(em.exits(ExitReason::kPteWriteProtect), 2u);
    EXPECT_EQ(em.exits(), 2u);
    // An rIOMMU handle has no radix shadow to expose.
    EXPECT_EQ(guest.shadowTable(0), nullptr);
}

// ---- nested strategy --------------------------------------------------------

TEST(VirtNested, OnlyTheDoorbellForwards)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kNested);
    virt::VmExitModel &em = guest.exitModel();

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    // Hardware walks the guest table: the install does not trap.
    EXPECT_EQ(em.exits(), 0u);
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    EXPECT_EQ(em.exits(ExitReason::kQiForward), 1u);
    EXPECT_EQ(em.exits(ExitReason::kQiDoorbell), 0u);
    EXPECT_EQ(em.exits(ExitReason::kVregWrite), 0u);
    EXPECT_EQ(m.acct().get(Cat::kVirt), em.cost(ExitReason::kQiForward));
}

TEST(VirtNested, IdentityStage2PreservesTheDataPath)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kNested);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 256, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    const u64 v = 0x1122334455667788ull;
    ASSERT_TRUE(m.handle()
                    .deviceWrite(mapping.value().device_addr, &v, 8)
                    .isOk());
    EXPECT_EQ(m.ctx().memory().read64(buf), v);
    u64 back = 0;
    ASSERT_TRUE(m.handle()
                    .deviceRead(mapping.value().device_addr, &back, 8)
                    .isOk());
    EXPECT_EQ(back, v);
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
    (void)guest;
}

// ---- per-level walk counters (observability satellite) ----------------------

TEST(VirtObservability, PerLevelWalkCountersCountMissesNotHits)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    const iommu::IoPageTable &table =
        static_cast<dma::BaselineDmaHandle &>(m.handle()).pageTable();

    std::array<u64, 4> before{};
    for (int l = 1; l <= 4; ++l)
        before[l - 1] = table.levelReads(l);

    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    auto tr = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(tr.isOk());
    // One table read per level on the miss...
    for (int l = 1; l <= 4; ++l)
        EXPECT_EQ(table.levelReads(l), before[l - 1] + 1) << "level " << l;
    // ...and none on the IOTLB hit.
    auto hit = m.ctx().iommu().translate(
        m.handle().bdf(), mapping.value().device_addr, Access::kRead);
    ASSERT_TRUE(hit.isOk() && hit.value().iotlb_hit);
    for (int l = 1; l <= 4; ++l)
        EXPECT_EQ(table.levelReads(l), before[l - 1] + 1) << "level " << l;
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());
}

TEST(VirtObservability, VmExitCountersAndTimelineSpans)
{
    obs::timeline().setRecording(true);
    obs::timeline().clear();

    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, Platform::kEmulated);
    const u64 vreg_before = guest.exitModel().exits(ExitReason::kVregWrite);
    const PhysAddr buf = m.ctx().memory().allocFrame();
    auto mapping = m.handle().map(0, buf, 1000, DmaDir::kBidir);
    ASSERT_TRUE(mapping.isOk());
    ASSERT_TRUE(m.handle().unmap(mapping.value(), true).isOk());

    EXPECT_EQ(guest.exitModel().exits(ExitReason::kVregWrite), vreg_before + 1);

    // Both exits appear as spans on the core's timeline track, with a
    // duration and the reason in arg.
    unsigned vmexit_spans = 0;
    for (const obs::EventRing &track : m.recorder().tracks()) {
        for (const obs::Event &e : track.inOrder()) {
            if (e.kind != obs::Ev::kVmExit)
                continue;
            ++vmexit_spans;
            EXPECT_GT(e.dur_ns, 0u);
            EXPECT_LT(e.arg, virt::kNumExitReasons);
        }
    }
    EXPECT_EQ(vmexit_spans, 2u);

    obs::timeline().setRecording(false);
    obs::timeline().clear();
    (void)guest;
}

// ---- workload-level orderings (acceptance) ----------------------------------

TEST(VirtStream, BaselineOrderingAndAdvantageGrowsUnderNested)
{
    workloads::StreamParams p = quickStream();
    const auto profile = nic::mlxProfile();

    auto run = [&](ProtectionMode mode, Platform platform) {
        workloads::StreamParams q = p;
        q.platform = platform;
        return workloads::runStream(mode, profile, q);
    };

    const auto strict_bare = run(ProtectionMode::kStrict, Platform::kBare);
    const auto strict_emul =
        run(ProtectionMode::kStrict, Platform::kEmulated);
    const auto strict_shadow =
        run(ProtectionMode::kStrict, Platform::kShadow);
    const auto strict_nested =
        run(ProtectionMode::kStrict, Platform::kNested);
    const auto rio_bare = run(ProtectionMode::kRiommu, Platform::kBare);
    const auto rio_nested =
        run(ProtectionMode::kRiommu, Platform::kNested);

    // Baseline platform ordering: hardware 2-D walks are cheaper than
    // trap-and-emulate, which is cheaper than trapping every store.
    EXPECT_LT(strict_bare.cycles_per_packet,
              strict_nested.cycles_per_packet);
    EXPECT_LT(strict_nested.cycles_per_packet,
              strict_emul.cycles_per_packet);
    EXPECT_LT(strict_emul.cycles_per_packet,
              strict_shadow.cycles_per_packet);

    // vm_exits are reported per window: zero on bare metal, present
    // on every guest platform for the baseline.
    EXPECT_EQ(strict_bare.vm_exits, 0u);
    EXPECT_GT(strict_emul.vm_exits, 0u);
    EXPECT_GT(strict_shadow.vm_exits, 0u);
    EXPECT_GT(strict_nested.vm_exits, 0u);

    // rIOMMU's driver path never exits after boot: the measurement
    // window is bit-identical to bare metal under nested.
    EXPECT_EQ(rio_nested.vm_exits, 0u);
    EXPECT_EQ(rio_nested.acct.total(), rio_bare.acct.total());
    EXPECT_EQ(rio_nested.cycles_per_packet, rio_bare.cycles_per_packet);

    // The paper-plus-virtualization headline: rIOMMU's advantage over
    // strict is strictly LARGER inside a nested guest than on bare
    // metal.
    const double adv_bare =
        strict_bare.cycles_per_packet - rio_bare.cycles_per_packet;
    const double adv_nested =
        strict_nested.cycles_per_packet - rio_nested.cycles_per_packet;
    EXPECT_GT(adv_nested, adv_bare);
}

TEST(VirtStream, DeterministicReplayInsideAGuest)
{
    workloads::StreamParams p = quickStream();
    p.measure_packets = 1000;
    p.warmup_packets = 200;
    for (Platform platform : {Platform::kEmulated, Platform::kNested}) {
        p.platform = platform;
        const auto a = workloads::runStream(ProtectionMode::kStrict,
                                            nic::mlxProfile(), p);
        const auto b = workloads::runStream(ProtectionMode::kStrict,
                                            nic::mlxProfile(), p);
        EXPECT_EQ(a.acct.total(), b.acct.total())
            << virt::platformName(platform);
        EXPECT_EQ(a.vm_exits, b.vm_exits)
            << virt::platformName(platform);
        EXPECT_EQ(a.cycles_per_packet, b.cycles_per_packet)
            << virt::platformName(platform);
    }
}

TEST(VirtStream, ComposesWithFaultInjectionAndLifecycleChurn)
{
    workloads::StreamParams p = quickStream();
    p.measure_packets = 1500;
    p.warmup_packets = 300;
    p.platform = Platform::kEmulated;
    p.fault_rate = 0.0005;
    p.fault_seed = 7;
    p.churn_per_ms = 0.2;
    p.churn_seed = 11;

    const auto a = workloads::runStream(ProtectionMode::kStrict,
                                        nic::mlxProfile(), p);
    EXPECT_EQ(a.tx_packets, p.measure_packets);
    EXPECT_GT(a.vm_exits, 0u);
    EXPECT_GT(a.fault.injected, 0u);

    const auto b = workloads::runStream(ProtectionMode::kStrict,
                                        nic::mlxProfile(), p);
    EXPECT_EQ(a.acct.total(), b.acct.total());
    EXPECT_EQ(a.vm_exits, b.vm_exits);
    EXPECT_EQ(a.fault.injected, b.fault.injected);
}

TEST(VirtRr, EmulatedExitsLandOnTheRtt)
{
    workloads::RrParams p = workloads::rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 400;
    p.warmup_transactions = 50;

    const auto bare = workloads::runNetperfRr(ProtectionMode::kStrict,
                                              nic::mlxProfile(), p);
    p.platform = Platform::kEmulated;
    const auto emul = workloads::runNetperfRr(ProtectionMode::kStrict,
                                              nic::mlxProfile(), p);
    EXPECT_EQ(bare.vm_exits, 0u);
    EXPECT_GT(emul.vm_exits, 0u);
    // Latency-sensitive regime: every exit is on the critical path.
    EXPECT_GT(1e6 / emul.transactions_per_sec,
              1e6 / bare.transactions_per_sec);
}

// ---- lifecycle composition --------------------------------------------------

class VirtLifecycleTest : public ::testing::TestWithParam<Platform>
{
};

TEST_P(VirtLifecycleTest, QuiesceLeaksNothingInsideAGuest)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, GetParam());
    m.bringUp();
    m.core().post([&] {
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
    });
    sim.run();

    ASSERT_TRUE(m.quiesceNic(0).isOk());
    EXPECT_TRUE(m.handle().detached());
    const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle());
    EXPECT_TRUE(rep.clean()) << rep.toString();
    (void)guest;
}

TEST_P(VirtLifecycleTest, SurpriseUnplugAndReplugStayClean)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    virt::Guest guest(m, GetParam());
    m.bringUp();
    m.core().post([&] {
        for (int i = 0; i < 6; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
        m.surpriseUnplugNic(0);
        m.removeCleanupNic(0);
    });
    sim.run();
    EXPECT_TRUE(m.ctx().checkHandleLeaks(m.handle()).clean());

    // The trap bindings survive the replug (the handle object is
    // reused), so the guest keeps trapping afterwards.
    const u64 exits_before = guest.exitModel().exits();
    m.core().post([&] {
        m.replugNic(0);
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
    });
    sim.run();
    if (GetParam() != Platform::kNested) {
        EXPECT_GT(guest.exitModel().exits(), exits_before);
    }
    ASSERT_TRUE(m.quiesceNic(0).isOk());
    EXPECT_TRUE(m.ctx().checkHandleLeaks(m.handle()).clean());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, VirtLifecycleTest,
                         ::testing::Values(Platform::kEmulated,
                                           Platform::kShadow,
                                           Platform::kNested),
                         [](const auto &info) {
                             return std::string(
                                 virt::platformName(info.param));
                         });

// ---- handle-leak audit across modes under a guest ---------------------------

class VirtModeTest : public ::testing::TestWithParam<ProtectionMode>
{
};

TEST_P(VirtModeTest, EveryModeRunsUnmodifiedInsideAGuest)
{
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    virt::Guest guest(m, Platform::kEmulated);
    m.bringUp();
    m.core().post([&] {
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
    });
    sim.run();
    ASSERT_TRUE(m.quiesceNic(0).isOk());
    EXPECT_TRUE(m.ctx().checkHandleLeaks(m.handle()).clean());
    (void)guest;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, VirtModeTest, ::testing::ValuesIn(dma::kEvaluatedModes),
    [](const auto &info) {
        // Test names must be identifiers: strict+ -> strictPlus, ...
        std::string name = dma::modeName(info.param);
        std::string out;
        for (char c : name) {
            if (c == '+')
                out += "Plus";
            else if (c == '-')
                out += "Minus";
            else
                out += c;
        }
        return out;
    });

} // namespace
} // namespace rio
