/**
 * @file
 * Randomized cross-checking of the translation hardware against
 * simple reference models: thousands of random map/unmap/access
 * operations where every translate() outcome (address AND
 * fault-or-not) must agree with an oracle built from plain maps.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "des/parallel.h"
#include "dma/baseline_handle.h"
#include "dma/dma_context.h"
#include "migrate/migrate.h"
#include "riommu/rdevice.h"
#include "sys/cluster.h"
#include "sys/machine.h"
#include "virt/guest.h"
#include "workloads/fleet.h"

namespace rio {
namespace {

using iommu::Access;
using iommu::Bdf;
using iommu::DmaDir;

struct FuzzParam
{
    u64 seed;
    int ops;
};

// ---- baseline IOMMU vs oracle ------------------------------------------------

class IommuFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(IommuFuzz, TranslateAgreesWithOracle)
{
    const auto [seed, ops] = GetParam();
    Rng rng(seed);
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    iommu::Iommu iommu(pm, cost);
    iommu::IoPageTable table(pm, false, cost, nullptr);
    const Bdf bdf{0, 3, 0};
    iommu.attachDevice(bdf, &table);

    struct Entry
    {
        u64 phys_pfn;
        bool writable;
    };
    std::unordered_map<u64, Entry> oracle; // iova pfn -> entry

    for (int i = 0; i < ops; ++i) {
        const u64 pfn = rng.below(256); // small space: collisions likely
        const int action = static_cast<int>(rng.below(4));
        if (action == 0) { // map
            const bool writable = rng.chance(0.5);
            const u64 phys = 0x100 + rng.below(1000);
            Status s = table.map(pfn, phys,
                                 writable ? DmaDir::kBidir
                                          : DmaDir::kToDevice);
            if (oracle.count(pfn)) {
                EXPECT_EQ(s.code(), ErrorCode::kExists);
            } else {
                ASSERT_TRUE(s.isOk());
                oracle[pfn] = {phys, writable};
            }
        } else if (action == 1) { // unmap
            Status s = table.unmap(pfn);
            EXPECT_EQ(s.isOk(), oracle.erase(pfn) == 1);
            iommu.invalidateIotlbEntry(bdf, pfn); // strict semantics
        } else { // access (read or write)
            const Access acc =
                rng.chance(0.5) ? Access::kRead : Access::kWrite;
            const u64 offset = rng.below(kPageSize);
            auto t = iommu.translate(bdf, (pfn << kPageShift) | offset,
                                     acc);
            auto it = oracle.find(pfn);
            const bool should_ok =
                it != oracle.end() &&
                (acc == Access::kRead || it->second.writable);
            ASSERT_EQ(t.isOk(), should_ok)
                << "op " << i << " pfn " << pfn;
            if (should_ok) {
                EXPECT_EQ(t.value().pa,
                          (it->second.phys_pfn << kPageShift) | offset);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IommuFuzz,
                         ::testing::Values(FuzzParam{11, 4000},
                                           FuzzParam{22, 4000},
                                           FuzzParam{33, 8000},
                                           FuzzParam{44, 2000}));

// ---- rIOMMU ring vs oracle ----------------------------------------------------

class RiommuFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(RiommuFuzz, RingStateAgreesWithOracle)
{
    const auto [seed, ops] = GetParam();
    Rng rng(seed);
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    riommu::Riommu riommu(pm, cost);
    const Bdf bdf{0, 4, 0};
    constexpr u32 kRing = 32;
    riommu::RDevice dev(riommu, pm, bdf, std::vector<u32>{kRing}, true,
                        cost, nullptr);
    const PhysAddr pool = pm.allocContiguous(64 * kPageSize);

    struct Live
    {
        riommu::RIova iova;
        PhysAddr pa;
        u32 size;
        bool writable;
    };
    std::deque<Live> fifo; // ring semantics: map and unmap FIFO

    for (int i = 0; i < ops; ++i) {
        const int action = static_cast<int>(rng.below(3));
        if (action == 0 && fifo.size() < kRing) { // map
            const u32 size = 1 + static_cast<u32>(rng.below(4096));
            const PhysAddr pa = pool + rng.below(60 * kPageSize);
            const bool writable = rng.chance(0.5);
            auto m = dev.map(0, pa, size,
                             writable ? DmaDir::kBidir
                                      : DmaDir::kToDevice);
            ASSERT_TRUE(m.isOk());
            fifo.push_back({m.value(), pa, size, writable});
        } else if (action == 1 && !fifo.empty()) { // unmap oldest
            ASSERT_TRUE(
                dev.unmap(fifo.front().iova, rng.chance(0.3)).isOk());
            fifo.pop_front();
        } else if (!fifo.empty()) { // access random live mapping
            const Live &l = fifo[rng.below(fifo.size())];
            const u32 offset = static_cast<u32>(rng.below(l.size + 16));
            const Access acc =
                rng.chance(0.5) ? Access::kRead : Access::kWrite;
            auto t = riommu.translate(bdf, l.iova.withOffset(offset),
                                      acc, 1);
            const bool should_ok =
                offset < l.size &&
                (acc == Access::kRead || l.writable);
            ASSERT_EQ(t.isOk(), should_ok) << "op " << i;
            if (should_ok) {
                EXPECT_EQ(t.value().pa, l.pa + offset);
            }
        }
        ASSERT_EQ(dev.nmapped(0), fifo.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RiommuFuzz,
                         ::testing::Values(FuzzParam{5, 6000},
                                           FuzzParam{6, 6000},
                                           FuzzParam{7, 12000}));

// ---- fault injection vs oracle -------------------------------------------------

/**
 * The injector makes exactly one Bernoulli draw from its seeded Rng
 * per top-level device access, so an oracle holding a same-seeded Rng
 * predicts WHICH access faults. The campaign runs every protection
 * mode: agreement on the faulting op, on the recorded reason code,
 * and on the post-recovery translation state (a repaired mapping
 * must translate again).
 */
struct FaultFuzzParam
{
    dma::ProtectionMode mode;
    u64 seed;
    int ops;
};

/** Append seeds from @p env ("101,102,...") to @p seeds — the CI
 * lanes widen fuzz campaigns without a rebuild. */
void
appendExtraSeeds(std::vector<u64> &seeds, const char *env)
{
    const char *extra = std::getenv(env);
    if (!extra)
        return;
    u64 v = 0;
    bool have = false;
    for (const char *p = extra;; ++p) {
        if (*p >= '0' && *p <= '9') {
            v = v * 10 + static_cast<u64>(*p - '0');
            have = true;
        } else {
            if (have)
                seeds.push_back(v);
            v = 0;
            have = false;
            if (!*p)
                break;
        }
    }
}

std::vector<FaultFuzzParam>
faultFuzzParams()
{
    // 8 base seeds; RIO_FUZZ_EXTRA_SEEDS appends more (sanitize CI).
    std::vector<u64> seeds = {3, 7, 31, 64, 129, 1023, 4096, 65537};
    appendExtraSeeds(seeds, "RIO_FUZZ_EXTRA_SEEDS");
    std::vector<FaultFuzzParam> params;
    for (dma::ProtectionMode mode : dma::kEvaluatedModes)
        for (u64 seed : seeds)
            params.push_back({mode, seed, 400});
    return params;
}

class FaultFuzz : public ::testing::TestWithParam<FaultFuzzParam>
{
};

TEST_P(FaultFuzz, InjectedFaultsAgreeWithOracle)
{
    const auto [mode, seed, ops] = GetParam();
    constexpr double kRate = 0.2;
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    const Bdf bdf{0, 3, 0};
    auto handle = ctx.makeHandle(mode, bdf, &acct, {64});
    handle->setFaultPolicy(dma::FaultPolicy::kAbort);
    dma::FaultInjectConfig cfg;
    cfg.rate = kRate;
    cfg.seed = seed;
    handle->setFaultInjection(cfg);
    Rng oracle(seed); // mirrors the injector's stream draw-for-draw

    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 2048, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    const u64 addr = m.value().device_addr;

    const bool baseline_iommu = mode == dma::ProtectionMode::kStrict ||
                                mode == dma::ProtectionMode::kStrictPlus ||
                                mode == dma::ProtectionMode::kDefer ||
                                mode == dma::ProtectionMode::kDeferPlus;
    const bool riommu = dma::modeUsesRiommu(mode);

    u64 predicted = 0;
    u64 v = 0;
    for (int i = 0; i < ops; ++i) {
        const size_t iommu_faults_before = ctx.iommu().faults().size();
        const size_t ring_faults_before = ctx.riommu().faults().size();
        const bool predict = oracle.chance(kRate);
        predicted += predict ? 1 : 0;
        Status s = (i % 2) ? handle->deviceWrite(addr, &v, 8)
                           : handle->deviceRead(addr, &v, 8);
        ASSERT_EQ(!s.isOk(), predict)
            << "op " << i << ": oracle and injector disagree";
        if (!predict)
            continue;

        // Reason code: injected damage unmaps the translation, so
        // the hardware reports not-present (modes with no modeled
        // translation synthesize a bus abort and record nothing).
        if (baseline_iommu) {
            ASSERT_GT(ctx.iommu().faults().size(), iommu_faults_before);
            const iommu::FaultRecord &rec = ctx.iommu().faults().back();
            EXPECT_EQ(rec.reason, iommu::FaultReason::kNotPresent);
            EXPECT_EQ(rec.iova, addr);
            EXPECT_EQ(rec.bdf.pack(), bdf.pack());
        } else if (riommu) {
            ASSERT_GT(ctx.riommu().faults().size(), ring_faults_before);
            const iommu::FaultRecord &rec = ctx.riommu().faults().back();
            EXPECT_EQ(rec.reason, iommu::FaultReason::kNotPresent);
            EXPECT_EQ(rec.iova, addr);
            // Recovery acknowledged (cleared) the ring latch.
            EXPECT_EQ(ctx.riommu().ringFault(bdf, 0), nullptr);
        }

        // Post-recovery state: the repaired mapping translates again.
        // Each verification access draws from the same stream, so
        // mirror it (10 consecutive injections: p = 0.2^10).
        bool recovered_ok = false;
        for (int t = 0; t < 10 && !recovered_ok; ++t) {
            const bool vinj = oracle.chance(kRate);
            predicted += vinj ? 1 : 0;
            Status vs = handle->deviceRead(addr, &v, 8);
            ASSERT_EQ(!vs.isOk(), vinj) << "verify op " << i;
            recovered_ok = vs.isOk();
        }
        EXPECT_TRUE(recovered_ok);
    }

    EXPECT_EQ(handle->faultStats().injected, predicted);
    EXPECT_GE(predicted, 1u) << "400 ops at 20% should inject";
    // Repair left the mapping whole: teardown must not trip the
    // driver's unmap assertions.
    EXPECT_TRUE(handle->unmap(m.value(), true).isOk());
}

TEST_P(FaultFuzz, RetryRemapDeliversEveryAccess)
{
    const auto [mode, seed, ops] = GetParam();
    constexpr double kRate = 0.2;
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(mode, Bdf{0, 3, 0}, &acct, {64});
    handle->setFaultPolicy(dma::FaultPolicy::kRetryRemap);
    dma::FaultInjectConfig cfg;
    cfg.rate = kRate;
    cfg.seed = seed;
    handle->setFaultInjection(cfg);
    Rng oracle(seed);

    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 2048, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());

    u64 predicted = 0;
    u64 v = 0;
    for (int i = 0; i < ops; ++i) {
        predicted += oracle.chance(kRate) ? 1 : 0;
        // Retries replay the access inline (no further draws), so
        // with remap every access must come back successful.
        Status s = (i % 2)
                       ? handle->deviceWrite(m.value().device_addr, &v, 8)
                       : handle->deviceRead(m.value().device_addr, &v, 8);
        ASSERT_TRUE(s.isOk()) << "op " << i << ": " << s.toString();
    }
    const dma::FaultStats st = handle->faultStats();
    EXPECT_EQ(st.injected, predicted);
    EXPECT_EQ(st.faults_seen, st.injected);
    EXPECT_EQ(st.recovered, st.injected);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_TRUE(handle->unmap(m.value(), true).isOk());
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, FaultFuzz, ::testing::ValuesIn(faultFuzzParams()),
    [](const ::testing::TestParamInfo<FaultFuzzParam> &info) {
        std::string name = dma::modeName(info.param.mode);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name + "_s" + std::to_string(info.param.seed);
    });

// ---- lifecycle churn fuzz ------------------------------------------------------

/**
 * Randomized device-lifecycle interleavings: a seeded Rng drives a
 * NIC through bursts of mapped sends, surprise unplugs, detached DMA
 * attempts, and replugs, in every protection mode, with fault
 * injection disarmed. After every removal cleanup the leak detector
 * must come back clean, every detached access must produce exactly
 * one typed record, and the final quiesce must leave nothing behind.
 * RIO_CHURN_EXTRA_SEEDS appends seeds (the lifecycle CI soak).
 */
struct LifecycleFuzzParam
{
    dma::ProtectionMode mode;
    u64 seed;
    int steps;
};

std::vector<LifecycleFuzzParam>
lifecycleFuzzParams()
{
    std::vector<u64> seeds = {2, 17, 301};
    appendExtraSeeds(seeds, "RIO_CHURN_EXTRA_SEEDS");
    std::vector<LifecycleFuzzParam> params;
    for (dma::ProtectionMode mode : dma::kEvaluatedModes)
        for (u64 seed : seeds)
            params.push_back({mode, seed, 60});
    return params;
}

class LifecycleFuzz : public ::testing::TestWithParam<LifecycleFuzzParam>
{
};

TEST_P(LifecycleFuzz, RandomUnplugReplugPointsLeakNothing)
{
    const auto [mode, seed, steps] = GetParam();
    Rng rng(seed);
    des::Simulator sim;
    nic::NicProfile profile; // small rings for fast runs
    profile.name = "fuzz";
    profile.tx_buffers_per_packet = 1;
    profile.rx_rings = 1;
    profile.rx_ring_entries = 8;
    profile.tx_ring_entries = 64;
    profile.tx_completion_batch = 8;
    sys::Machine m(sim, mode, profile);
    m.bringUp();

    u64 expected_detach_faults = 0;
    u64 unplugs = 0, replugs = 0;
    for (int i = 0; i < steps; ++i) {
        if (m.nic().isUp()) {
            if (rng.chance(0.3)) {
                // Surprise unplug mid-burst, at a random ring point.
                const u64 pre = rng.below(24);
                m.core().post([&, pre] {
                    for (u64 j = 0;
                         j < pre && m.nic().txSpacePackets(1000) > 0;
                         ++j) {
                        net::Packet pkt;
                        pkt.payload_bytes = 1000;
                        ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
                    }
                    m.surpriseUnplugNic(0);
                    m.removeCleanupNic(0);
                });
                sim.run();
                ++unplugs;
                const dma::LeakReport rep =
                    m.ctx().checkHandleLeaks(m.handle());
                ASSERT_TRUE(rep.clean())
                    << "step " << i << ": " << rep.toString();
            } else {
                const u64 burst = rng.below(16);
                m.core().post([&, burst] {
                    for (u64 j = 0;
                         j < burst && m.nic().txSpacePackets(1000) > 0;
                         ++j) {
                        net::Packet pkt;
                        pkt.payload_bytes = 1000;
                        ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
                    }
                });
                sim.run();
            }
        } else {
            if (rng.chance(0.4)) {
                // DMA through the detached BDF: one typed record per
                // attempt, never undefined behaviour.
                u64 v = 0;
                Status s = m.handle().deviceRead(0x4000, &v, 8);
                EXPECT_EQ(s.code(), ErrorCode::kDetached);
                ++expected_detach_faults;
            } else {
                m.core().post([&] {
                    Status rs = m.replugNic(0);
                    ASSERT_TRUE(rs.isOk()) << rs.toString();
                });
                sim.run();
                ++replugs;
            }
        }
    }
    EXPECT_EQ(m.handle().detachFaults().size(), expected_detach_faults);
    for (const auto &rec : m.handle().detachFaults())
        EXPECT_EQ(rec.reason, iommu::FaultReason::kDetached);
    EXPECT_EQ(m.lifecycleStats().surprise_unplugs, unplugs);
    EXPECT_EQ(m.lifecycleStats().replugs, replugs);

    // Orderly exit from whatever state the walk ended in.
    if (!m.nic().isUp()) {
        m.core().post([&] { ASSERT_TRUE(m.replugNic(0).isOk()); });
        sim.run();
    }
    ASSERT_TRUE(m.quiesceNic(0).isOk());
    const dma::LeakReport final_rep = m.ctx().checkHandleLeaks(m.handle());
    EXPECT_TRUE(final_rep.clean()) << final_rep.toString();
    EXPECT_EQ(m.handle().liveMappings(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, LifecycleFuzz,
    ::testing::ValuesIn(lifecycleFuzzParams()),
    [](const ::testing::TestParamInfo<LifecycleFuzzParam> &info) {
        std::string name = dma::modeName(info.param.mode);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name + "_s" + std::to_string(info.param.seed);
    });

// ---- virtualization fuzz -------------------------------------------------------

/**
 * Randomized guest campaigns: boot a guest under each vIOMMU strategy
 * (emulated / shadow / nested), drive a random interleaving of mapped
 * NIC bursts, direct map/DMA/unmap round trips, and surprise
 * unplug/replug cycles, then tear the guest down. Invariants: DMA data
 * written through the handle reads back intact (the stage-2 identity
 * never corrupts the data path), the shadow table mirrors the guest
 * radix table at every step, vmexit counts only grow, the leak
 * detector stays clean across every removal, and the final quiesce
 * leaves nothing behind. RIO_VIRT_EXTRA_SEEDS appends seeds (CI soak).
 */
struct VirtFuzzParam
{
    dma::ProtectionMode mode;
    virt::Platform platform;
    u64 seed;
    int steps;
};

std::vector<VirtFuzzParam>
virtFuzzParams()
{
    std::vector<u64> seeds = {13, 59, 277};
    appendExtraSeeds(seeds, "RIO_VIRT_EXTRA_SEEDS");
    const std::array<virt::Platform, 3> platforms = {
        virt::Platform::kEmulated, virt::Platform::kShadow,
        virt::Platform::kNested};
    // One radix mode, one magazine mode, one rIOMMU mode: the three
    // translation structures a strategy can trap on.
    const std::array<dma::ProtectionMode, 3> modes = {
        dma::ProtectionMode::kStrict, dma::ProtectionMode::kDeferPlus,
        dma::ProtectionMode::kRiommu};
    std::vector<VirtFuzzParam> params;
    for (dma::ProtectionMode mode : modes)
        for (virt::Platform platform : platforms)
            for (u64 seed : seeds)
                params.push_back({mode, platform, seed, 40});
    return params;
}

class VirtFuzz : public ::testing::TestWithParam<VirtFuzzParam>
{
};

TEST_P(VirtFuzz, GuestBurstsAndChurnStayCoherent)
{
    const auto [mode, platform, seed, steps] = GetParam();
    Rng rng(seed);
    des::Simulator sim;
    nic::NicProfile profile;
    profile.name = "fuzz";
    profile.tx_buffers_per_packet = 1;
    profile.rx_rings = 1;
    profile.rx_ring_entries = 8;
    profile.tx_ring_entries = 64;
    profile.tx_completion_batch = 8;
    sys::Machine m(sim, mode, profile);
    virt::Guest guest(m, platform); // guest boot: binds + hypercalls
    m.bringUp();

    auto *baseline = dynamic_cast<dma::BaselineDmaHandle *>(&m.handle());
    auto checkShadowMirror = [&] {
        if (platform == virt::Platform::kShadow && baseline) {
            ASSERT_NE(guest.shadowTable(0), nullptr);
            EXPECT_EQ(guest.shadowTable(0)->mappedPages(),
                      baseline->pageTable().mappedPages());
        }
    };

    u64 exits_seen = 0;
    for (int i = 0; i < steps; ++i) {
        const int action = static_cast<int>(rng.below(3));
        if (action == 0 && m.nic().isUp()) {
            const u64 burst = rng.below(12);
            m.core().post([&, burst] {
                for (u64 j = 0;
                     j < burst && m.nic().txSpacePackets(1000) > 0; ++j) {
                    net::Packet pkt;
                    pkt.payload_bytes = 1000;
                    ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
                }
            });
            sim.run();
        } else if (action == 1) {
            // Direct mapped-DMA round trip; data must survive the
            // strategy's translation path bit for bit. rid 1 is the
            // Tx-buffer ring (rid 0 holds the static descriptor-ring
            // mappings and is full after bringUp in rIOMMU modes).
            const PhysAddr buf = m.ctx().memory().allocFrame();
            auto mapping = m.handle().map(
                1, buf, 256 + static_cast<u32>(rng.below(1024)),
                DmaDir::kBidir);
            if (mapping.isOk()) {
                const u64 v = 0xfeed0000 + static_cast<u64>(i);
                ASSERT_TRUE(m.handle()
                                .deviceWrite(
                                    mapping.value().device_addr, &v, 8)
                                .isOk());
                u64 back = 0;
                ASSERT_TRUE(m.handle()
                                .deviceRead(
                                    mapping.value().device_addr, &back,
                                    8)
                                .isOk());
                EXPECT_EQ(back, v) << "step " << i;
                ASSERT_TRUE(m.handle()
                                .unmap(mapping.value(), rng.chance(0.5))
                                .isOk());
            } else {
                // Mid-outage (detached) or the ring is momentarily
                // full of in-flight Tx buffers (overflow) — both are
                // legitimate, recoverable outcomes.
                EXPECT_TRUE(mapping.status().code() ==
                                ErrorCode::kDetached ||
                            mapping.status().code() ==
                                ErrorCode::kOverflow)
                    << mapping.status().toString();
            }
        } else {
            if (m.nic().isUp()) {
                m.core().post([&] {
                    m.surpriseUnplugNic(0);
                    m.removeCleanupNic(0);
                });
                sim.run();
                ASSERT_TRUE(
                    m.ctx().checkHandleLeaks(m.handle()).clean())
                    << "step " << i;
            } else {
                m.core().post(
                    [&] { ASSERT_TRUE(m.replugNic(0).isOk()); });
                sim.run();
            }
        }
        checkShadowMirror();
        // Exits only grow, and the aggregate stats stay coherent.
        EXPECT_GE(guest.exitModel().exits(), exits_seen);
        exits_seen = guest.exitModel().exits();
        EXPECT_EQ(guest.stats().vm_exits, exits_seen);
    }

    // Teardown: orderly quiesce inside the guest, nothing left over.
    if (!m.nic().isUp()) {
        m.core().post([&] { ASSERT_TRUE(m.replugNic(0).isOk()); });
        sim.run();
    }
    ASSERT_TRUE(m.quiesceNic(0).isOk());
    const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle());
    EXPECT_TRUE(rep.clean()) << rep.toString();
    checkShadowMirror();
    if (dma::modeUsesRiommu(mode) &&
        platform != virt::Platform::kShadow) {
        EXPECT_GT(guest.stats().hypercalls, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesModesSeeds, VirtFuzz,
    ::testing::ValuesIn(virtFuzzParams()),
    [](const ::testing::TestParamInfo<VirtFuzzParam> &info) {
        std::string name = dma::modeName(info.param.mode);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name + "_" +
               virt::platformName(info.param.platform) + "_s" +
               std::to_string(info.param.seed);
    });

// ---- cluster fabric fuzz -------------------------------------------------------

/**
 * Randomized cluster campaigns: a 2-3 machine RDMA fabric under a
 * seed-derived mix of connection churn, incast bursts into machine 0,
 * Zipf-skewed traffic, and (half the seeds) translation-fault
 * injection — the combination that exercises QP slot recycling, the
 * kClosing drain path, NAK completions, and cross-lane mail ordering
 * at once. Each campaign runs twice, side by side on two parallelFor
 * threads, and the two reports must agree field for field: a cluster
 * replays exactly whatever runs next to it. Invariants
 * on top: every successful post produces exactly one CQE (ok or
 * error), fault-free configs complete error-free, churn configs
 * actually tear down and re-establish QPs, and the leak detector is
 * clean on every machine after quiesce.
 * RIO_CLUSTER_EXTRA_SEEDS appends seeds (the sanitize CI soak).
 */
struct ClusterFuzzParam
{
    dma::ProtectionMode mode;
    u64 seed;
};

std::vector<ClusterFuzzParam>
clusterFuzzParams()
{
    std::vector<u64> seeds = {5, 23, 411};
    appendExtraSeeds(seeds, "RIO_CLUSTER_EXTRA_SEEDS");
    // One radix mode, one magazine mode, one rIOMMU mode — the three
    // translation structures the remote-access path can stress.
    const std::array<dma::ProtectionMode, 3> modes = {
        dma::ProtectionMode::kStrict, dma::ProtectionMode::kDeferPlus,
        dma::ProtectionMode::kRiommu};
    std::vector<ClusterFuzzParam> params;
    for (dma::ProtectionMode mode : modes)
        for (u64 seed : seeds)
            params.push_back({mode, seed});
    return params;
}

struct ClusterCampaign
{
    workloads::FleetReport rep;
    double fault_rate = 0;
    u32 churn_period = 0;
};

/** Derive the whole campaign shape from @p seed and run it. */
ClusterCampaign
runClusterCampaign(dma::ProtectionMode mode, u64 seed)
{
    Rng shape(seed * 0xD1B54A32D192ED03ULL + 11);
    workloads::FleetParams p;
    p.connections = static_cast<u32>(8u << shape.below(4)); // 8..64
    p.zipf_theta = 0.5 + 0.1 * static_cast<double>(shape.below(8));
    p.read_fraction = 0.1 * static_cast<double>(shape.below(5));
    p.credits = static_cast<u32>(shape.range(4, 12));
    p.warmup_ops = 50;
    p.measure_ops = 300;
    p.incast_period_ops = static_cast<u32>(shape.range(20, 50));
    p.incast_burst = static_cast<u32>(shape.range(2, 5));
    p.churn_period_ops = static_cast<u32>(shape.range(25, 75));
    p.seed = seed * 77 + 1;

    sys::ClusterConfig cfg;
    cfg.machines = static_cast<unsigned>(shape.range(2, 3));
    cfg.mode = mode;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    if (dma::modeUsesRiommu(mode)) {
        cfg.rdcache.model_fetch = true; // fetch model riding along
        cfg.rdcache.hot_entries = 64;
    }
    if (dma::modeUsesMagazineAllocator(mode))
        cfg.iova_cache_rounds = 8; // per-core depot pair in play
    cfg.fault_rate = shape.chance(0.5) ? 0.02 : 0.0;
    cfg.fault_seed = seed + 9;

    ClusterCampaign out;
    out.fault_rate = cfg.fault_rate;
    out.churn_period = p.churn_period_ops;
    sys::Cluster cluster(cfg);
    out.rep = workloads::runFleet(cluster, p);
    return out;
}

class ClusterFuzz : public ::testing::TestWithParam<ClusterFuzzParam>
{
};

TEST_P(ClusterFuzz, ChurnIncastFaultsReplayConcurrently)
{
    const auto [mode, seed] = GetParam();
    std::array<ClusterCampaign, 2> c;
    des::parallelFor(c.size(), 2, [&, mode = mode, seed = seed](size_t i) {
        c[i] = runClusterCampaign(mode, seed);
    });
    const ClusterCampaign &c1 = c[0];
    const workloads::FleetReport &r1 = c[0].rep;
    const workloads::FleetReport &r2 = c[1].rep;

    // Nothing left mapped on any machine after quiesce.
    EXPECT_TRUE(r1.leaks_clean);
    EXPECT_TRUE(r2.leaks_clean);

    // Conservation: one CQE per successful post, ok or error — the
    // drain at end of run and in the kClosing path loses nothing.
    EXPECT_EQ(r1.completions, r1.posts);
    EXPECT_EQ(r2.completions, r2.posts);
    EXPECT_EQ(r1.comp_errors,
              r1.remote_faults + r1.local_fault_drops);

    // The campaign actually exercised its levers.
    EXPECT_GT(r1.measured_ops, 0u);
    EXPECT_GT(r1.teardowns, 0u) << "churn period " << c1.churn_period
                                << " never tore a QP down";
    if (c1.fault_rate == 0.0) {
        EXPECT_EQ(r1.comp_errors, 0u);
        EXPECT_EQ(r1.remote_faults, 0u);
        EXPECT_EQ(r1.local_fault_drops, 0u);
    }

    // Two copies side by side replay identically, field for field.
    EXPECT_EQ(r1.measured_ops, r2.measured_ops);
    EXPECT_EQ(r1.total_ops, r2.total_ops);
    EXPECT_EQ(r1.measured_cycles, r2.measured_cycles);
    EXPECT_DOUBLE_EQ(r1.cycles_per_op, r2.cycles_per_op);
    EXPECT_EQ(r1.posts, r2.posts);
    EXPECT_EQ(r1.posts_blocked, r2.posts_blocked);
    EXPECT_EQ(r1.completions, r2.completions);
    EXPECT_EQ(r1.comp_errors, r2.comp_errors);
    EXPECT_EQ(r1.remote_faults, r2.remote_faults);
    EXPECT_EQ(r1.local_fault_drops, r2.local_fault_drops);
    EXPECT_EQ(r1.connects, r2.connects);
    EXPECT_EQ(r1.teardowns, r2.teardowns);
    EXPECT_EQ(r1.eob_unmaps, r2.eob_unmaps);
    EXPECT_DOUBLE_EQ(r1.avg_burst, r2.avg_burst);
    EXPECT_EQ(r1.riotlb.invalidations, r2.riotlb.invalidations);
    EXPECT_EQ(r1.riotlb.walks, r2.riotlb.walks);
    EXPECT_EQ(r1.rdcache.fetches, r2.rdcache.fetches);
    EXPECT_EQ(r1.rdcache.hot_hits, r2.rdcache.hot_hits);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, ClusterFuzz,
    ::testing::ValuesIn(clusterFuzzParams()),
    [](const ::testing::TestParamInfo<ClusterFuzzParam> &info) {
        std::string name = dma::modeName(info.param.mode);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name + "_s" + std::to_string(info.param.seed);
    });

/**
 * WireFuzz: the ClusterFuzz campaign on a hostile wire — seeded
 * drop/dup/delay injection, bounded ingress ports under incast,
 * hard-abort churn (app death stranding in-flight data), and the
 * RoCE-style reliability layer recovering behind it all. Same
 * determinism contract: two copies of each campaign run side by side
 * and the reports must agree field for field, now including the
 * retransmit/RTO/QP-error and late-arrival counters. Invariants on
 * top: CQE conservation survives loss (every post completes, ok or
 * error), the non-deferring modes leave no stale window
 * (late_landed == 0), and quiesce is leak-free on every machine.
 * RIO_WIRE_EXTRA_SEEDS appends seeds (the wire CI soak).
 */
std::vector<ClusterFuzzParam>
wireFuzzParams()
{
    std::vector<u64> seeds = {7, 31, 502};
    appendExtraSeeds(seeds, "RIO_WIRE_EXTRA_SEEDS");
    // One radix mode, one deferring mode (the stale-window side of
    // the late-arrival ledger), one rIOMMU mode.
    const std::array<dma::ProtectionMode, 3> modes = {
        dma::ProtectionMode::kStrict, dma::ProtectionMode::kDeferPlus,
        dma::ProtectionMode::kRiommu};
    std::vector<ClusterFuzzParam> params;
    for (dma::ProtectionMode mode : modes)
        for (u64 seed : seeds)
            params.push_back({mode, seed});
    return params;
}

/** Derive the storm shape from @p seed and run it. */
workloads::FleetReport
runWireCampaign(dma::ProtectionMode mode, u64 seed)
{
    Rng shape(seed * 0x9E3779B97F4A7C15ULL + 3);
    workloads::FleetParams p;
    p.connections = static_cast<u32>(8u << shape.below(3)); // 8..32
    p.credits = static_cast<u32>(shape.range(4, 12));
    p.warmup_ops = 50;
    p.measure_ops = 300;
    p.incast_period_ops = static_cast<u32>(shape.range(20, 50));
    p.incast_burst = static_cast<u32>(shape.range(2, 5));
    p.churn_period_ops = static_cast<u32>(shape.range(25, 75));
    p.churn_abort_fraction = shape.chance(0.5) ? 0.5 : 0.0;
    p.seed = seed * 131 + 5;

    sys::ClusterConfig cfg;
    cfg.machines = static_cast<unsigned>(shape.range(2, 3));
    cfg.mode = mode;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    const double loss =
        0.01 * static_cast<double>(shape.range(1, 5)); // 1%..5%
    cfg.wire.drop_rate = loss;
    cfg.wire.dup_rate = std::min(0.25, 3 * loss);
    cfg.wire.delay_rate = std::min(0.5, 10 * loss);
    cfg.wire.delay_max_ns = 20000 + 10000 * shape.below(5);
    if (shape.chance(0.5))
        cfg.wire.ingress_cap = static_cast<u32>(shape.range(8, 24));
    cfg.reliability.enabled = true;

    sys::Cluster cluster(cfg);
    return workloads::runFleet(cluster, p);
}

class WireFuzz : public ::testing::TestWithParam<ClusterFuzzParam>
{
};

TEST_P(WireFuzz, LossyFabricReplaysConcurrently)
{
    const auto [mode, seed] = GetParam();
    std::array<workloads::FleetReport, 2> r;
    des::parallelFor(r.size(), 2, [&, mode = mode, seed = seed](size_t i) {
        r[i] = runWireCampaign(mode, seed);
    });
    const workloads::FleetReport &r1 = r[0];
    const workloads::FleetReport &r2 = r[1];

    EXPECT_TRUE(r1.leaks_clean);
    EXPECT_TRUE(r2.leaks_clean);

    // Conservation under loss: a dropped packet either recovers by
    // retransmit or flushes as an error CQE — no post may vanish.
    EXPECT_EQ(r1.completions, r1.posts);
    EXPECT_EQ(r2.completions, r2.posts);

    // The storm actually stormed, and the recovery machinery ran.
    EXPECT_GT(r1.measured_ops, 0u);
    EXPECT_GT(r1.wire_drops, 0u);
    EXPECT_GT(r1.retransmits, 0u);

    // The protection claim, tiered. The deferring mode leaves its
    // stale-translation window open (batched flush). strict closes
    // that window but stays exposed to IOVA *reuse*: under churn the
    // freed range can be re-allocated to a live mapping, and a stale
    // rkey then translates — and lands — through it. Only the
    // ring-coded rIOVAs close both windows structurally: a recycled
    // QP slot regenerates the identical address (a matching rkey IS
    // the current translation), and a non-matching one can belong to
    // no other ring — it faults.
    if (dma::modeUsesRiommu(mode)) {
        EXPECT_EQ(r1.late_landed, 0u);
        EXPECT_EQ(r2.late_landed, 0u);
    }

    // Two copies side by side replay identically, field for field —
    // now including the reliability and wire-port counters.
    EXPECT_EQ(r1.measured_ops, r2.measured_ops);
    EXPECT_EQ(r1.total_ops, r2.total_ops);
    EXPECT_EQ(r1.measured_cycles, r2.measured_cycles);
    EXPECT_DOUBLE_EQ(r1.cycles_per_op, r2.cycles_per_op);
    EXPECT_EQ(r1.posts, r2.posts);
    EXPECT_EQ(r1.posts_blocked, r2.posts_blocked);
    EXPECT_EQ(r1.completions, r2.completions);
    EXPECT_EQ(r1.comp_errors, r2.comp_errors);
    EXPECT_EQ(r1.connects, r2.connects);
    EXPECT_EQ(r1.teardowns, r2.teardowns);
    EXPECT_EQ(r1.retransmits, r2.retransmits);
    EXPECT_EQ(r1.rto_fires, r2.rto_fires);
    EXPECT_EQ(r1.nak_seq, r2.nak_seq);
    EXPECT_EQ(r1.qp_errors, r2.qp_errors);
    EXPECT_EQ(r1.qp_error_recovered, r2.qp_error_recovered);
    EXPECT_EQ(r1.late_arrivals, r2.late_arrivals);
    EXPECT_EQ(r1.late_faulted, r2.late_faulted);
    EXPECT_EQ(r1.late_landed, r2.late_landed);
    EXPECT_EQ(r1.wire_drops, r2.wire_drops);
    EXPECT_EQ(r1.wire_dups, r2.wire_dups);
    EXPECT_EQ(r1.wire_delays, r2.wire_delays);
    EXPECT_EQ(r1.wire_congestion_drops, r2.wire_congestion_drops);
    EXPECT_EQ(r1.wire_peak_queue, r2.wire_peak_queue);
    EXPECT_EQ(r1.p50_latency_ns, r2.p50_latency_ns);
    EXPECT_EQ(r1.p99_latency_ns, r2.p99_latency_ns);
    EXPECT_EQ(r1.end_ns, r2.end_ns);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, WireFuzz, ::testing::ValuesIn(wireFuzzParams()),
    [](const ::testing::TestParamInfo<ClusterFuzzParam> &info) {
        std::string name = dma::modeName(info.param.mode);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name + "_s" + std::to_string(info.param.seed);
    });

/**
 * MigrateFuzz: seeded live migrations over a hostile fabric — the
 * shape (platform, guest size, dirty rate, loss, fleet width, and
 * whether the migration stream's QP is hard-aborted mid-round) all
 * derive from the seed. Invariants: the migration always completes,
 * the target arena is byte-identical to the source (no page lost,
 * forked, or double-applied, whatever the wire did), protected modes
 * land zero post-migration strays, both guest and hypervisor handles
 * quiesce leak-free, and the whole report agrees field for field
 * between two copies run side by side. RIO_MIGRATE_EXTRA_SEEDS appends
 * seeds (the migration CI soak).
 */
std::vector<ClusterFuzzParam>
migrateFuzzParams()
{
    std::vector<u64> seeds = {11, 47, 1009};
    appendExtraSeeds(seeds, "RIO_MIGRATE_EXTRA_SEEDS");
    const std::array<dma::ProtectionMode, 3> modes = {
        dma::ProtectionMode::kStrict, dma::ProtectionMode::kDeferPlus,
        dma::ProtectionMode::kRiommu};
    std::vector<ClusterFuzzParam> params;
    for (dma::ProtectionMode mode : modes)
        for (u64 seed : seeds)
            params.push_back({mode, seed});
    return params;
}

struct MigrateCampaign
{
    migrate::MigrationReport rep;
    u64 src_hash = 0;
    u64 dst_hash = 0;
    u64 stray_arrivals = 0;
    u64 stray_faulted = 0;
    u64 stray_landed = 0;
    bool leaks_clean = false;
    Nanos src_now = 0;
    Nanos dst_now = 0;
};

MigrateCampaign
runMigrateCampaign(dma::ProtectionMode mode, u64 seed)
{
    Rng shape(seed * 0x9E3779B97F4A7C15ULL + 17);
    const std::array<virt::Platform, 4> platforms = {
        virt::Platform::kBare, virt::Platform::kEmulated,
        virt::Platform::kShadow, virt::Platform::kNested};
    const virt::Platform platform = platforms[shape.below(4)];
    const u64 pages = 256u << shape.below(3); // 256..1024
    const double dirty = 100.0 * static_cast<double>(shape.range(0, 6));
    const double loss = 0.01 * static_cast<double>(shape.range(0, 4));
    const unsigned app_qps = static_cast<unsigned>(shape.range(2, 6));
    const bool abort_stream = shape.chance(0.5);
    const Nanos abort_at = 20000 * shape.range(1, 8);

    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.mode = mode;
    cfg.max_qps = app_qps + 4;
    cfg.migration = true;
    cfg.reliability.enabled = true;
    if (loss > 0.0) {
        cfg.wire.drop_rate = loss;
        cfg.wire.dup_rate = std::min(0.25, 3 * loss);
        cfg.wire.delay_rate = std::min(0.5, 10 * loss);
        cfg.wire.delay_max_ns = 60000;
    }
    sys::Cluster cl(cfg);

    std::unique_ptr<virt::Guest> sg, dg;
    unsigned src_binding = 0;
    if (platform != virt::Platform::kBare) {
        sg = std::make_unique<virt::Guest>(cl.machine(0), platform);
        dg = std::make_unique<virt::Guest>(cl.machine(1), platform);
        src_binding = sg->bindHandle(cl.handle(0), cl.machine(0).core(0));
        (void)dg->bindHandle(cl.handle(1), cl.machine(1).core(0));
    }
    cl.bringUp();

    bool stray_up = false;
    u32 stray_qp = 0;
    cl.machine(0).core(0).post([&] {
        for (unsigned q = 0; q < app_qps; ++q)
            (void)cl.nic(0).connect(1, nullptr);
    });
    cl.machine(1).core(0).post([&] {
        (void)cl.nic(1).connect(0, [&](u32 qp, bool ok) {
            stray_qp = qp;
            stray_up = ok;
        });
    });
    cl.run();

    migrate::MigrateConfig mc;
    mc.src = 0;
    mc.dst = 1;
    mc.platform = platform;
    mc.guest_pages = pages;
    mc.dirty_pages_per_ms = dirty;
    mc.dirty_seed = seed * 131 + 7;
    mc.converge_dirty = 16;
    migrate::Migrator mig(cl, mc);
    mig.setGuests(sg.get(), dg.get(), src_binding);
    mig.start();
    // Open-loop stray fire at the source's old fleet, outliving the
    // migration; plus the seeded mid-round stream abort.
    struct StrayState
    {
        sys::Cluster *cl;
        u32 qp;
        u64 remaining;
    };
    struct StrayTick
    {
        static void go(const std::shared_ptr<StrayState> &s)
        {
            if (s->remaining == 0)
                return;
            --s->remaining;
            (void)s->cl->nic(1).postWrite(s->qp, 256, 0);
            s->cl->lane(1).sim().scheduleAfter(8000, [s] { go(s); });
        }
    };
    auto stray = std::make_shared<StrayState>(
        StrayState{&cl, stray_qp, stray_up ? pages * 4 : 0});
    if (stray->remaining > 0)
        cl.lane(1).sim().scheduleAfter(8000,
                                       [stray] { StrayTick::go(stray); });
    if (abort_stream) {
        cl.lane(0).sim().scheduleAfter(abort_at, [&cl] {
            cl.machine(0).core(0).post([&cl] {
                for (u32 q = 0; q < cl.migNic(0).maxQps(); ++q)
                    (void)cl.migNic(0).abortQp(q);
            });
        });
    }
    cl.run();

    MigrateCampaign out;
    out.rep = mig.report();
    out.src_hash = mig.arenaHash(false);
    out.dst_hash = mig.arenaHash(true);
    const rdma::RdmaStats &s = cl.nic(0).stats();
    out.stray_arrivals = s.migrated_away_arrivals;
    out.stray_faulted = s.migrated_away_faulted;
    out.stray_landed = s.migrated_away_landed;
    out.src_now = cl.lane(0).sim().now();
    out.dst_now = cl.lane(1).sim().now();
    mig.cleanup();
    cl.quiesce();
    out.leaks_clean = true;
    for (unsigned m = 0; m < 2; ++m) {
        out.leaks_clean &= cl.checkLeaks(m).clean();
        out.leaks_clean &= cl.checkMigLeaks(m).clean();
    }
    return out;
}

class MigrateFuzz : public ::testing::TestWithParam<ClusterFuzzParam>
{
};

TEST_P(MigrateFuzz, HostileMigrationConvergesIdenticallyConcurrently)
{
    const auto [mode, seed] = GetParam();
    std::array<MigrateCampaign, 2> c;
    des::parallelFor(c.size(), 2, [&, mode = mode, seed = seed](size_t i) {
        c[i] = runMigrateCampaign(mode, seed);
    });
    const MigrateCampaign &c1 = c[0];
    const MigrateCampaign &c2 = c[1];

    EXPECT_TRUE(c1.rep.completed);
    EXPECT_FALSE(c1.rep.failed);
    EXPECT_EQ(c1.src_hash, c1.dst_hash) << "guest RAM diverged";
    EXPECT_TRUE(c1.leaks_clean);
    EXPECT_TRUE(c2.leaks_clean);
    EXPECT_GE(c1.rep.pages_shipped, 1u);
    if (dma::modeUsesRiommu(mode)) {
        EXPECT_EQ(c1.stray_landed, 0u);
    }

    // Two copies side by side replay identically, field for field.
    EXPECT_EQ(c1.rep.rounds, c2.rep.rounds);
    EXPECT_EQ(c1.rep.pages_shipped, c2.rep.pages_shipped);
    EXPECT_EQ(c1.rep.pages_reshipped, c2.rep.pages_reshipped);
    EXPECT_EQ(c1.rep.page_naks, c2.rep.page_naks);
    EXPECT_EQ(c1.rep.state_chunks, c2.rep.state_chunks);
    EXPECT_EQ(c1.rep.state_bytes, c2.rep.state_bytes);
    EXPECT_EQ(c1.rep.mappings_replayed, c2.rep.mappings_replayed);
    EXPECT_EQ(c1.rep.reg_hypercalls, c2.rep.reg_hypercalls);
    EXPECT_EQ(c1.rep.live_rings, c2.rep.live_rings);
    EXPECT_EQ(c1.rep.stream_qp_errors, c2.rep.stream_qp_errors);
    EXPECT_EQ(c1.rep.dirtier_writes, c2.rep.dirtier_writes);
    EXPECT_EQ(c1.rep.blackout_ns, c2.rep.blackout_ns);
    EXPECT_EQ(c1.rep.total_ns, c2.rep.total_ns);
    EXPECT_EQ(c1.src_hash, c2.src_hash);
    EXPECT_EQ(c1.dst_hash, c2.dst_hash);
    EXPECT_EQ(c1.stray_arrivals, c2.stray_arrivals);
    EXPECT_EQ(c1.stray_faulted, c2.stray_faulted);
    EXPECT_EQ(c1.stray_landed, c2.stray_landed);
    EXPECT_EQ(c1.src_now, c2.src_now);
    EXPECT_EQ(c1.dst_now, c2.dst_now);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, MigrateFuzz,
    ::testing::ValuesIn(migrateFuzzParams()),
    [](const ::testing::TestParamInfo<ClusterFuzzParam> &info) {
        std::string name = dma::modeName(info.param.mode);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name + "_s" + std::to_string(info.param.seed);
    });

// ---- overflow under pressure ---------------------------------------------------

TEST(RiommuFuzzEdge, FullRingAlwaysOverflowsNeverCorrupts)
{
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    riommu::Riommu riommu(pm, cost);
    riommu::RDevice dev(riommu, pm, Bdf{0, 4, 0}, std::vector<u32>{4},
                        true, cost, nullptr);
    const PhysAddr pa = pm.allocFrame();
    std::vector<riommu::RIova> live;
    for (int i = 0; i < 4; ++i)
        live.push_back(dev.map(0, pa, 8, DmaDir::kBidir).value());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dev.map(0, pa, 8, DmaDir::kBidir).status().code(),
                  ErrorCode::kOverflow);
    // Everything mapped before the overflow storm still translates.
    for (const auto &iova : live) {
        EXPECT_TRUE(
            riommu.translate(Bdf{0, 4, 0}, iova, Access::kRead, 1)
                .isOk());
    }
}

} // namespace
} // namespace rio
