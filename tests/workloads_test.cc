/**
 * @file
 * Integration tests over the full simulation stack: the workload
 * drivers reproduce the paper's qualitative results as testable
 * properties — mode ordering, calibration anchors, line-rate capping,
 * latency ordering, and bit-for-bit determinism.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "des/simulator.h"
#include "dma/baseline_handle.h"
#include "iova/linux_allocator.h"
#include "sys/machine.h"
#include "workloads/netperf_rr.h"
#include "workloads/storage.h"
#include "workloads/request_load.h"
#include "workloads/stream.h"

/** Global operator new calls in this binary (the steady-state
 * allocation guard compares them across stream lengths). */
static std::atomic<unsigned long> g_operator_news{0};

void *
operator new(std::size_t size)
{
    g_operator_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// The replaced operator new is malloc, so free() is its match; GCC
// cannot tell once the delete is inlined into a new-expression's user.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace rio::workloads {
namespace {

using dma::ProtectionMode;

StreamParams
quickStream(const nic::NicProfile &profile)
{
    StreamParams p = streamParamsFor(profile);
    p.measure_packets = 6000;
    p.warmup_packets = 1500;
    return p;
}

TEST(StreamTest, NoneModeHitsCalibratedCyclesPerPacket)
{
    const auto r = runStream(ProtectionMode::kNone, nic::mlxProfile(),
                             quickStream(nic::mlxProfile()));
    // Paper Figure 7: C_none = 1,816 cycles/packet.
    EXPECT_NEAR(r.cycles_per_packet, 1816.0, 40.0);
    EXPECT_GT(r.throughput_gbps, 15.0);
    EXPECT_GT(r.cpu, 0.95) << "mlx stream is CPU-bound";
}

TEST(StreamTest, ThroughputFollowsTheInverseCycleModel)
{
    // Figure 8's law: throughput ~ 1/C.
    const auto none = runStream(ProtectionMode::kNone, nic::mlxProfile(),
                                quickStream(nic::mlxProfile()));
    const auto strict = runStream(ProtectionMode::kStrict,
                                  nic::mlxProfile(),
                                  quickStream(nic::mlxProfile()));
    const double ratio_tput = none.throughput_gbps / strict.throughput_gbps;
    const double ratio_c = strict.cycles_per_packet / none.cycles_per_packet;
    EXPECT_NEAR(ratio_tput, ratio_c, 0.15 * ratio_c);
}

TEST(StreamTest, ModeOrderingMatchesThePaper)
{
    // Paper Fig. 12 mlx/stream: strict < strict+ < defer < defer+ <
    // riommu- < riommu < none.
    const ProtectionMode order[] = {
        ProtectionMode::kStrict,   ProtectionMode::kStrictPlus,
        ProtectionMode::kDefer,    ProtectionMode::kDeferPlus,
        ProtectionMode::kRiommuNc, ProtectionMode::kRiommu,
        ProtectionMode::kNone};
    double prev = 0;
    for (ProtectionMode mode : order) {
        const auto r = runStream(mode, nic::mlxProfile(),
                                 quickStream(nic::mlxProfile()));
        EXPECT_GT(r.throughput_gbps, prev)
            << dma::modeName(mode) << " must beat the previous mode";
        prev = r.throughput_gbps;
    }
}

TEST(StreamTest, RiommuVsStrictGapIsLarge)
{
    const auto strict = runStream(ProtectionMode::kStrict,
                                  nic::mlxProfile(),
                                  quickStream(nic::mlxProfile()));
    const auto riommu = runStream(ProtectionMode::kRiommu,
                                  nic::mlxProfile(),
                                  quickStream(nic::mlxProfile()));
    // Paper: 7.56x. Require the right order of magnitude.
    EXPECT_GT(riommu.throughput_gbps / strict.throughput_gbps, 4.0);
    EXPECT_LT(riommu.throughput_gbps / strict.throughput_gbps, 12.0);
}

TEST(StreamTest, BrcmSaturatesLineRateExceptStrict)
{
    // Paper Fig. 12 bottom/left: all modes but strict reach 10 GbE
    // line rate and CPU consumption becomes the metric. Our brcm
    // calibration reproduces that for defer+/riommu/none (plain
    // defer lands at ~96% of line rate; see EXPERIMENTS.md).
    double prev_cpu = 0;
    for (ProtectionMode mode :
         {ProtectionMode::kNone, ProtectionMode::kRiommu,
          ProtectionMode::kDeferPlus}) {
        const auto r = runStream(mode, nic::brcmProfile(),
                                 quickStream(nic::brcmProfile()));
        EXPECT_GT(r.throughput_gbps, 9.0) << dma::modeName(mode);
        EXPECT_LT(r.cpu, 0.97) << dma::modeName(mode);
        EXPECT_GT(r.cpu, prev_cpu) << dma::modeName(mode)
                                   << ": CPU is the differentiator";
        prev_cpu = r.cpu;
    }
    const auto strict = runStream(ProtectionMode::kStrict,
                                  nic::brcmProfile(),
                                  quickStream(nic::brcmProfile()));
    EXPECT_LT(strict.throughput_gbps, 8.0)
        << "strict cannot reach line rate";
    EXPECT_GT(strict.cpu, 0.99);
}

TEST(StreamTest, DeterministicAcrossRuns)
{
    const auto a = runStream(ProtectionMode::kStrict, nic::mlxProfile(),
                             quickStream(nic::mlxProfile()));
    const auto b = runStream(ProtectionMode::kStrict, nic::mlxProfile(),
                             quickStream(nic::mlxProfile()));
    EXPECT_EQ(a.acct.total(), b.acct.total());
    EXPECT_DOUBLE_EQ(a.throughput_gbps, b.throughput_gbps);
    EXPECT_EQ(a.nic.tx_irqs, b.nic.tx_irqs);
}

TEST(StreamTest, NoDmaFaultsInHealthyRuns)
{
    for (ProtectionMode mode :
         {ProtectionMode::kStrict, ProtectionMode::kDefer,
          ProtectionMode::kRiommu, ProtectionMode::kNone}) {
        const auto r = runStream(mode, nic::mlxProfile(),
                                 quickStream(nic::mlxProfile()));
        EXPECT_EQ(r.nic.dma_faults, 0u) << dma::modeName(mode);
        EXPECT_EQ(r.nic.rx_dropped, 0u) << dma::modeName(mode);
    }
}

/**
 * The exact IOVA charges of the quick mlx stream, per Table 1 row.
 * The fig7 golden rounds the iova columns, so a one-visit drift in an
 * allocator's scan, lookup or erase accounting could slip past it;
 * these window totals cannot. The Linux allocator's scan length and
 * call count are pinned too.
 */
TEST(StreamTest, LinuxIovaScanChargesArePinned)
{
    struct Pin
    {
        ProtectionMode mode;
        Cycles alloc_cycles;
        Cycles find_cycles;
        Cycles free_cycles;
        u64 total_visits; //!< Linux allocator only
        u64 alloc_calls;  //!< Linux allocator only
    };
    for (const Pin &pin :
         {Pin{ProtectionMode::kStrict, 45025640, 4264000, 1964460, 2900564,
              21486},
          Pin{ProtectionMode::kStrictPlus, 1215000, 4769280, 796500, 0, 0},
          Pin{ProtectionMode::kDefer, 9128650, 3752560, 1918706, 613829,
              21486},
          Pin{ProtectionMode::kDeferPlus, 1216886, 3009580, 796500, 0, 0}}) {
        des::Simulator sim;
        StreamRun run(sim, pin.mode, nic::mlxProfile(),
                      quickStream(nic::mlxProfile()));
        sim.run();
        const RunResult r = run.collect();
        const char *name = dma::modeName(pin.mode);
        EXPECT_EQ(r.acct.get(cycles::Cat::kMapIovaAlloc), pin.alloc_cycles)
            << name;
        EXPECT_EQ(r.acct.get(cycles::Cat::kUnmapIovaFind), pin.find_cycles)
            << name;
        EXPECT_EQ(r.acct.get(cycles::Cat::kUnmapIovaFree), pin.free_cycles)
            << name;
        auto &handle =
            dynamic_cast<dma::BaselineDmaHandle &>(run.machine().handle());
        if (const auto *alloc =
                dynamic_cast<const iova::LinuxIovaAllocator *>(
                    &handle.allocator())) {
            EXPECT_EQ(alloc->totalAllocVisits(), pin.total_visits) << name;
            EXPECT_EQ(alloc->allocCalls(), pin.alloc_calls) << name;
        }
    }
}

/**
 * The per-packet path (map, device DMA, Tx completion, IRQ, unmap,
 * event recording) touches no heap once warm: a stream twice as long
 * makes exactly as many allocations, in every mode. The warm-up runs
 * past the first wrap of the ACKs' Rx ring (1536 buffers, one ACK per
 * ~4 data packets), whose first pass materializes a frame per two
 * buffers.
 */
TEST(StreamTest, SteadyStatePacketsAllocateNothing)
{
    const auto allocationsFor = [](ProtectionMode mode, u64 packets) {
        StreamParams p = quickStream(nic::mlxProfile());
        p.warmup_packets = 8000;
        p.measure_packets = packets;
        const unsigned long before = g_operator_news.load();
        const RunResult r = runStream(mode, nic::mlxProfile(), p);
        EXPECT_GE(r.tx_packets, packets) << dma::modeName(mode);
        return g_operator_news.load() - before;
    };
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        // A first run pays the process's one-time allocations
        // (function-local statics).
        (void)allocationsFor(mode, 3000);
        const unsigned long n = allocationsFor(mode, 3000);
        const unsigned long n2 = allocationsFor(mode, 6000);
        EXPECT_EQ(n2, n) << dma::modeName(mode) << ": "
                         << static_cast<long>(n2 - n)
                         << " allocations in 3000 more packets";
    }
}

/**
 * The unmap path reaches each range's allocator node through the
 * handle its map kept, and alloc() splices the new node where its
 * scan stopped: a baseline-mode stream makes no IOVA tree search at
 * all, in setup (the Rx prefill), warm-up or the measured packets,
 * while the charged "iova find" visits stay those of the search
 * (LinuxIovaScanChargesArePinned).
 */
TEST(StreamTest, SteadyStatePacketsSearchNoTree)
{
    for (ProtectionMode mode :
         {ProtectionMode::kStrict, ProtectionMode::kStrictPlus,
          ProtectionMode::kDefer, ProtectionMode::kDeferPlus}) {
        des::Simulator sim;
        StreamRun run(sim, mode, nic::mlxProfile(),
                      quickStream(nic::mlxProfile()));
        sim.run();
        const RunResult r = run.collect();
        EXPECT_GT(r.tx_packets, 0u) << dma::modeName(mode);
        auto &handle =
            dynamic_cast<dma::BaselineDmaHandle &>(run.machine().handle());
        EXPECT_GT(handle.allocator().treeSize(), 0u) << dma::modeName(mode);
        EXPECT_EQ(handle.allocator().tree().searches(), 0u)
            << dma::modeName(mode);
    }
}

TEST(RrTest, RttOrderingAndMagnitude)
{
    RrParams p = rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 1500;
    p.warmup_transactions = 200;
    const auto none =
        runNetperfRr(ProtectionMode::kNone, nic::mlxProfile(), p);
    const auto strict =
        runNetperfRr(ProtectionMode::kStrict, nic::mlxProfile(), p);
    const auto riommu =
        runNetperfRr(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    const double rtt_none = 1e6 / none.transactions_per_sec;
    const double rtt_strict = 1e6 / strict.transactions_per_sec;
    const double rtt_riommu = 1e6 / riommu.transactions_per_sec;
    // Paper Table 3 (mlx): none 13.4, riommu 13.9, strict 17.3 us.
    EXPECT_NEAR(rtt_none, 13.4, 3.0);
    EXPECT_GT(rtt_strict, rtt_riommu);
    EXPECT_GT(rtt_riommu, rtt_none);
    EXPECT_LT(strict.cpu, 0.5) << "RR leaves the CPU mostly idle";
}

TEST(RequestLoadTest, ApacheOneKIsCpuBoundAndModeInsensitive)
{
    RequestLoadParams p = apacheParams(1024);
    p.measure_requests = 800;
    p.warmup_requests = 100;
    const auto none =
        runRequestLoad(ProtectionMode::kNone, nic::mlxProfile(), p);
    const auto riommu =
        runRequestLoad(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    // Paper: ~12K requests/s, riommu within ~0.9x of none.
    EXPECT_NEAR(none.transactions_per_sec, 12000.0, 2500.0);
    EXPECT_GT(riommu.transactions_per_sec,
              0.8 * none.transactions_per_sec);
    EXPECT_GT(none.cpu, 0.9);
}

TEST(RequestLoadTest, ApacheOneMBehavesLikeStream)
{
    RequestLoadParams p = apacheParams(u64{1} << 20);
    p.measure_requests = 120;
    p.warmup_requests = 20;
    const auto strict =
        runRequestLoad(ProtectionMode::kStrict, nic::mlxProfile(), p);
    const auto riommu =
        runRequestLoad(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    EXPECT_GT(riommu.throughput_gbps, 2.0 * strict.throughput_gbps)
        << "1MB responses are throughput-bound (paper: 5.8x)";
}

TEST(RequestLoadTest, MemcachedOrderOfMagnitudeAboveApache)
{
    RequestLoadParams apache = apacheParams(1024);
    apache.measure_requests = 600;
    apache.warmup_requests = 100;
    RequestLoadParams mc = memcachedParams();
    mc.measure_requests = 5000;
    mc.warmup_requests = 600;
    const auto a =
        runRequestLoad(ProtectionMode::kNone, nic::mlxProfile(), apache);
    const auto m =
        runRequestLoad(ProtectionMode::kNone, nic::mlxProfile(), mc);
    EXPECT_GT(m.transactions_per_sec, 6.0 * a.transactions_per_sec)
        << "paper: memcached is ~an order of magnitude above apache-1K";
}

TEST(RequestLoadTest, SetsAndGetsBothFlow)
{
    RequestLoadParams mc = memcachedParams();
    mc.measure_requests = 2000;
    mc.warmup_requests = 200;
    const auto r =
        runRequestLoad(ProtectionMode::kRiommu, nic::mlxProfile(), mc);
    EXPECT_EQ(r.nic.dma_faults, 0u);
    EXPECT_GT(r.transactions_per_sec, 0.0);
}

TEST(StorageTest, DeviceBoundIopsEqualAcrossModes)
{
    // Sec. 4 applicability: on a 20 us flash device the SSD is the
    // bottleneck, so protection costs CPU, not IOPS.
    workloads::StorageParams p;
    p.measure_ios = 4000;
    p.warmup_ios = 400;
    const auto strict = runStorage(ProtectionMode::kStrict, p);
    const auto riommu = runStorage(ProtectionMode::kRiommu, p);
    const auto none = runStorage(ProtectionMode::kNone, p);
    EXPECT_NEAR(strict.transactions_per_sec, none.transactions_per_sec,
                0.02 * none.transactions_per_sec);
    EXPECT_NEAR(riommu.transactions_per_sec, none.transactions_per_sec,
                0.02 * none.transactions_per_sec);
    EXPECT_GT(strict.cpu, riommu.cpu);
    EXPECT_GT(riommu.cpu, none.cpu);
}

TEST(StorageTest, ExtremeDeviceExposesStrictOverhead)
{
    workloads::StorageParams p;
    p.measure_ios = 6000;
    p.warmup_ios = 600;
    p.device.access_latency_ns = 1200;
    p.device.bandwidth_gbps = 60.0;
    p.device.irq_batch = 4;
    p.device.irq_delay_ns = 1000;
    const auto strict = runStorage(ProtectionMode::kStrict, p);
    const auto riommu = runStorage(ProtectionMode::kRiommu, p);
    EXPECT_GT(riommu.transactions_per_sec,
              1.2 * strict.transactions_per_sec)
        << "on a microsecond-class SSD, strict's per-I/O cycles cap IOPS";
}

/** Property sweep: on every (mode, profile), stream runs clean and
 * the safe modes never beat none. */
class StreamSweep
    : public ::testing::TestWithParam<std::tuple<ProtectionMode, bool>>
{
};

TEST_P(StreamSweep, CleanAndBoundedByNone)
{
    auto [mode, use_brcm] = GetParam();
    const nic::NicProfile &profile =
        use_brcm ? nic::brcmProfile() : nic::mlxProfile();
    StreamParams p = quickStream(profile);
    p.measure_packets = 3000;
    p.warmup_packets = 800;
    const auto r = runStream(mode, profile, p);
    const auto none = runStream(ProtectionMode::kNone, profile, p);
    EXPECT_EQ(r.nic.dma_faults, 0u);
    EXPECT_LE(r.throughput_gbps, none.throughput_gbps * 1.02)
        << "protection cannot make things faster";
    EXPECT_GT(r.throughput_gbps, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamSweep,
    ::testing::Combine(
        ::testing::Values(ProtectionMode::kStrict,
                          ProtectionMode::kStrictPlus,
                          ProtectionMode::kDefer,
                          ProtectionMode::kDeferPlus,
                          ProtectionMode::kRiommuNc,
                          ProtectionMode::kRiommu),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ProtectionMode, bool>>
           &info) {
        std::string n = dma::modeName(std::get<0>(info.param));
        for (char &c : n) {
            if (c == '+')
                c = 'P';
            if (c == '-')
                c = 'M';
        }
        return n + (std::get<1>(info.param) ? "_brcm" : "_mlx");
    });

} // namespace
} // namespace rio::workloads
