/**
 * @file
 * Tests for the NIC device + driver model: bring-up working set,
 * Tx/Rx round trips under every protection mode, interrupt
 * coalescing and burst-invalidation behaviour, line-rate pacing,
 * inline sends, Rx starvation, and teardown.
 */
#include <gtest/gtest.h>

#include "sys/machine.h"

namespace rio::nic {
namespace {

using dma::ProtectionMode;

NicProfile
testProfile()
{
    NicProfile p; // small rings for fast tests
    p.name = "test";
    p.line_rate_gbps = 10.0;
    p.tx_buffers_per_packet = 2;
    p.rx_rings = 2;
    p.rx_ring_entries = 32;
    p.tx_ring_entries = 64;
    p.tx_completion_batch = 16;
    p.tx_irq_delay_ns = 5000;
    p.rx_irq_delay_ns = 1000;
    return p;
}

class NicModeTest : public ::testing::TestWithParam<ProtectionMode>
{
};

TEST_P(NicModeTest, BringUpInstallsRxWorkingSet)
{
    des::Simulator sim;
    const NicProfile profile = testProfile();
    sys::Machine m(sim, GetParam(), profile);
    m.bringUp();
    if (GetParam() != ProtectionMode::kNone) {
        // 64 rx buffers + 3 static ring mappings.
        EXPECT_EQ(m.nic().liveMappings(),
                  u64{profile.rx_rings} * profile.rx_ring_entries + 3);
    }
}

TEST_P(NicModeTest, TxPacketsReachTheWire)
{
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    m.bringUp();
    u64 on_wire = 0;
    m.nic().setWireTxCallback(
        [&](const net::Packet &pkt) {
            EXPECT_EQ(pkt.payload_bytes, net::kMss);
            ++on_wire;
        });
    m.core().post([&] {
        for (int i = 0; i < 20; ++i) {
            net::Packet pkt;
            pkt.payload_bytes = net::kMss;
            ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
        }
    });
    sim.run();
    EXPECT_EQ(on_wire, 20u);
    EXPECT_EQ(m.nic().stats().tx_packets, 20u);
    EXPECT_EQ(m.nic().stats().dma_faults, 0u);
    // All Tx mappings recycled after the completion interrupt.
    if (GetParam() == ProtectionMode::kStrict) {
        EXPECT_EQ(m.handle().liveMappings(),
                  u64{testProfile().rx_rings} *
                          testProfile().rx_ring_entries + 3);
    }
}

TEST_P(NicModeTest, RxPacketsAreDeliveredAndBuffersRecycled)
{
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    m.bringUp();
    u64 delivered = 0;
    m.nic().setRxCallback([&](const net::Packet &pkt) {
        EXPECT_EQ(pkt.payload_bytes, 700u);
        ++delivered;
    });
    for (int i = 0; i < 100; ++i) {
        sim.scheduleAt(static_cast<Nanos>(i) * 2000, [&] {
            net::Packet pkt;
            pkt.payload_bytes = 700;
            pkt.flow = 3;
            m.nic().packetFromWire(pkt);
        });
    }
    sim.run();
    EXPECT_EQ(delivered, 100u);
    EXPECT_EQ(m.nic().stats().rx_dropped, 0u);
    EXPECT_EQ(m.nic().stats().dma_faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, NicModeTest,
    ::testing::ValuesIn(dma::kEvaluatedModes),
    [](const ::testing::TestParamInfo<ProtectionMode> &info) {
        std::string n = dma::modeName(info.param);
        for (char &c : n) {
            if (c == '+')
                c = 'P';
            if (c == '-')
                c = 'M';
        }
        return n;
    });

TEST(NicTest, InlineSendsNeedNoMapping)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kRiommu, testProfile());
    m.bringUp();
    const u64 live_before = m.handle().liveMappings();
    m.core().post([&] {
        net::Packet tiny;
        tiny.payload_bytes = 1; // <= inline threshold
        ASSERT_TRUE(m.nic().sendPacket(tiny).isOk());
        EXPECT_EQ(m.handle().liveMappings(), live_before)
            << "inline send must not map anything";
    });
    sim.run();
    EXPECT_EQ(m.nic().stats().tx_packets, 1u);
}

TEST(NicTest, OneRiotlbInvalidationPerCompletionBurst)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kRiommu, testProfile());
    m.bringUp();
    m.core().post([&] {
        for (int i = 0; i < 8; ++i) {
            net::Packet pkt;
            pkt.payload_bytes = net::kMss;
            ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
        }
    });
    const u64 inv_before = m.ctx().riommu().riotlb().stats().invalidations;
    sim.run();
    const u64 inv = m.ctx().riommu().riotlb().stats().invalidations -
                    inv_before;
    const u64 bursts = m.nic().stats().unmap_bursts;
    EXPECT_EQ(inv, bursts)
        << "exactly one rIOTLB invalidation per unmap burst";
    EXPECT_LT(bursts, 8u) << "completions must coalesce";
}

TEST(NicTest, LineRatePacesTransmission)
{
    des::Simulator sim;
    NicProfile p = testProfile();
    p.line_rate_gbps = 1.0; // slow wire
    sys::Machine m(sim, ProtectionMode::kNone, p);
    m.bringUp();
    m.core().post([&] {
        for (int i = 0; i < 10; ++i) {
            net::Packet pkt;
            pkt.payload_bytes = net::kMss;
            ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
        }
    });
    sim.run();
    // 10 packets of (1448+86) bytes at 1 Gbps ~ 122.7 us.
    const double expect_ns = 10 * net::wireTimeNs(net::kMss, 1.0);
    EXPECT_GT(static_cast<double>(sim.now()), expect_ns * 0.9);
}

TEST(NicTest, RxStarvationDropsPackets)
{
    des::Simulator sim;
    NicProfile p = testProfile();
    p.rx_rings = 1;
    p.rx_ring_entries = 4;
    p.rx_irq_delay_ns = 1000000; // driver asleep: no refills
    sys::Machine m(sim, ProtectionMode::kNone, p);
    m.bringUp();
    for (int i = 0; i < 10; ++i) {
        net::Packet pkt;
        pkt.payload_bytes = 100;
        m.nic().packetFromWire(pkt);
    }
    EXPECT_EQ(m.nic().stats().rx_packets, 4u);
    EXPECT_EQ(m.nic().stats().rx_dropped, 6u);
    sim.run();
}

TEST(NicTest, TxRingBackpressure)
{
    des::Simulator sim;
    NicProfile p = testProfile();
    sys::Machine m(sim, ProtectionMode::kNone, p);
    m.bringUp();
    m.core().post([&] {
        // 64 descriptors / 2 per packet = 32 packets fit.
        u32 accepted = 0;
        for (int i = 0; i < 100; ++i) {
            net::Packet pkt;
            pkt.payload_bytes = net::kMss;
            if (m.nic().txSpacePackets(pkt.payload_bytes) == 0)
                break;
            ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
            ++accepted;
        }
        EXPECT_EQ(accepted, 32u);
    });
    sim.run();
}

TEST(NicTest, ShutDownReleasesAllMappings)
{
    des::Simulator sim;
    sys::Machine m(sim, ProtectionMode::kStrict, testProfile());
    m.bringUp();
    EXPECT_GT(m.handle().liveMappings(), 0u);
    m.nic().shutDown();
    EXPECT_EQ(m.handle().liveMappings(), 0u);
}

TEST(NicTest, FlowsHashToStableRings)
{
    des::Simulator sim;
    NicProfile p = testProfile();
    p.rx_rings = 2;
    p.rx_ring_entries = 8;
    p.rx_irq_delay_ns = 1000000; // no refills: capacity == 8 per ring
    sys::Machine m(sim, ProtectionMode::kNone, p);
    m.bringUp();
    // 8 packets of one flow fill exactly one ring...
    for (int i = 0; i < 8; ++i) {
        net::Packet pkt;
        pkt.payload_bytes = 64;
        pkt.flow = 0;
        m.nic().packetFromWire(pkt);
    }
    EXPECT_EQ(m.nic().stats().rx_dropped, 0u);
    // ...and the other flow still has its own ring.
    net::Packet other;
    other.payload_bytes = 64;
    other.flow = 1;
    m.nic().packetFromWire(other);
    EXPECT_EQ(m.nic().stats().rx_dropped, 0u);
    sim.run();
}

} // namespace
} // namespace rio::nic
