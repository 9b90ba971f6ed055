/**
 * @file
 * sys::Cluster + rdma::RdmaNic integration suite — the scale-out
 * fabric's correctness contract:
 *   - remote writes/reads land exactly the bytes a local DMA oracle
 *     produces, translated through the *target* machine's IOMMU;
 *   - every verb (write, read, migration page / state) writes its own
 *     WQE opcode and arrives at the target as its own wire kind;
 *   - QP lifecycle (connect / traffic / teardown, plus slot
 *     exhaustion and force-quiesce) leaves no mapping, IOTLB or
 *     rIOTLB residue, audited with checkHandleLeaks in all 7 modes;
 *   - fleet runs are bit-for-bit identical whether a cluster runs
 *     alone or beside other clusters on parallelFor threads (the
 *     golden_cluster_threads ctest pins the same property on the
 *     bench's JSON);
 *   - the rDEVICE descriptor-fetch model and its hot tier count
 *     fetches consistently and default to off.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "dma/protection_mode.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "rdma/rdma.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"

namespace rio {
namespace {

using dma::ProtectionMode;

sys::ClusterConfig
smallConfig(ProtectionMode mode, unsigned machines = 2, u32 max_qps = 16)
{
    sys::ClusterConfig cfg;
    cfg.machines = machines;
    cfg.mode = mode;
    cfg.max_qps = max_qps;
    return cfg;
}

TEST(RdmaGeometry, RingSizesShape)
{
    const auto &p = rdma::rnicProfile();
    auto sizes = rdma::ringSizes(p, 3);
    ASSERT_EQ(sizes.size(), 7u); // CQ + 3 x (ctrl, data)
    EXPECT_EQ(sizes[0], 4u);
    for (u32 q = 0; q < 3; ++q) {
        EXPECT_EQ(sizes[rdma::ctrlRid(q)], 4u);
        EXPECT_EQ(sizes[rdma::dataRid(q)], 2 * p.sq_depth);
    }
}

TEST(Cluster, ConnectEstablishesBothEnds)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommu));
    cluster.bringUp();
    bool connected = false;
    auto res = cluster.nic(0).connect(1, [&](u32, bool ok) {
        connected = ok;
    });
    ASSERT_TRUE(res.isOk());
    cluster.run();
    EXPECT_TRUE(connected);
    EXPECT_EQ(cluster.nic(0).establishedQps(), 1u);
    EXPECT_EQ(cluster.nic(1).establishedQps(), 1u);
    EXPECT_EQ(cluster.nic(0).peerNic(res.value()), 1u);
}

/** Remote write: target MR bytes must equal the source buffer —
 * compared against a local-DMA oracle (a direct deviceWrite of the
 * same bytes through the target's own handle). */
TEST(Cluster, RemoteWriteMatchesLocalDmaOracle)
{
    for (ProtectionMode mode :
         {ProtectionMode::kRiommu, ProtectionMode::kStrict,
          ProtectionMode::kNone}) {
        SCOPED_TRACE(dma::modeName(mode));
        sys::Cluster cluster(smallConfig(mode));
        cluster.bringUp();
        auto res = cluster.nic(0).connect(1, nullptr);
        ASSERT_TRUE(res.isOk());
        const u32 qp = res.value();
        cluster.run();

        const u32 len = 512;
        const u64 roff = 256;
        std::vector<u8> pattern(len);
        for (u32 i = 0; i < len; ++i)
            pattern[i] = static_cast<u8>(i * 7 + 3);
        cluster.machine(0).ctx().memory().write(
            cluster.nic(0).srcBuffer(qp), pattern.data(), len);

        bool completed = false, comp_ok = false;
        cluster.nic(0).setCompletionCallback(
            [&](u32, u32, bool ok) { completed = true; comp_ok = ok; });
        ASSERT_TRUE(cluster.nic(0).postWrite(qp, len, roff));
        cluster.run();
        ASSERT_TRUE(completed);
        ASSERT_TRUE(comp_ok);

        const u32 peer = cluster.nic(0).peerQp(qp);
        std::vector<u8> got(len);
        cluster.machine(1).ctx().memory().read(
            cluster.nic(1).mrBuffer(peer) + roff, got.data(), len);
        EXPECT_EQ(std::memcmp(got.data(), pattern.data(), len), 0);

        // Local-DMA oracle: the same bytes pushed through the
        // target's own handle at the same MR offset must agree.
        std::vector<u8> zeros(len, 0);
        cluster.machine(1).ctx().memory().write(
            cluster.nic(1).mrBuffer(peer) + roff, zeros.data(), len);
        std::vector<u8> after(len);
        ASSERT_TRUE(cluster.handle(1)
                        .deviceWrite(cluster.nic(1).mrDeviceAddr(peer) +
                                         roff,
                                     pattern.data(), len)
                        .isOk());
        cluster.machine(1).ctx().memory().read(
            cluster.nic(1).mrBuffer(peer) + roff, after.data(), len);
        EXPECT_EQ(std::memcmp(after.data(), pattern.data(), len), 0);

        cluster.quiesce();
        EXPECT_TRUE(cluster.checkLeaks(0).clean());
        EXPECT_TRUE(cluster.checkLeaks(1).clean());
    }
}

/** Remote read pulls the peer MR's bytes into the local read buffer. */
TEST(Cluster, RemoteReadMatchesPeerMemory)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommuNc));
    cluster.bringUp();
    auto res = cluster.nic(0).connect(1, nullptr);
    ASSERT_TRUE(res.isOk());
    const u32 qp = res.value();
    cluster.run();

    const u32 len = 1024;
    const u32 peer = cluster.nic(0).peerQp(qp);
    std::vector<u8> pattern(len);
    for (u32 i = 0; i < len; ++i)
        pattern[i] = static_cast<u8>(0xA5 ^ (i * 13));
    cluster.machine(1).ctx().memory().write(
        cluster.nic(1).mrBuffer(peer), pattern.data(), len);

    bool ok = false;
    cluster.nic(0).setCompletionCallback(
        [&](u32, u32, bool good) { ok = good; });
    ASSERT_TRUE(cluster.nic(0).postRead(qp, len));
    cluster.run();
    ASSERT_TRUE(ok);

    std::vector<u8> got(len);
    cluster.machine(0).ctx().memory().read(
        cluster.nic(0).readBuffer(qp), got.data(), len);
    EXPECT_EQ(std::memcmp(got.data(), pattern.data(), len), 0);

    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** Device address of @p h's one live mapping of @p size bytes in
 * ring @p rid (the mode's own record of what map() handed out). */
u64
liveDeviceAddr(const dma::DmaHandle &h, u16 rid, u32 size)
{
    u64 addr = 0;
    unsigned found = 0;
    for (const dma::LiveMappingInfo &m : h.liveMappingList()) {
        if (m.rid == rid && m.size == size) {
            addr = m.device_addr;
            ++found;
        }
    }
    EXPECT_EQ(found, 1u) << "rid " << rid << " size " << size;
    return addr;
}

/** Every verb writes its own WQE opcode (1 write, 2 read, 3 mig page,
 * 4 mig state) with the length in word 0 and the op's data-ring
 * device address in word 1, and the target sees the matching access:
 * write bytes in the MR, read bytes in the read buffer, each
 * migration chunk at the sink under its tag. The kind-specific size
 * ceilings hold too: a page-sized migration chunk posts, a page-sized
 * write does not. (None keeps no per-mapping records to find the WQE
 * ring by, so the translated modes carry the check.) */
TEST(Cluster, EachVerbWritesItsWqeAndWireKind)
{
    for (ProtectionMode mode :
         {ProtectionMode::kRiommu, ProtectionMode::kStrict}) {
        SCOPED_TRACE(dma::modeName(mode));
        auto cfg = smallConfig(mode);
        cfg.migration = true;
        sys::Cluster cluster(cfg);
        cluster.bringUp();
        rdma::RdmaNic &nic = cluster.nic(0);
        rdma::RdmaNic &mnic = cluster.migNic(0);
        auto res = nic.connect(1, nullptr);
        ASSERT_TRUE(res.isOk());
        auto mres = mnic.connect(cluster.size() + 1, nullptr);
        ASSERT_TRUE(mres.isOk());
        const u32 qp = res.value();
        const u32 mqp = mres.value();
        cluster.run();
        const u32 peer = nic.peerQp(qp);

        std::vector<rdma::WireMsg> sunk;
        cluster.migNic(1).setMigSink([&](const rdma::WireMsg &msg) {
            sunk.push_back(msg);
            return Status::ok();
        });
        unsigned completions = 0;
        bool all_ok = true;
        const auto onDone = [&](u32, u32, bool ok) {
            ++completions;
            all_ok &= ok;
        };
        nic.setCompletionCallback(onDone);
        mnic.setCompletionCallback(onDone);

        // Post through @p post, then read back the WQE the device is
        // about to fetch, through the control-ring mapping, while the
        // op's data-ring mapping is still live; then run the op.
        const u32 sq_bytes = rdma::rnicProfile().sq_depth * rdma::kWqeBytes;
        const auto checkWqe = [&](rdma::RdmaNic &n, dma::DmaHandle &h,
                                  u32 q, u64 opcode, u32 bytes,
                                  const auto &post) {
            const u32 w = n.sqTail(q);
            ASSERT_TRUE(post());
            const u64 sq_dev = liveDeviceAddr(h, rdma::ctrlRid(q), sq_bytes);
            u64 words[2] = {};
            ASSERT_TRUE(h.deviceRead(sq_dev + u64{w} * rdma::kWqeBytes,
                                     words, sizeof(words))
                            .isOk());
            EXPECT_EQ(words[0] >> 32, opcode);
            EXPECT_EQ(words[0] & 0xffffffffu, bytes);
            EXPECT_EQ(words[1], liveDeviceAddr(h, rdma::dataRid(q), bytes));
            cluster.run();
        };
        const auto pattern = [](u32 len, u8 seed) {
            std::vector<u8> v(len);
            for (u32 i = 0; i < len; ++i)
                v[i] = static_cast<u8>(seed ^ (i * 11));
            return v;
        };
        mem::PhysicalMemory &src_mem = cluster.machine(0).ctx().memory();
        mem::PhysicalMemory &dst_mem = cluster.machine(1).ctx().memory();

        // Write: source buffer -> peer MR at the offset.
        const auto wbytes = pattern(700, 0x3C);
        src_mem.write(nic.srcBuffer(qp), wbytes.data(), wbytes.size());
        checkWqe(nic, cluster.handle(0), qp, 1, 700,
                 [&] { return nic.postWrite(qp, 700, 64); });
        std::vector<u8> got(700);
        dst_mem.read(cluster.nic(1).mrBuffer(peer) + 64, got.data(), 700);
        EXPECT_EQ(got, wbytes);

        // Read: peer MR at the offset -> our read buffer.
        const auto rbytes = pattern(300, 0xC3);
        dst_mem.write(cluster.nic(1).mrBuffer(peer) + 128, rbytes.data(),
                      rbytes.size());
        checkWqe(nic, cluster.handle(0), qp, 2, 300,
                 [&] { return nic.postRead(qp, 300, 128); });
        got.assign(300, 0);
        src_mem.read(nic.readBuffer(qp), got.data(), 300);
        EXPECT_EQ(got, rbytes);

        // Migration chunks: an arbitrary source page -> the sink.
        const PhysAddr page = src_mem.allocContiguous(kPageSize);
        const auto pbytes = pattern(rdma::kMigChunkBytes, 0x5A);
        src_mem.write(page, pbytes.data(), pbytes.size());
        EXPECT_FALSE(nic.postWrite(qp, rdma::kMigChunkBytes));
        EXPECT_FALSE(mnic.postMigPage(mqp, page, rdma::kMigChunkBytes + 1,
                                      7));
        checkWqe(mnic, cluster.migHandle(0), mqp, 3, rdma::kMigChunkBytes,
                 [&] {
                     return mnic.postMigPage(mqp, page,
                                             rdma::kMigChunkBytes, 41);
                 });
        checkWqe(mnic, cluster.migHandle(0), mqp, 4, 96, [&] {
            return mnic.postMigState(mqp, page, 96, 0xABC);
        });
        ASSERT_EQ(sunk.size(), 2u);
        EXPECT_EQ(sunk[0].kind, rdma::MsgKind::kMigPage);
        EXPECT_EQ(sunk[0].offset, 41u);
        EXPECT_EQ(sunk[0].payload, pbytes);
        EXPECT_EQ(sunk[1].kind, rdma::MsgKind::kMigState);
        EXPECT_EQ(sunk[1].offset, 0xABCu);
        EXPECT_EQ(sunk[1].payload,
                  std::vector<u8>(pbytes.begin(), pbytes.begin() + 96));

        EXPECT_EQ(completions, 4u);
        EXPECT_TRUE(all_ok);
        cluster.quiesce();
        for (unsigned m = 0; m < 2; ++m) {
            EXPECT_TRUE(cluster.checkLeaks(m).clean());
            EXPECT_TRUE(cluster.checkMigLeaks(m).clean());
        }
    }
}

/** Orderly teardown releases both ends' slots and mappings. */
TEST(Cluster, TeardownFreesBothEnds)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommu));
    cluster.bringUp();
    auto res = cluster.nic(0).connect(1, nullptr);
    ASSERT_TRUE(res.isOk());
    cluster.run();
    ASSERT_EQ(cluster.nic(1).establishedQps(), 1u);

    bool closed = false;
    ASSERT_TRUE(
        cluster.nic(0)
            .teardown(res.value(), [&](u32) { closed = true; })
            .isOk());
    cluster.run();
    EXPECT_TRUE(closed);
    EXPECT_EQ(cluster.nic(0).establishedQps(), 0u);
    EXPECT_EQ(cluster.nic(1).establishedQps(), 0u);
    EXPECT_EQ(cluster.total(&rdma::RdmaStats::teardowns), 2u);

    // Only the CQs remain mapped; after shutdown nothing does.
    cluster.nic(0).shutDown();
    cluster.nic(1).shutDown();
    EXPECT_EQ(cluster.handle(0).liveMappings(), 0u);
    EXPECT_EQ(cluster.handle(1).liveMappings(), 0u);
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** Slot exhaustion rejects cleanly (no leak, no wedge). */
TEST(Cluster, SlotExhaustionRejects)
{
    auto cfg = smallConfig(ProtectionMode::kDefer, 2, /*max_qps=*/2);
    sys::Cluster cluster(cfg);
    cluster.bringUp();
    int ok_count = 0, fail_count = 0;
    // 3 connects against 2 slots: the passive side runs out first
    // (it must hold our 2 plus its own capacity), or we do.
    for (int i = 0; i < 3; ++i) {
        auto res = cluster.nic(0).connect(1, [&](u32, bool ok) {
            (ok ? ok_count : fail_count)++;
        });
        if (!res.isOk())
            ++fail_count;
    }
    cluster.run();
    EXPECT_EQ(ok_count + fail_count, 3);
    EXPECT_GE(ok_count, 2);
    EXPECT_GE(fail_count, 1);
    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** The hostile-wire headline, pinned deterministically per mode: a
 * delayed duplicate of an already-acked write arrives after its QP
 * was torn down (rings unmapped). The protecting modes must stop it
 * at the target-side IOMMU — a FaultRecord, no memory write. The
 * defer modes instead expose their stale window: the revoked
 * translation is still cached until the batched flush, so the stray
 * lands; once the flush runs, a second copy faults like the rest.
 * Mode none has no fault machinery — the stray always lands. */
TEST(Cluster, LateArrivalAfterTeardown)
{
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        SCOPED_TRACE(dma::modeName(mode));
        sys::ClusterConfig cfg = smallConfig(mode);
        cfg.reliability.enabled = true; // late detection needs PSN state
        sys::Cluster cluster(cfg);
        cluster.bringUp();
        auto res = cluster.nic(0).connect(1, nullptr);
        ASSERT_TRUE(res.isOk());
        const u32 qp = res.value();
        cluster.run();

        // A legit write first: it warms the target translation (the
        // defer window needs a cached IOTLB entry) and supplies the
        // PSN/rkey the wire duplicate will replay.
        const u32 len = 256;
        std::vector<u8> pattern(len);
        for (u32 i = 0; i < len; ++i)
            pattern[i] = static_cast<u8>(i ^ 0x5A);
        cluster.machine(0).ctx().memory().write(
            cluster.nic(0).srcBuffer(qp), pattern.data(), len);
        bool ok = false;
        cluster.nic(0).setCompletionCallback(
            [&](u32, u32, bool good) { ok = good; });
        ASSERT_TRUE(cluster.nic(0).postWrite(qp, len, 0));
        cluster.run();
        ASSERT_TRUE(ok);

        // Capture the packet's wire-visible identity before teardown
        // wipes the slot.
        const u32 peer = cluster.nic(0).peerQp(qp);
        const u64 stale_rkey = cluster.nic(1).mrDeviceAddr(peer);
        const PhysAddr mr_pa = cluster.nic(1).mrBuffer(peer);

        ASSERT_TRUE(cluster.nic(0).teardown(qp, nullptr).isOk());
        cluster.run();
        ASSERT_EQ(cluster.nic(1).establishedQps(), 0u);

        // Zero the old MR so a landing is unambiguous.
        std::vector<u8> zeros(len, 0);
        cluster.machine(1).ctx().memory().write(mr_pa, zeros.data(),
                                                len);

        auto strayWrite = [&](u8 fill) {
            rdma::WireMsg m;
            m.kind = rdma::MsgKind::kWrite;
            m.src_nic = 0;
            m.src_qp = qp;
            m.dst_qp = peer;
            m.wqe = 0;
            m.psn = 0; // the acked write's original sequence number
            m.rkey = stale_rkey;
            m.offset = 0;
            m.len = len;
            m.payload.assign(len, fill);
            return m;
        };
        auto faultRecords = [&] {
            return cluster.machine(1).ctx().iommu().faults().size() +
                   cluster.machine(1).ctx().riommu().faults().size();
        };

        const size_t faults_before = faultRecords();
        cluster.nic(1).fromWire(strayWrite(0xEE));
        cluster.run(); // drain the ack/nak back to the dead requester

        EXPECT_EQ(cluster.nic(1).stats().late_arrivals, 1u);
        std::vector<u8> got(len);
        cluster.machine(1).ctx().memory().read(mr_pa, got.data(), len);
        const std::vector<u8> landed(len, 0xEE);

        if (mode == ProtectionMode::kNone) {
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 1u);
            EXPECT_EQ(cluster.nic(1).stats().late_faulted, 0u);
            EXPECT_EQ(got, landed); // nothing there to stop it
            EXPECT_EQ(faultRecords(), faults_before);
        } else if (mode == ProtectionMode::kDefer ||
                   mode == ProtectionMode::kDeferPlus) {
            // The stale window, caught red-handed: the PTE is gone
            // but the IOTLB entry survives until the batched flush.
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 1u);
            EXPECT_EQ(got, landed);
            // Once the deferred flush finally runs, a second copy of
            // the same stray faults like the strict modes.
            cluster.machine(1).ctx().iommu().flushIotlb();
            cluster.nic(1).fromWire(strayWrite(0xDD));
            cluster.run();
            EXPECT_EQ(cluster.nic(1).stats().late_faulted, 1u);
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 1u);
            cluster.machine(1).ctx().memory().read(mr_pa, got.data(),
                                                   len);
            EXPECT_EQ(got, landed); // 0xDD never hit memory
            EXPECT_GT(faultRecords(), faults_before);
        } else {
            // strict / strict+ / riommu- / riommu: no stale window.
            EXPECT_EQ(cluster.nic(1).stats().late_faulted, 1u);
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 0u);
            EXPECT_EQ(got, zeros); // memory untouched
            EXPECT_GT(faultRecords(), faults_before);
        }

        cluster.quiesce();
        EXPECT_TRUE(cluster.checkLeaks(0).clean());
        EXPECT_TRUE(cluster.checkLeaks(1).clean());
    }
}

/** Fleet smoke across all 7 evaluated modes: traffic flows, no
 * errors, and the post-quiesce audit is clean everywhere. */
TEST(Fleet, SmokeAllModes)
{
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        SCOPED_TRACE(dma::modeName(mode));
        workloads::FleetParams p;
        p.connections = 8;
        p.warmup_ops = 20;
        p.measure_ops = 100;
        sys::ClusterConfig cfg = smallConfig(mode, 2);
        cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
        if (dma::modeUsesMagazineAllocator(mode))
            cfg.iova_cache_rounds = 16; // new depot layering in play
        sys::Cluster cluster(cfg);
        auto rep = runFleet(cluster, p);
        EXPECT_EQ(rep.measured_ops, 2 * p.measure_ops);
        EXPECT_GT(rep.cycles_per_op, 0.0);
        EXPECT_EQ(rep.comp_errors, 0u);
        EXPECT_EQ(rep.remote_faults, 0u);
        EXPECT_EQ(rep.local_fault_drops, 0u);
        EXPECT_TRUE(rep.leaks_clean);
        if (dma::modeUsesRiommu(mode)) {
            EXPECT_GT(rep.riotlb.lookups, 0u);
            EXPECT_GT(rep.eob_unmaps, 0u);
            EXPECT_GE(rep.avg_burst, 1.0);
        }
    }
}

/** Every FleetReport field, one per line, for field-for-field
 * comparison with a readable diff. */
std::string
reportFields(const workloads::FleetReport &r)
{
    std::ostringstream os;
    os << "measured_ops " << r.measured_ops << "\ntotal_ops "
       << r.total_ops << "\nmeasured_cycles " << r.measured_cycles
       << "\ncycles_per_op " << r.cycles_per_op << "\nposts " << r.posts
       << "\nposts_blocked " << r.posts_blocked << "\ncomp_errors "
       << r.comp_errors << "\nremote_faults " << r.remote_faults
       << "\nlocal_fault_drops " << r.local_fault_drops << "\nconnects "
       << r.connects << "\nteardowns " << r.teardowns << "\neob_unmaps "
       << r.eob_unmaps << "\ncompletions " << r.completions
       << "\navg_burst " << r.avg_burst << "\nriotlb "
       << r.riotlb.lookups << ' ' << r.riotlb.hits << ' '
       << r.riotlb.current << ' ' << r.riotlb.synced << ' '
       << r.riotlb.prefetch_hits << ' ' << r.riotlb.walks << ' '
       << r.riotlb.invalidations << "\nrdcache " << r.rdcache.fetches
       << ' ' << r.rdcache.hot_hits << ' ' << r.rdcache.hot_misses
       << "\nretransmits " << r.retransmits << "\nrto_fires "
       << r.rto_fires << "\nnak_seq " << r.nak_seq << "\nqp_errors "
       << r.qp_errors << "\nqp_error_recovered " << r.qp_error_recovered
       << "\nlate " << r.late_arrivals << ' ' << r.late_faulted << ' '
       << r.late_landed << "\nwire " << r.wire_drops << ' '
       << r.wire_dups << ' ' << r.wire_delays << ' '
       << r.wire_congestion_drops << ' ' << r.wire_peak_queue
       << "\nlatency " << r.p50_latency_ns << ' ' << r.p99_latency_ns
       << "\nslo " << r.slo_valid << ' ' << r.slo.count << ' '
       << r.slo.dropped << ' ' << r.slo.errors << ' ' << r.slo.p50 << ' '
       << r.slo.p99 << ' ' << r.slo.p999 << ' ' << r.slo.max << ' '
       << r.slo.mean_ns << ' ' << r.slo.tail_ops << ' '
       << r.slo.tail_retransmits << ' ' << r.slo.top_cat << ' '
       << r.slo.top_cat_share;
    for (size_t c = 0; c < obs::kSloMaxCats; ++c)
        os << ' ' << r.slo.tail_cat_cycles[c] << '/'
           << r.slo.all_cat_cycles[c];
    os << "\nend_ns " << r.end_ns << "\nleaks_clean " << r.leaks_clean;
    return os.str();
}

/** Row @p i of the isolation sweep: strict/riommu x loss 0/0.02, the
 * lossy pair with the reliability layer on. */
workloads::FleetReport
runIsolationRow(size_t i)
{
    workloads::FleetParams p;
    p.connections = 12;
    p.warmup_ops = 30;
    p.measure_ops = 150;
    p.incast_period_ops = 40;
    p.incast_burst = 4;
    p.churn_period_ops = 60;
    p.seed = 7;
    sys::ClusterConfig cfg;
    cfg.machines = 3;
    cfg.mode = i % 2 ? ProtectionMode::kRiommu : ProtectionMode::kStrict;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    if (i >= 2) {
        cfg.wire.drop_rate = 0.02;
        cfg.wire.dup_rate = 0.06;
        cfg.wire.delay_rate = 0.2;
        cfg.wire.delay_max_ns = 60000;
        cfg.reliability.enabled = true;
    }
    sys::Cluster cluster(cfg);
    return runFleet(cluster, p);
}

std::vector<workloads::FleetReport>
runIsolationRows(unsigned threads)
{
    std::vector<workloads::FleetReport> reps(4);
    des::parallelFor(reps.size(), threads,
                     [&](size_t i) { reps[i] = runIsolationRow(i); });
    return reps;
}

/** Concurrent rows do not leak into one another: four different
 * clusters run one after another and side by side on four threads
 * give identical reports, field for field. The process-wide obs state
 * they all touch — the metrics registry and the SLO gate — and the
 * thread-local trace slot must not feed a result. */
TEST(Fleet, ConcurrentRowsMatchSequentialRows)
{
    obs::setSloRecording(true);
    const auto seq = runIsolationRows(1);
    const auto par = runIsolationRows(4);
    obs::setSloRecording(false);
    for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i].slo_valid) << "row " << i;
        EXPECT_GT(seq[i].measured_ops, 0u) << "row " << i;
        EXPECT_EQ(reportFields(seq[i]), reportFields(par[i])) << "row " << i;
    }
    EXPECT_EQ(seq[0].wire_drops + seq[1].wire_drops, 0u);
    EXPECT_GT(seq[2].retransmits, 0u) << "the lossy rows must replay";
    EXPECT_GT(seq[3].retransmits, 0u) << "the lossy rows must replay";
    EXPECT_NE(seq[0].cycles_per_op, seq[1].cycles_per_op)
        << "the rows must be different experiments";
}

/** The descriptor-fetch model defaults off and, when on, counts
 * consistently; the hot tier absorbs Zipf-hot rings. */
TEST(Fleet, RdCacheAblationCounts)
{
    workloads::FleetParams p;
    p.connections = 16;
    p.warmup_ops = 20;
    p.measure_ops = 150;

    sys::ClusterConfig off = smallConfig(ProtectionMode::kRiommu, 2);
    off.max_qps = workloads::fleetMaxQps(p, off.machines);
    sys::Cluster c_off(off);
    auto rep_off = runFleet(c_off, p);
    EXPECT_EQ(rep_off.rdcache.fetches, 0u);

    sys::ClusterConfig flat = off;
    flat.rdcache.model_fetch = true; // fetch model, no hot tier
    sys::Cluster c_flat(flat);
    auto rep_flat = runFleet(c_flat, p);
    EXPECT_GT(rep_flat.rdcache.fetches, 0u);
    EXPECT_EQ(rep_flat.rdcache.hot_hits, 0u);
    EXPECT_EQ(rep_flat.rdcache.hot_misses, rep_flat.rdcache.fetches);

    sys::ClusterConfig tier = off;
    tier.rdcache.model_fetch = true;
    tier.rdcache.hot_entries = 256;
    sys::Cluster c_tier(tier);
    auto rep_tier = runFleet(c_tier, p);
    EXPECT_EQ(rep_tier.rdcache.hot_hits + rep_tier.rdcache.hot_misses,
              rep_tier.rdcache.fetches);
    EXPECT_GT(rep_tier.rdcache.hot_hits, 0u);
    // The fetch model must not perturb driver-side cycles: it is a
    // hardware-walk effect, reported via counters.
    EXPECT_DOUBLE_EQ(rep_flat.cycles_per_op, rep_off.cycles_per_op);
    EXPECT_DOUBLE_EQ(rep_tier.cycles_per_op, rep_off.cycles_per_op);
}

/** Hostile-wire fleet shape shared by the tracing tests: enough loss
 * and churn that go-back-N replays, duplicate deliveries and QP
 * errors all occur, small enough to stay fast. */
workloads::FleetReport
runTracedStorm()
{
    workloads::FleetParams p;
    p.connections = 8;
    p.warmup_ops = 10;
    p.measure_ops = 200;
    p.churn_period_ops = 25;
    p.churn_abort_fraction = 0.5;
    p.seed = 3;
    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.mode = ProtectionMode::kRiommu;
    cfg.wire.drop_rate = 0.05;
    cfg.wire.dup_rate = 0.15;
    cfg.wire.delay_rate = 0.5;
    cfg.wire.delay_max_ns = 60000;
    cfg.reliability.enabled = true;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    sys::Cluster cluster(cfg);
    const workloads::FleetReport rep = runFleet(cluster, p);
    obs::timeline().add(cluster.takeRecordings());
    return rep;
}

/**
 * Span identity under the hostile wire: duplicate deliveries and
 * go-back-N replays must re-attach to the ORIGINAL op's trace id —
 * never mint a fresh one — and every trace closes with exactly one
 * terminal CQE span. This is the invariant that makes a stitched
 * cross-machine span tree readable: retransmit episodes show up as
 * child instants on the op that suffered them.
 */
TEST(Tracing, SpanIdentityUnderHostileWire)
{
    obs::timeline().clear();
    obs::timeline().setCapacity(1u << 20); // retain every event
    obs::timeline().setRecording(true);
    const auto rep = runTracedStorm();
    obs::timeline().setRecording(false);
    ASSERT_GT(rep.retransmits, 0u) << "storm must actually replay";
    ASSERT_GT(rep.wire_dups, 0u) << "storm must actually duplicate";

    std::map<u64, u64> posts, cqes;
    u64 rtx_on_known_trace = 0, orphan_children = 0, cqe_events = 0;
    for (const auto &[key, events] : obs::timeline().tracks()) {
        (void)key;
        for (const obs::Event &e : events) {
            if (e.kind == obs::Ev::kOpPost)
                ++posts[e.trace];
            else if (e.kind == obs::Ev::kOpCqe) {
                ++cqes[e.trace];
                ++cqe_events;
            }
        }
    }
    for (const auto &[key, events] : obs::timeline().tracks()) {
        (void)key;
        for (const obs::Event &e : events) {
            if (e.kind == obs::Ev::kRetransmit) {
                // A replay episode rides the original op's trace.
                ASSERT_NE(e.trace, 0u);
                if (posts.count(e.trace))
                    ++rtx_on_known_trace;
            } else if (e.kind == obs::Ev::kWireTx ||
                       e.kind == obs::Ev::kIngressQ) {
                if (!posts.count(e.trace))
                    ++orphan_children;
            }
        }
    }
    EXPECT_GT(posts.size(), 0u);
    for (const auto &[trace, n] : posts) {
        EXPECT_NE(trace, 0u) << "every post allocates a trace";
        EXPECT_EQ(n, 1u) << "trace ids are never reused across posts";
    }
    for (const auto &[trace, n] : cqes) {
        EXPECT_EQ(n, 1u)
            << "replays and duplicates must not double-complete trace 0x"
            << std::hex << trace;
        EXPECT_TRUE(posts.count(trace))
            << "a CQE span without its post span";
    }
    EXPECT_EQ(cqe_events, rep.completions)
        << "exactly one terminal CQE span per completed op";
    EXPECT_GT(rtx_on_known_trace, 0u)
        << "at least one retransmit child attached to a live op span";
    EXPECT_EQ(orphan_children, 0u)
        << "wire/ingress spans must all belong to a posted op";
    obs::timeline().clear();
}

/** A QP's error transition is stamped with the virtual time it
 * happens at: after the traffic that broke it, within the run. */
TEST(Tracing, QpErrorEventCarriesTransitionTime)
{
    obs::timeline().clear();
    obs::timeline().setCapacity(1u << 20);
    obs::timeline().setRecording(true);
    const auto rep = runTracedStorm();
    obs::timeline().setRecording(false);
    ASSERT_GT(rep.qp_errors, 0u) << "storm must break some QPs";

    Nanos first_post = ~Nanos{0}, last = 0;
    std::vector<Nanos> errors;
    for (const auto &[key, events] : obs::timeline().tracks()) {
        (void)key;
        for (const obs::Event &e : events) {
            last = std::max(last, e.t);
            if (e.kind == obs::Ev::kOpPost)
                first_post = std::min(first_post, e.t);
            else if (e.kind == obs::Ev::kQpError)
                errors.push_back(e.t);
        }
    }
    obs::timeline().clear();
    EXPECT_EQ(errors.size(), rep.qp_errors);
    for (const Nanos t : errors) {
        EXPECT_GT(t, first_post) << "a QP errors after its first post";
        EXPECT_LE(t, last);
    }
}

std::string
timelineFingerprint()
{
    obs::timeline().clear();
    obs::timeline().setCapacity(1u << 20);
    obs::timeline().setRecording(true);
    runTracedStorm();
    obs::timeline().setRecording(false);
    std::ostringstream os;
    for (const auto &[key, events] : obs::timeline().tracks()) {
        os << "track " << key << "\n";
        for (const obs::Event &e : events) {
            os << static_cast<int>(e.kind) << ' ' << e.t << ' '
               << e.pid << ':' << e.tid << ' ' << e.bdf << '/' << e.rid
               << ' ' << e.arg << ' ' << e.arg2 << ' ' << e.dur_ns
               << ' ' << e.id << " 0x" << std::hex << e.trace
               << std::dec << '\n';
        }
    }
    obs::timeline().clear();
    return os.str();
}

/** The trace determinism gate: with tracing fully on, the entire
 * event timeline — ids, traces, timestamps, order — is byte-identical
 * from one run to the next. Trace ids come from lane-confined
 * counters, never a shared atomic. */
TEST(Tracing, TimelineByteIdenticalAcrossRuns)
{
    const std::string first = timelineFingerprint();
    const std::string second = timelineFingerprint();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** Exact SLO records cover every completion, merge deterministically
 * across machines, and attribute the tail to a real category. */
TEST(Tracing, SloReportCoversEveryCompletion)
{
    obs::setSloRecording(true);
    const auto rep = runTracedStorm();
    obs::setSloRecording(false);
    ASSERT_TRUE(rep.slo_valid);
    EXPECT_EQ(rep.slo.dropped, 0u);
    EXPECT_EQ(rep.slo.count, rep.completions);
    EXPECT_GT(rep.slo.p99, rep.slo.p50);
    EXPECT_GE(rep.slo.p999, rep.slo.p99);
    EXPECT_GE(rep.slo.max, rep.slo.p999);
    EXPECT_GT(rep.slo.tail_ops, 0u);
    EXPECT_GT(rep.slo.top_cat_share, 0.0);
    u64 total_cycles = 0;
    for (u64 c : rep.slo.all_cat_cycles)
        total_cycles += c;
    EXPECT_GT(total_cycles, 0u) << "per-Cat attribution present";
}

/** Fault injection surfaces as NAKs/local drops, never wedges the
 * closed loop, and still quiesces leak-free. */
TEST(Fleet, FaultInjectionDrainsClean)
{
    workloads::FleetParams p;
    p.connections = 8;
    p.warmup_ops = 10;
    p.measure_ops = 80;
    sys::ClusterConfig cfg = smallConfig(ProtectionMode::kRiommu, 2);
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    cfg.fault_rate = 0.02;
    cfg.fault_seed = 11;
    sys::Cluster cluster(cfg);
    auto rep = runFleet(cluster, p);
    EXPECT_EQ(rep.measured_ops, 2 * p.measure_ops);
    EXPECT_TRUE(rep.leaks_clean);
}

} // namespace
} // namespace rio
