/**
 * @file
 * Tail-latency attribution bench: loss x incast x the seven
 * protection modes, reported as EXACT per-op order statistics
 * (obs::SloReport over the recorders' per-op records, not histogram
 * buckets) — p50/p99/p999/max plus "which cycles::Cat dominates the
 * ops at or above p99".
 *
 * The claim under test: rIOMMU's tail is structurally flat — its
 * per-op DMA work is a constant-cost rRING update, so p999 tracks
 * p50 and the tail is owned by the wire (retransmits, ingress
 * queueing), not by the IOMMU. The strict modes' tails are
 * walk/invalidation-dominated: the synchronous per-op invalidation +
 * IOVA bookkeeping piles into exactly the ops that already hit loss
 * or congestion, so p999 diverges from p50 and the top tail
 * contributor is a DMA category rather than generic processing.
 *
 * Grid: loss 0 (lossless wire) anchors the structural gap; loss > 0
 * adds go-back-N retransmit episodes; incast adds a bounded ingress
 * port collapsing at machine 0. Exact quantiles make the small-
 * sample quick runs meaningful: every op is recorded, nothing is
 * bucketed away.
 */
#include "fleet_rows.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "base/logging.h"
#include "cycles/cycle_account.h"
#include "des/parallel.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"

using namespace rio;

namespace {

/** Sum of the DMA-management categories (map/unmap bookkeeping, the
 * IOMMU's share of an op) in a per-Cat cycle vector. */
u64
dmaCycles(const std::array<u64, obs::kSloMaxCats> &cats)
{
    u64 n = 0;
    for (const cycles::Cat c :
         {cycles::Cat::kMapIovaAlloc, cycles::Cat::kMapPageTable,
          cycles::Cat::kMapOther, cycles::Cat::kUnmapIovaFind,
          cycles::Cat::kUnmapIovaFree, cycles::Cat::kUnmapPageTable,
          cycles::Cat::kUnmapIotlbInv, cycles::Cat::kUnmapOther})
        n += cats[static_cast<size_t>(c)];
    return n;
}

/** One grid row: its spec and its report. */
struct TailPoint
{
    dma::ProtectionMode mode;
    double loss = 0;
    bool incast = false;
    workloads::FleetReport rep;
    std::vector<obs::Recording> events;
};

/** Run one point; its machines' recordings go to @p events. */
workloads::FleetReport
runPoint(dma::ProtectionMode mode, double loss, bool incast,
         unsigned machines, bool quick,
         std::vector<obs::Recording> &events)
{
    workloads::FleetParams p = bench::fleetParams(64, quick);
    sys::ClusterConfig cfg;
    cfg.machines = machines;
    cfg.mode = mode;
    if (loss > 0.0) {
        // The wire-storm fabric: loss + duplicate/straggler tail,
        // churn with app-death aborts feeding late arrivals.
        p.churn_period_ops = 25;
        p.churn_abort_fraction = 0.5;
        cfg.wire.drop_rate = loss;
        cfg.wire.dup_rate = std::min(0.25, 3 * loss);
        cfg.wire.delay_rate = std::min(0.5, 10 * loss);
        cfg.wire.delay_max_ns = 60000;
        cfg.reliability.enabled = true;
    }
    if (incast) {
        p.incast_period_ops = 50;
        p.incast_burst = 12;
        cfg.wire.ingress_cap = 16;
        cfg.reliability.enabled = true; // armed wire requires it
    }
    cfg.max_qps = workloads::fleetMaxQps(p, machines);

    sys::Cluster cluster(cfg);
    const workloads::FleetReport rep = workloads::runFleet(cluster, p);
    const char *name = dma::modeName(mode);
    RIO_ASSERT(rep.slo_valid, "SLO recording was off for ", name);
    RIO_ASSERT(rep.slo.dropped == 0, "SLO recorder overflowed at ",
               name, " (", rep.slo.dropped, " ops lost)");
    RIO_ASSERT(rep.completions == rep.posts,
               "CQE conservation broke at ", name, " loss=", loss);
    RIO_ASSERT(rep.slo.count == rep.completions,
               "SLO records must cover every completion at ", name,
               ": ", rep.slo.count, " records for ", rep.completions,
               " CQEs");
    RIO_ASSERT(rep.leaks_clean, "leaked mappings at ", name);
    events = cluster.takeRecordings();
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, {{"--quick"}, {"--machines", true}});
    // Exact per-op records are this bench's entire point: recording is
    // forced on, `--slo` is accepted for uniformity with other benches.
    obs::setSloRecording(true);
    bool quick = false;
    unsigned machines = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--quick")
            quick = true;
        else if (arg == "--machines")
            machines = bench::parseAtLeast(
                argv, arg, bench::flagValue(argc, argv, i), 2u);
    }

    const std::vector<double> losses =
        quick ? std::vector<double>{0.0, 0.02}
              : std::vector<double>{0.0, 0.02, 0.05};

    bench::printHeader(strprintf(
        "Tail latency: %u machines, 64 QPs/machine, loss x incast x "
        "mode — exact p50/p99/p999 with per-Cat p99 attribution",
        machines));

    Table t({"mode", "loss", "incast", "ops", "p50 us", "p99 us",
             "p999 us", "max us", "top cat @p99", "share",
             "tail rtx/op"});
    bench::JsonWriter json("tail_latency", args.threads);
    std::vector<TailPoint> points;
    for (const double loss : losses)
        for (const bool incast : {false, true})
            for (const dma::ProtectionMode mode : bench::evaluatedModes())
                points.push_back({mode, loss, incast, {}, {}});
    des::parallelFor(points.size(), args.threads, [&](size_t i) {
        TailPoint &pt = points[i];
        pt.rep = runPoint(pt.mode, pt.loss, pt.incast, machines, quick,
                          pt.events);
    });
    bench::addRowEvents(points);

    // Reports of the lossless/no-incast anchor, keyed by mode name,
    // for the structural-tail assertions below.
    std::map<std::string, workloads::FleetReport> anchor;
    for (const TailPoint &pt : points) {
        const workloads::FleetReport &rep = pt.rep;
        const obs::SloReport &s = rep.slo;
        const char *top =
            cycles::catName(static_cast<cycles::Cat>(s.top_cat));
        const double tail_rtx =
            s.tail_ops ? static_cast<double>(s.tail_retransmits) /
                             static_cast<double>(s.tail_ops)
                       : 0.0;
        if (pt.loss == 0.0 && !pt.incast)
            anchor.emplace(dma::modeName(pt.mode), rep);
        t.addRow({dma::modeName(pt.mode), Table::num(pt.loss, 3),
                  pt.incast ? "yes" : "no",
                  Table::num(static_cast<double>(s.count), 0),
                  Table::num(static_cast<double>(s.p50) / 1e3, 3),
                  Table::num(static_cast<double>(s.p99) / 1e3, 3),
                  Table::num(static_cast<double>(s.p999) / 1e3, 3),
                  Table::num(static_cast<double>(s.max) / 1e3, 3),
                  top, Table::num(s.top_cat_share, 3),
                  Table::num(tail_rtx, 3)});
        json.beginRow();
        json.add("mode", dma::modeName(pt.mode));
        json.add("loss", pt.loss);
        json.add("incast", static_cast<u64>(pt.incast));
        json.add("machines", static_cast<u64>(machines));
        json.add("count", s.count);
        json.add("errors", s.errors);
        json.add("p50_ns", static_cast<u64>(s.p50));
        json.add("p99_ns", static_cast<u64>(s.p99));
        json.add("p999_ns", static_cast<u64>(s.p999));
        json.add("max_ns", static_cast<u64>(s.max));
        json.add("mean_ns", s.mean_ns);
        json.add("top_cat", top);
        json.add("top_cat_share", s.top_cat_share);
        json.add("tail_ops", s.tail_ops);
        json.add("tail_retransmits", s.tail_retransmits);
        json.add("cycles_per_op", rep.cycles_per_op);
        json.add("completions", rep.completions);
        json.add("retransmits", rep.retransmits);
        json.add("qp_errors", rep.qp_errors);
    }
    std::printf("%s\n", t.toString().c_str());

    // The structural claim, pinned at the lossless/no-incast anchor
    // where nothing but the IOMMU differs between modes: rIOMMU's
    // exact tail sits below strict's, and strict's tail ops burn more
    // of their cycles in DMA management than rIOMMU's do.
    {
        const workloads::FleetReport &rio = anchor.at("riommu");
        const workloads::FleetReport &strict = anchor.at("strict");
        RIO_ASSERT(rio.slo.p99 < strict.slo.p99,
                   "rIOMMU p99 must undercut strict: ", rio.slo.p99,
                   " vs ", strict.slo.p99);
        RIO_ASSERT(rio.slo.p999 < strict.slo.p999,
                   "rIOMMU p999 must undercut strict: ", rio.slo.p999,
                   " vs ", strict.slo.p999);
        const u64 rio_total = std::max<u64>(
            1, std::accumulate(rio.slo.tail_cat_cycles.begin(),
                               rio.slo.tail_cat_cycles.end(), u64{0}));
        const u64 strict_total = std::max<u64>(
            1, std::accumulate(strict.slo.tail_cat_cycles.begin(),
                               strict.slo.tail_cat_cycles.end(), u64{0}));
        const double rio_dma =
            static_cast<double>(dmaCycles(rio.slo.tail_cat_cycles)) /
            static_cast<double>(rio_total);
        const double strict_dma =
            static_cast<double>(dmaCycles(strict.slo.tail_cat_cycles)) /
            static_cast<double>(strict_total);
        RIO_ASSERT(strict_dma > rio_dma,
                   "strict's tail must be DMA-dominated relative to "
                   "rIOMMU: ",
                   strict_dma, " vs ", rio_dma);
        std::printf("tail DMA-cycle share at p99 (loss 0): "
                    "strict %.1f%%, riommu %.1f%%\n",
                    100.0 * strict_dma, 100.0 * rio_dma);
    }

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
