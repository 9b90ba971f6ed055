/**
 * @file
 * Scale-out RDMA fabric bench: cycles per RDMA op across the seven
 * protection modes as the per-machine connection count sweeps
 * 64 -> 16K — the regime where the paper's single-NIC result (a
 * handful of rings, long completion bursts, one rIOTLB invalidation
 * amortized over ~hundreds of unmaps) erodes: with thousands of QP
 * data rings, a completion-poll batch touches mostly *distinct*
 * rings, every unmap closes its ring's burst, and rIOMMU pays the
 * full invalidation per op while the deferred baselines keep
 * amortizing globally (250 frees per flush regardless of ring
 * count). The bench reports the crossover connection count where
 * riommu's cycles/op overtakes defer+.
 *
 * Ablations in the same JSON:
 *   - variant=rdfetch       riommu with the rDEVICE descriptor-fetch
 *                           model on (every rtable_walk pays a
 *                           descriptor memory reference — the
 *                           hardware-side erosion);
 *   - variant=rdfetch+tier  same plus a small direct-mapped hot tier
 *                           (riommu::RdCacheConfig.hot_entries): the
 *                           Zipf-hot rings are absorbed on chip, the
 *                           tail still walks — reported as hit rate;
 *   - variant=coredepot     strict+/defer+ with the magazine
 *                           allocator's per-core loaded/previous pair
 *                           in front of the depot (the ROADMAP
 *                           perf-debt fix) instead of the legacy
 *                           per-handle depot.
 *
 * --threads N runs up to N rows (one whole cluster each) at a time;
 * rows are printed and checked in sweep order, so output is
 * byte-identical for any --threads value. The golden_cluster ctest
 * pins `--connections 64 --quick` JSON across thread counts and this
 * bench itself asserts the fig7-equivalent mode ordering at the
 * smallest sweep point.
 */
#include "fleet_rows.h"

#include <string>
#include <vector>

#include "base/logging.h"
#include "des/parallel.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"

using namespace rio;

namespace {

struct RowResult
{
    dma::ProtectionMode mode;
    std::string variant;
    u32 connections = 0;
    workloads::FleetReport rep;
    std::vector<obs::Recording> events;
};

RowResult
runPoint(dma::ProtectionMode mode, const std::string &variant,
         u32 connections, unsigned machines, bool quick)
{
    const workloads::FleetParams p =
        bench::fleetParams(connections, quick);
    sys::ClusterConfig cfg;
    cfg.machines = machines;
    cfg.mode = mode;
    cfg.max_qps = workloads::fleetMaxQps(p, machines);
    if (variant == "rdfetch" || variant == "rdfetch+tier")
        cfg.rdcache.model_fetch = true;
    if (variant == "rdfetch+tier")
        cfg.rdcache.hot_entries = 512;
    if (variant == "coredepot")
        cfg.iova_cache_rounds = 16;

    sys::Cluster cluster(cfg);
    RowResult row;
    row.mode = mode;
    row.variant = variant;
    row.connections = connections;
    row.rep = workloads::runFleet(cluster, p);
    row.events = cluster.takeRecordings();
    RIO_ASSERT(row.rep.leaks_clean, "leaked mappings at ",
               dma::modeName(mode), " conns=", connections);
    RIO_ASSERT(row.rep.comp_errors == 0 && row.rep.remote_faults == 0,
               "unexpected faults at ", dma::modeName(mode));
    return row;
}

double
perOp(u64 count, const workloads::FleetReport &rep)
{
    return rep.completions
               ? static_cast<double>(count) /
                     static_cast<double>(rep.completions)
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--quick"}, {"--connections", true}, {"--machines", true}});
    bool quick = false;
    u32 max_connections = 0;
    unsigned machines = 2;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--quick")
            quick = true;
        else if (arg == "--connections")
            max_connections = bench::parseAtLeast(
                argv, arg, bench::flagValue(argc, argv, i), u32{2});
        else if (arg == "--machines")
            machines = bench::parseAtLeast(
                argv, arg, bench::flagValue(argc, argv, i), 2u);
    }
    if (max_connections == 0)
        max_connections = quick ? 256 : 16384;

    std::vector<u32> sweep;
    for (u32 c : {64u, 256u, 1024u, 4096u, 16384u})
        if (c <= max_connections)
            sweep.push_back(c);
    if (sweep.empty())
        sweep.push_back(max_connections);

    bench::printHeader(strprintf(
        "Cluster RDMA fabric: %u machines, %u..%u QPs/machine, "
        "cycles per RDMA op (erosion of the flat-table win)",
        machines, sweep.front(), sweep.back()));

    std::vector<RowResult> rows;
    for (const u32 conns : sweep) {
        for (const dma::ProtectionMode mode : bench::evaluatedModes())
            rows.push_back({mode, "base", conns, {}, {}});
        // Ablations ride the same sweep point.
        rows.push_back(
            {dma::ProtectionMode::kRiommu, "rdfetch", conns, {}, {}});
        rows.push_back(
            {dma::ProtectionMode::kRiommu, "rdfetch+tier", conns, {}, {}});
        for (const dma::ProtectionMode mode :
             {dma::ProtectionMode::kStrictPlus,
              dma::ProtectionMode::kDeferPlus})
            rows.push_back({mode, "coredepot", conns, {}, {}});
    }
    des::parallelFor(rows.size(), args.threads, [&](size_t i) {
        rows[i] = runPoint(rows[i].mode, rows[i].variant,
                           rows[i].connections, machines, quick);
    });
    bench::addRowEvents(rows);

    // Fig7-equivalent ordering gate at the bare (smallest) point: the
    // unprotected optimum is cheapest and rIOMMU beats strict — the
    // single-connection-regime result the paper's Figure 7 pins.
    {
        double none = 0, riommu = 0, strict_c = 0, min_cpo = 1e100;
        for (const RowResult &r : rows) {
            if (r.connections != sweep.front() || r.variant != "base")
                continue;
            min_cpo = std::min(min_cpo, r.rep.cycles_per_op);
            if (r.mode == dma::ProtectionMode::kNone)
                none = r.rep.cycles_per_op;
            if (r.mode == dma::ProtectionMode::kRiommu)
                riommu = r.rep.cycles_per_op;
            if (r.mode == dma::ProtectionMode::kStrict)
                strict_c = r.rep.cycles_per_op;
        }
        RIO_ASSERT(none > 0 && none <= min_cpo + 1e-9,
                   "fig7 equivalence: none must be the cheapest mode");
        RIO_ASSERT(riommu < strict_c,
                   "fig7 equivalence: riommu must beat strict at ",
                   sweep.front(), " connections (", riommu, " vs ",
                   strict_c, ")");
    }

    // Crossover: smallest sweep point where riommu (base) stops
    // beating defer+ (base) on cycles/op; 0 = never within the sweep.
    u32 crossover = 0;
    for (const u32 conns : sweep) {
        double riommu = 0, deferp = 0;
        for (const RowResult &r : rows) {
            if (r.connections != conns || r.variant != "base")
                continue;
            if (r.mode == dma::ProtectionMode::kRiommu)
                riommu = r.rep.cycles_per_op;
            if (r.mode == dma::ProtectionMode::kDeferPlus)
                deferp = r.rep.cycles_per_op;
        }
        if (riommu > deferp) {
            crossover = conns;
            break;
        }
    }

    Table t({"mode/variant", "conns", "cycles/op", "avg burst",
             "riotlb inv/op", "rdfetch hit%", "blocked"});
    bench::JsonWriter json("cluster_rdma", args.threads);
    for (const RowResult &r : rows) {
        const double hitrate = bench::rdcacheHitRate(r.rep);
        t.addRow(strprintf("%s/%s", dma::modeName(r.mode),
                           r.variant.c_str()),
                 {static_cast<double>(r.connections),
                  r.rep.cycles_per_op, r.rep.avg_burst,
                  perOp(r.rep.riotlb.invalidations, r.rep), hitrate,
                  static_cast<double>(r.rep.posts_blocked)},
                 2);
        bench::addFleetRow(json, r.mode, r.variant, r.connections, r.rep);
    }
    json.beginRow();
    json.add("mode", "summary");
    json.add("variant", "crossover");
    json.add("crossover_connections", static_cast<u64>(crossover));
    std::printf("%s\n", t.toString().c_str());
    if (crossover)
        std::printf("flat-table win erodes at ~%u QPs/machine "
                    "(riommu cycles/op > defer+)\n",
                    crossover);
    else
        std::printf("no riommu/defer+ crossover within %u QPs/machine\n",
                    sweep.back());

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
