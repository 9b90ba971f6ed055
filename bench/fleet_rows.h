/**
 * @file
 * bench_cluster_rdma's fleet recipe and JSON row, shared by the fabric
 * benches. bench_wire_storm and bench_migration re-emit its 64-QP base
 * rows with their own subsystem off (--loss 0); the golden_wire and
 * golden_migrate ctests diff those rows against the cluster golden.
 */
#ifndef RIO_BENCH_FLEET_ROWS_H
#define RIO_BENCH_FLEET_ROWS_H

#include "bench_common.h"

#include <string>
#include <vector>

#include "base/logging.h"
#include "des/parallel.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"

namespace rio::bench {

/** The cluster bench's fleet at @p connections QPs per machine. */
inline workloads::FleetParams
fleetParams(u32 connections, bool quick)
{
    workloads::FleetParams p;
    p.connections = connections;
    p.credits = 16; // = sq_depth: fill the CQ batches
    p.warmup_ops = quick ? 100 : 300;
    p.measure_ops = quick ? 500 : 3000;
    p.seed = 3;
    return p;
}

/** rDEVICE hot-tier hit rate in percent; 0 when nothing was fetched. */
inline double
rdcacheHitRate(const workloads::FleetReport &rep)
{
    return rep.rdcache.fetches
               ? 100.0 * static_cast<double>(rep.rdcache.hot_hits) /
                     static_cast<double>(rep.rdcache.fetches)
               : 0.0;
}

/** One bench_cluster_rdma JSON row. */
inline void
addFleetRow(JsonWriter &json, dma::ProtectionMode mode,
            const std::string &variant, u32 connections,
            const workloads::FleetReport &rep)
{
    json.beginRow();
    json.add("mode", dma::modeName(mode));
    json.add("variant", variant);
    json.add("connections", static_cast<u64>(connections));
    json.add("cycles_per_op", rep.cycles_per_op);
    json.add("avg_burst", rep.avg_burst);
    json.add("measured_ops", rep.measured_ops);
    json.add("completions", rep.completions);
    json.add("posts_blocked", rep.posts_blocked);
    json.add("eob_unmaps", rep.eob_unmaps);
    json.add("riotlb_invalidations", rep.riotlb.invalidations);
    json.add("riotlb_walks", rep.riotlb.walks);
    json.add("rdcache_fetches", rep.rdcache.fetches);
    json.add("rdcache_hot_hits", rep.rdcache.hot_hits);
    json.add("rdcache_hit_rate", rdcacheHitRate(rep));
}

/**
 * The cluster bench's 64-QP base rows on a 2-machine cluster with the
 * ClusterConfig defaults (lossless wire, migration off): printed as a
 * compat table under @p title and written as bench @p json_name.
 * Returns the bench's exit status.
 */
inline int
runCompatRows(const BenchArgs &args, const std::string &title,
              const char *json_name, bool quick)
{
    printHeader(title);
    const workloads::FleetParams p = fleetParams(64, quick);

    const std::vector<dma::ProtectionMode> &modes = evaluatedModes();
    struct Row
    {
        workloads::FleetReport rep;
        std::vector<obs::Recording> events;
    };
    std::vector<Row> rows(modes.size());
    des::parallelFor(modes.size(), args.threads, [&](size_t i) {
        sys::ClusterConfig cfg;
        cfg.machines = 2;
        cfg.mode = modes[i];
        cfg.max_qps = workloads::fleetMaxQps(p, 2);
        sys::Cluster cluster(cfg);
        rows[i].rep = workloads::runFleet(cluster, p);
        rows[i].events = cluster.takeRecordings();
    });
    addRowEvents(rows);

    Table t({"mode", "conns", "cycles/op", "avg burst"});
    JsonWriter json(json_name, args.threads);
    for (size_t i = 0; i < modes.size(); ++i) {
        const workloads::FleetReport &rep = rows[i].rep;
        RIO_ASSERT(rep.leaks_clean && rep.comp_errors == 0 &&
                       rep.remote_faults == 0,
                   "compat row must match the lossless fabric at ",
                   dma::modeName(modes[i]));
        t.addRow(dma::modeName(modes[i]),
                 {static_cast<double>(p.connections),
                  rep.cycles_per_op, rep.avg_burst},
                 2);
        addFleetRow(json, modes[i], "base", p.connections, rep);
    }
    std::printf("%s\n", t.toString().c_str());
    if (!json.writeTo(args.json_path))
        return 1;
    finishBench(args);
    return 0;
}

} // namespace rio::bench

#endif // RIO_BENCH_FLEET_ROWS_H
