/**
 * @file
 * Multi-core scaling of the seven IOMMU modes: K independent Netperf
 * stream flows, each pinned to its own core and NIC, all sharing one
 * DmaContext. §3.2 of the paper argues the baseline Linux design
 * cannot scale because every map/unmap serializes on the context-
 * global IOVA-allocator lock and on the invalidation-queue tail
 * register; rIOMMU touches only per-ring state. This bench measures
 * exactly that: aggregate cycles per packet and lock-wait cycles per
 * packet as the core count doubles.
 *
 * Expected shape: strict/defer per-packet cost grows with cores
 * (nonzero, rising lock-wait share); riommu/riommu- lock-wait is
 * exactly zero and per-packet cost stays flat.
 */
#include "bench_common.h"

#include "cycles/cycle_account.h"
#include "workloads/sweep.h"

using namespace rio;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, {{"--cores", true}});

    // `--cores 1,2,4` overrides the default sweep (the golden-output
    // regression test pins {1,2} for a fast deterministic run).
    std::vector<unsigned> core_counts = {1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--cores" &&
            !bench::parseCountList(bench::flagValue(argc, argv, i),
                                   core_counts))
            bench::usageError(argv[0], "--cores takes a comma-separated "
                                       "list of positive integers");
    }

    bench::printHeader(
        "Scaling: cycles/packet vs core count, Netperf stream x K "
        "flows on one DmaContext (mlx)");

    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = bench::scaled(20000);
    params.warmup_packets = bench::scaled(5000);

    // One engine lane per (mode, cores) point, so results are
    // independent of --threads. One sweep per mode: a lane's machine
    // lives until its sweep ends, and one mode's lanes peak under
    // 200 MB at the default sweep where the whole grid would hold
    // 1.3 GB.
    struct Row
    {
        dma::ProtectionMode mode;
        unsigned cores;
    };
    std::vector<Row> rows;
    std::vector<workloads::RunResult> results;
    for (dma::ProtectionMode mode : bench::evaluatedModes()) {
        std::vector<workloads::StreamJob> jobs;
        for (unsigned cores : core_counts) {
            rows.push_back({mode, cores});
            params.cores = cores;
            jobs.push_back({mode, nic::mlxProfile(), params});
        }
        for (workloads::RunResult &r :
             workloads::runStreamJobs(jobs, args.threads))
            results.push_back(std::move(r));
    }
    const auto lockWaitPerPacket = [](const workloads::RunResult &r) {
        return static_cast<double>(r.acct.get(cycles::Cat::kLockWait)) /
               static_cast<double>(std::max<u64>(r.tx_packets, 1));
    };

    Table t({"mode", "cores", "cycles/pkt", "lock wait/pkt",
             "lock wait %", "vs 1 core", "iova contended",
             "qi contended"});
    const workloads::RunResult *base = nullptr;
    for (size_t i = 0; i < rows.size(); ++i) {
        const workloads::RunResult &r = results[i];
        if (rows[i].cores == core_counts.front() || !base)
            base = &r;
        const double wait = lockWaitPerPacket(r);
        t.addRow({dma::modeName(rows[i].mode),
                  strprintf("%u", rows[i].cores),
                  Table::num(r.cycles_per_packet, 0),
                  Table::num(wait, 0),
                  Table::num(100.0 * wait / r.cycles_per_packet, 1),
                  Table::num(r.cycles_per_packet / base->cycles_per_packet,
                             2),
                  strprintf("%llu",
                            (unsigned long long)r.iova_lock.contended),
                  strprintf("%llu",
                            (unsigned long long)r.inval_lock.contended)});
    }
    std::printf("%s\n", t.toString().c_str());
    std::printf("expected: strict/defer grow with cores (lock wait > 0); "
                "riommu/riommu-/none stay flat with zero lock wait\n");

    bench::JsonWriter json("scaling_cores", args.threads);
    for (size_t i = 0; i < rows.size(); ++i) {
        const workloads::RunResult &r = results[i];
        json.beginRow();
        json.add("mode", dma::modeName(rows[i].mode));
        json.add("cores", rows[i].cores);
        json.add("tx_packets", r.tx_packets);
        json.add("cycles_per_packet", r.cycles_per_packet);
        json.add("lock_wait_per_packet", lockWaitPerPacket(r));
        json.add("throughput_gbps", r.throughput_gbps);
        json.add("iova_lock_acquisitions", r.iova_lock.acquisitions);
        json.add("iova_lock_contended", r.iova_lock.contended);
        json.add("iova_lock_wait_cycles", r.iova_lock.wait_cycles);
        json.add("inval_lock_acquisitions", r.inval_lock.acquisitions);
        json.add("inval_lock_contended", r.inval_lock.contended);
        json.add("inval_lock_wait_cycles", r.inval_lock.wait_cycles);
    }
    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
