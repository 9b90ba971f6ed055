/**
 * @file
 * The Figure 7 sweep, shared by bench_fig7_cycles_per_packet and
 * bench_virt --platform bare: one code path, so the golden_virt
 * ctests diff the bare platform against the fig7 golden by
 * construction rather than by copy.
 */
#ifndef RIO_BENCH_FIG7_H
#define RIO_BENCH_FIG7_H

#include "bench_common.h"

#include <string>
#include <vector>

#include "cycles/cycle_account.h"
#include "workloads/sweep.h"

namespace rio::bench {

/**
 * Cycles per packet by component for the seven modes, Netperf stream
 * on mlx: printed as a table under @p title, followed by @p footer,
 * and written as bench @p json_name. Returns the bench's exit status.
 */
inline int
runFig7(const BenchArgs &args, const std::string &title,
        const char *json_name, const char *footer)
{
    using cycles::Cat;
    printHeader(title);

    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = scaled(40000);
    params.warmup_packets = scaled(10000);

    struct Row
    {
        dma::ProtectionMode mode;
        double inv, pt, iova, other, total;
    };
    // One job per mode on the parallel engine; results are in job
    // order and byte-identical for any --threads value.
    std::vector<workloads::StreamJob> jobs;
    for (dma::ProtectionMode mode : evaluatedModes())
        jobs.push_back({mode, nic::mlxProfile(), params});
    const std::vector<workloads::RunResult> results =
        workloads::runStreamJobs(jobs, args.threads);

    std::vector<Row> rows;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const workloads::RunResult &r = results[i];
        const double pkts = static_cast<double>(r.tx_packets);
        Row row;
        row.mode = jobs[i].mode;
        row.inv =
            static_cast<double>(r.acct.get(Cat::kUnmapIotlbInv)) / pkts;
        row.pt = static_cast<double>(r.acct.get(Cat::kMapPageTable) +
                                     r.acct.get(Cat::kUnmapPageTable)) /
                 pkts;
        row.iova = static_cast<double>(r.acct.get(Cat::kMapIovaAlloc) +
                                       r.acct.get(Cat::kUnmapIovaFind) +
                                       r.acct.get(Cat::kUnmapIovaFree)) /
                   pkts;
        row.total = r.cycles_per_packet;
        row.other = row.total - row.inv - row.pt - row.iova;
        rows.push_back(row);
    }
    const double c_none = rows.back().total; // none is listed last

    Table t({"mode", "iotlb inv", "page table", "iova (de)alloc",
             "other", "C (total)", "C/C_none"});
    for (const Row &row : rows) {
        std::vector<std::string> cells = {dma::modeName(row.mode),
                                          Table::num(row.inv, 0),
                                          Table::num(row.pt, 0),
                                          Table::num(row.iova, 0),
                                          Table::num(row.other, 0),
                                          Table::num(row.total, 0),
                                          Table::num(row.total / c_none,
                                                     2)};
        t.addRow(cells);
    }
    std::printf("%s\n%s", t.toString().c_str(), footer);

    JsonWriter json(json_name, args.threads);
    for (const Row &row : rows) {
        json.beginRow();
        json.add("mode", dma::modeName(row.mode));
        json.add("iotlb_inv", row.inv);
        json.add("page_table", row.pt);
        json.add("iova", row.iova);
        json.add("other", row.other);
        json.add("total", row.total);
        json.add("ratio_vs_none", row.total / c_none);
    }
    if (!json.writeTo(args.json_path))
        return 1;
    finishBench(args);
    return 0;
}

} // namespace rio::bench

#endif // RIO_BENCH_FIG7_H
