/**
 * @file
 * Reproduces §5.4 of the paper: feeding DMA traces (captured from
 * the Netperf stream workload) to the Markov, Recency and Distance
 * TLB prefetchers. Expected findings, per the paper:
 *
 *  - the stock prefetchers are ineffective, because IOVAs are
 *    invalidated immediately after use;
 *  - the modified versions (remember invalidated addresses, validate
 *    predictions against live mappings) predict well only once their
 *    history grows larger than the ring;
 *  - the rIOTLB mechanism needs two entries per ring and its
 *    "predictions" are always correct.
 */
#include "bench_common.h"

#include "prefetch/replay.h"

using namespace rio;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bench::printHeader("Sec 5.4: TLB prefetchers vs. the rIOTLB on a "
                       "Netperf-stream DMA trace");

    // Capture a trace from the strict-mode stream run (IOVAs, not
    // physical addresses, as in the paper's QEMU logging).
    dma::DmaTrace dma_trace;
    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = bench::scaled(15000);
    params.warmup_packets = bench::scaled(2000);
    params.trace = &dma_trace;
    (void)workloads::runStream(dma::ProtectionMode::kStrict,
                               nic::mlxProfile(), params);
    std::printf("trace: %llu events\n\n",
                static_cast<unsigned long long>(dma_trace.size()));

    const u64 ring_size = nic::mlxProfile().tx_ring_entries;
    const std::vector<size_t> history_sizes = {
        ring_size / 8, ring_size / 2, ring_size, ring_size * 4,
        ring_size * 16};

    Table table({"prefetcher", "history", "config", "hit rate (%)",
                 "prefetch hits (%)", "rejected preds (%)"});
    for (const char *kind : {"markov", "recency", "distance"}) {
        for (size_t history : history_sizes) {
            for (bool modified : {false, true}) {
                std::unique_ptr<prefetch::TlbPrefetcher> p;
                if (std::string_view(kind) == "markov")
                    p = std::make_unique<prefetch::MarkovPrefetcher>(
                        history);
                else if (std::string_view(kind) == "recency")
                    p = std::make_unique<prefetch::RecencyPrefetcher>(
                        history);
                else
                    p = std::make_unique<prefetch::DistancePrefetcher>(
                        history);
                prefetch::ReplayConfig cfg;
                cfg.store_invalidated = modified;
                cfg.validate_against_live = true;
                const auto r =
                    prefetch::replayTrace(dma_trace, *p, cfg);
                table.addRow(
                    {kind, std::to_string(history),
                     modified ? "modified" : "stock",
                     Table::num(100.0 * r.hitRate(), 1),
                     Table::num(
                         100.0 * static_cast<double>(r.prefetch_hits) /
                             static_cast<double>(
                                 std::max<u64>(r.accesses, 1)),
                         1),
                     Table::num(
                         100.0 *
                             static_cast<double>(r.rejected_predictions) /
                             static_cast<double>(
                                 std::max<u64>(r.predictions, 1)),
                         1)});
            }
        }
    }
    // The rIOTLB line: two entries per ring, always-correct
    // prediction of the next mapped entry.
    {
        prefetch::SequentialRingPrefetcher p;
        prefetch::ReplayConfig cfg;
        cfg.tlb_entries = 2 * (2 + nic::mlxProfile().rx_rings);
        cfg.store_invalidated = true;
        cfg.validate_against_live = true;
        const auto r = prefetch::replayTrace(dma_trace, p, cfg);
        table.addRow(
            {"riotlb", "2/ring", "-",
             Table::num(100.0 * r.hitRate(), 1),
             Table::num(100.0 * static_cast<double>(r.prefetch_hits) /
                            static_cast<double>(
                                std::max<u64>(r.accesses, 1)),
                        1),
             Table::num(
                 100.0 * static_cast<double>(r.rejected_predictions) /
                     static_cast<double>(std::max<u64>(r.predictions, 1)),
                 1)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("ring size for reference: %llu descriptors\n",
                static_cast<unsigned long long>(ring_size));
    bench::JsonWriter json("sec54_prefetchers", args.threads);
    json.addTable(table);
    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
