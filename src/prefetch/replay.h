/**
 * @file
 * Trace replay harness for the §5.4 prefetcher comparison: runs a
 * DMA trace through a small TLB plus a prefetcher and reports hit
 * rates, in both the stock configuration (prefetcher histories drop
 * invalidated IOVAs) and the paper's modified configuration
 * (histories persist, but predictions must pass a live-mapping
 * check before being installed).
 */
#ifndef RIO_PREFETCH_REPLAY_H
#define RIO_PREFETCH_REPLAY_H

#include "dma/dma_trace.h"
#include "prefetch/prefetcher.h"

namespace rio::prefetch {

/** Replay configuration. */
struct ReplayConfig
{
    /** Simulated IOTLB capacity (LRU). */
    unsigned tlb_entries = 64;
    /**
     * false == stock prefetcher: every unmap also purges the pfn from
     * the prefetcher history (the configuration the paper found
     * ineffective). true == the paper's modification.
     */
    bool store_invalidated = false;
    /**
     * Check predictions against the live mapping set before
     * installing them (mandatory in the paper's modified variants —
     * predicting an unmapped IOVA would walk into a fault).
     */
    bool validate_against_live = true;
};

/** Replay outcome. */
struct ReplayResult
{
    u64 accesses = 0;
    u64 hits = 0;          //!< TLB hits of any kind
    u64 prefetch_hits = 0; //!< hits on prefetched entries
    u64 misses = 0;
    u64 predictions = 0;
    u64 rejected_predictions = 0; //!< failed the live check

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Run @p trace through @p prefetcher under @p config. */
ReplayResult replayTrace(const dma::DmaTrace &trace,
                         TlbPrefetcher &prefetcher,
                         const ReplayConfig &config);

} // namespace rio::prefetch

#endif // RIO_PREFETCH_REPLAY_H
