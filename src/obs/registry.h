/**
 * @file
 * Metrics registry: the process-wide totals of a few headline counts
 * (IOTLB hits and misses, QI sync latency, rIOTLB implicit
 * invalidations, per-mode DMA map/unmap latency), published once by
 * each owner at teardown so a bench can read them after its machines
 * are gone.
 *
 * Every count lives once, as a plain integer or Histogram in the
 * component that owns it (IotlbStats, QiStats, RiotlbStats, the DMA
 * handle's latency histograms). Those owners are lane-confined, so
 * the per-op path touches no shared state. Their destructors fold
 * the totals in here through one merge() call, the only writer.
 *
 * Two invariants carried by every metric:
 *  - zero simulated cost: counting never charges cycles, never draws
 *    RNG, never touches simulated memory;
 *  - determinism: snapshot() lists metrics sorted by key, and totals
 *    are sums, so a deterministic run produces an identical snapshot
 *    at any thread count.
 *
 * Thread model: merge(), snapshot(), resetValues() and clear() take
 * the registry's one mutex. metrics() and the Counter/Histogram
 * values it hands out are unsynchronized; read them only when no
 * owner can be tearing down (after every lane has joined).
 */
#ifndef RIO_OBS_REGISTRY_H
#define RIO_OBS_REGISTRY_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"

namespace rio::obs {

/** Metric labels, e.g. {{"mode", "strict"}, {"bdf", "0:3.0"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic event count. */
struct Counter
{
    u64 value = 0;

    void inc(u64 n = 1) { value += n; }
    u64 get() const { return value; }
    void reset() { value = 0; }
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * v <= bounds[i] (first matching bucket); one extra overflow bucket
 * catches everything above the last bound.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<u64> bounds);

    void observe(u64 v);

    /** Add every observation of @p o (same bounds). */
    void merge(const Histogram &o);

    u64 count() const { return count_; }
    u64 sum() const { return sum_; }
    double avg() const;
    const std::vector<u64> &bounds() const { return bounds_; }
    /** bounds().size() + 1 entries; last is the overflow bucket. */
    const std::vector<u64> &buckets() const { return buckets_; }

    /**
     * Estimate of quantile @p q (0..1]: finds the bucket holding the
     * nearest-rank target and linearly interpolates within it
     * (observations assumed uniform over the bucket's range; the
     * overflow bucket collapses to its lower bound, the last finite
     * bound). Exact when a bucket's range is a single value; for
     * exact tail order statistics use obs::OpLatencyRecorder.
     */
    u64 quantileBound(double q) const;

    /** Zero all buckets and totals; bounds stay. */
    void reset();

  private:
    std::vector<u64> bounds_; //!< ascending upper bounds; immutable
    std::vector<u64> buckets_;
    u64 count_ = 0;
    u64 sum_ = 0;
};

/** Default bucket ladder for cycle-valued histograms (1..64K, x4). */
std::vector<u64> cycleBuckets();

/** One registered metric and everything needed to print it. */
struct MetricEntry
{
    enum class Type : u8 { kCounter, kHistogram };

    Type type;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;

    /** "name{k=v,...}" — the canonical identity string. */
    std::string key() const;
};

/** One metric's values, flattened for comparisons. */
struct SnapshotEntry
{
    std::string key;
    std::vector<u64> values;

    bool operator==(const SnapshotEntry &o) const
    {
        return key == o.key && values == o.values;
    }
};

/** One owner total handed to Registry::merge. */
struct Total
{
    std::string name;
    Labels labels;
    u64 count = 0;                        //!< added to a counter...
    const Histogram *histogram = nullptr; //!< ...unless this is set
};

/**
 * The process-wide metric table. Metrics are identified by name +
 * labels (e.g. "dma.map_cycles{mode=strict}"); merging the same
 * identity twice adds into one metric, so per-owner totals aggregate
 * naturally.
 */
class Registry
{
  public:
    /** Add @p totals, registering each identity on first sight. */
    void merge(const std::vector<Total> &totals);

    /** Metrics in registration order. */
    const std::vector<std::unique_ptr<MetricEntry>> &metrics() const
    {
        return entries_;
    }

    /** Flattened values sorted by key (determinism checks). */
    std::vector<SnapshotEntry> snapshot() const;

    /** Zero every value, keep registrations (between bench runs). */
    void resetValues();

    /** Drop every metric (tests). */
    void clear();

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<MetricEntry>> entries_;
    std::map<std::string, size_t> index_; //!< key -> entries_ index
};

/** The global registry owners publish their totals to. */
Registry &registry();

} // namespace rio::obs

#endif // RIO_OBS_REGISTRY_H
