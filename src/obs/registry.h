/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket
 * histograms the simulation layers update as they run, so a bench or
 * test can ask *when and where* cycles went (IOTLB churn, QI depth,
 * lock waits) instead of only reading end-of-run CycleAccount totals.
 *
 * Two invariants carried by every metric:
 *  - zero simulated cost: updating a metric never charges cycles,
 *    never draws RNG, never touches simulated memory — golden benches
 *    replay bit-for-bit with instrumentation compiled in;
 *  - determinism: metrics live in registration order, and a
 *    deterministic run produces an identical snapshot() every time.
 *
 * Metrics are identified by name + labels (e.g. "dma.map_cycles"
 * {mode=strict}); registering the same identity twice returns the
 * same object, so per-mode/per-device instances aggregate naturally.
 * Each metric's hot state is alignas(kCachelineSize) so one update
 * touches one line.
 *
 * Thread model (for des::ParallelEngine): every update goes straight
 * to its metric — Counter/Gauge updates are relaxed atomics,
 * Histogram serializes behind a per-histogram spinlock, and the
 * registry's structural maps take a mutex — so concurrent lanes may
 * hammer disjoint *or shared* metrics freely, and a metric read on
 * the updating thread is exact right after the op. Relaxed ordering
 * is enough because cross-lane totals are only *read* at barriers
 * (snapshot after all lanes joined), never used to communicate
 * between lanes.
 */
#ifndef RIO_OBS_REGISTRY_H
#define RIO_OBS_REGISTRY_H

#include <atomic>
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
struct alignas(kCachelineSize) Counter
{
    std::atomic<u64> value{0};

    void inc(u64 n = 1) { value.fetch_add(n, std::memory_order_relaxed); }
    u64 get() const { return value.load(std::memory_order_relaxed); }
    void reset() { value.store(0, std::memory_order_relaxed); }
};

/** Instantaneous level plus its high-water mark. */
struct alignas(kCachelineSize) Gauge
{
    std::atomic<i64> value{0};
    std::atomic<i64> high{0};

    void
    set(i64 v)
    {
        value.store(v, std::memory_order_relaxed);
        raiseHigh(v);
    }

    void
    add(i64 d)
    {
        raiseHigh(value.fetch_add(d, std::memory_order_relaxed) + d);
    }

    void
    reset()
    {
        value.store(0, std::memory_order_relaxed);
        high.store(0, std::memory_order_relaxed);
    }

  private:
    /** CAS-max: lift the high-water mark to at least @p v. */
    void
    raiseHigh(i64 v)
    {
        i64 h = high.load(std::memory_order_relaxed);
        while (v > h &&
               !high.compare_exchange_weak(h, v,
                                           std::memory_order_relaxed))
            ;
    }
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

    u64 count() const;
    u64 sum() const;
    double avg() const;
    const std::vector<u64> &bounds() const { return bounds_; }
    /** bounds().size() + 1 entries; last is the overflow bucket. */
    std::vector<u64> buckets() const;

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
    void observeLocked(u64 v);

    /** Sections are a few instructions, so a spinlock beats a mutex
     * on the per-op path, even where concurrent bench rows share a
     * histogram. */
    struct SpinGuard
    {
        explicit SpinGuard(std::atomic_flag &f) : f_(f)
        {
            while (f_.test_and_set(std::memory_order_acquire))
                ;
        }
        ~SpinGuard() { f_.clear(std::memory_order_release); }
        std::atomic_flag &f_;
    };

    std::vector<u64> bounds_; //!< ascending upper bounds; immutable
    std::vector<u64> buckets_;
    u64 count_ = 0;
    u64 sum_ = 0;
    mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
};

/** Default bucket ladder for cycle-valued histograms (1..64K, x4). */
std::vector<u64> cycleBuckets();

/** One registered metric and everything needed to print it. */
struct MetricEntry
{
    enum class Type : u8 { kCounter, kGauge, kHistogram };

    Type type;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
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

/**
 * The process-wide metric table. Components register on first use and
 * keep the returned pointer; the registry owns the storage for the
 * life of the process (or until clear(), which only tests call — any
 * cached pointer dangles after that).
 */
class Registry
{
  public:
    Counter &counter(const std::string &name, Labels labels = {});
    Gauge &gauge(const std::string &name, Labels labels = {});
    /** @p bounds used only on first registration of this identity. */
    Histogram &histogram(const std::string &name, Labels labels = {},
                         std::vector<u64> bounds = cycleBuckets());

    /** Metrics in registration order. */
    const std::vector<std::unique_ptr<MetricEntry>> &metrics() const
    {
        return entries_;
    }

    /** Flattened values in registration order (determinism checks). */
    std::vector<SnapshotEntry> snapshot() const;

    /** Zero every value, keep registrations (between bench runs). */
    void resetValues();

    /** Drop everything — invalidates cached metric pointers; tests
     * only, between fixtures that re-create their components. */
    void clear();

  private:
    MetricEntry &findOrCreate(MetricEntry::Type type,
                              const std::string &name,
                              Labels labels);

    /** Guards the structural maps (registration), not metric values —
     * those have their own synchronization. snapshot()/resetValues()
     * also take it so a concurrent registration cannot reallocate
     * entries_ under them. */
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<MetricEntry>> entries_;
    std::map<std::string, size_t> index_; //!< key -> entries_ index
};

/** The global registry every instrumentation point uses. */
Registry &registry();

} // namespace rio::obs

#endif // RIO_OBS_REGISTRY_H
