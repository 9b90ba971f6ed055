#include "obs/registry.h"

#include <algorithm>

#include "base/logging.h"

namespace rio::obs {

Histogram::Histogram(std::vector<u64> bounds) : bounds_(std::move(bounds))
{
    RIO_ASSERT(!bounds_.empty(), "histogram needs at least one bound");
    RIO_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must ascend");
    buckets_.assign(bounds_.size() + 1, 0);
}

void
Histogram::observeLocked(u64 v)
{
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    ++buckets_[i];
    ++count_;
    sum_ += v;
}

void
Histogram::observe(u64 v)
{
    SpinGuard g(lock_);
    observeLocked(v);
}

u64
Histogram::count() const
{
    SpinGuard g(lock_);
    return count_;
}

u64
Histogram::sum() const
{
    SpinGuard g(lock_);
    return sum_;
}

std::vector<u64>
Histogram::buckets() const
{
    SpinGuard g(lock_);
    return buckets_;
}

void
Histogram::reset()
{
    SpinGuard g(lock_);
    std::fill(buckets_.begin(), buckets_.end(), u64{0});
    count_ = 0;
    sum_ = 0;
}

double
Histogram::avg() const
{
    SpinGuard g(lock_);
    return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                  : 0.0;
}

u64
Histogram::quantileBound(double q) const
{
    SpinGuard g(lock_);
    if (count_ == 0)
        return 0;
    double target = q * static_cast<double>(count_);
    if (target < 1.0)
        target = 1.0;
    if (target > static_cast<double>(count_))
        target = static_cast<double>(count_);
    u64 seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (static_cast<double>(seen + buckets_[i]) >= target) {
            // Linear interpolation within the bucket: assume the
            // bucket's observations are uniform over (lo, hi].
            const u64 lo = i == 0 ? 0 : bounds_[i - 1];
            const u64 hi =
                i < bounds_.size() ? bounds_[i] : bounds_.back();
            if (hi <= lo)
                return hi;
            const double frac = (target - static_cast<double>(seen)) /
                                static_cast<double>(buckets_[i]);
            return lo + static_cast<u64>(
                            static_cast<double>(hi - lo) * frac + 0.5);
        }
        seen += buckets_[i];
    }
    return bounds_.back();
}

std::vector<u64>
cycleBuckets()
{
    // 1..65536 in x4 steps: resolves the paper's landmark costs
    // (9-cycle queued inval, ~2,150 sync inval, 8,600 timeout spin).
    return {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536};
}

std::string
MetricEntry::key() const
{
    std::string k = name;
    if (!labels.empty()) {
        k += '{';
        for (size_t i = 0; i < labels.size(); ++i) {
            if (i)
                k += ',';
            k += labels[i].first + '=' + labels[i].second;
        }
        k += '}';
    }
    return k;
}

MetricEntry &
Registry::findOrCreate(MetricEntry::Type type, const std::string &name,
                       Labels labels)
{
    // Caller holds mu_.
    // Canonical identity: labels sorted by key.
    std::sort(labels.begin(), labels.end());
    MetricEntry probe;
    probe.name = name;
    probe.labels = labels;
    const std::string key = probe.key();
    auto it = index_.find(key);
    if (it != index_.end()) {
        MetricEntry &e = *entries_[it->second];
        RIO_ASSERT(e.type == type, "metric ", key,
                   " re-registered with a different type");
        return e;
    }
    auto entry = std::make_unique<MetricEntry>();
    entry->type = type;
    entry->name = name;
    entry->labels = std::move(labels);
    entries_.push_back(std::move(entry));
    index_[key] = entries_.size() - 1;
    return *entries_.back();
}

Counter &
Registry::counter(const std::string &name, Labels labels)
{
    std::lock_guard<std::mutex> g(mu_);
    MetricEntry &e = findOrCreate(MetricEntry::Type::kCounter, name,
                                  std::move(labels));
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
Registry::gauge(const std::string &name, Labels labels)
{
    std::lock_guard<std::mutex> g(mu_);
    MetricEntry &e =
        findOrCreate(MetricEntry::Type::kGauge, name, std::move(labels));
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
Registry::histogram(const std::string &name, Labels labels,
                    std::vector<u64> bounds)
{
    std::lock_guard<std::mutex> g(mu_);
    MetricEntry &e = findOrCreate(MetricEntry::Type::kHistogram, name,
                                  std::move(labels));
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
    return *e.histogram;
}

std::vector<SnapshotEntry>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<SnapshotEntry> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        SnapshotEntry s;
        s.key = e->key();
        switch (e->type) {
          case MetricEntry::Type::kCounter:
            s.values = {e->counter->get()};
            break;
          case MetricEntry::Type::kGauge:
            s.values = {static_cast<u64>(e->gauge->value.load(
                            std::memory_order_relaxed)),
                        static_cast<u64>(e->gauge->high.load(
                            std::memory_order_relaxed))};
            break;
          case MetricEntry::Type::kHistogram:
            s.values = e->histogram->buckets();
            s.values.push_back(e->histogram->count());
            s.values.push_back(e->histogram->sum());
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> g(mu_);
    for (auto &e : entries_) {
        if (e->counter)
            e->counter->reset();
        if (e->gauge)
            e->gauge->reset();
        if (e->histogram)
            e->histogram->reset();
    }
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> g(mu_);
    entries_.clear();
    index_.clear();
}

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace rio::obs
