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
Histogram::observe(u64 v)
{
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    ++buckets_[i];
    ++count_;
    sum_ += v;
}

void
Histogram::merge(const Histogram &o)
{
    RIO_ASSERT(bounds_ == o.bounds_,
               "merging histograms with different bounds");
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), u64{0});
    count_ = 0;
    sum_ = 0;
}

double
Histogram::avg() const
{
    return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                  : 0.0;
}

u64
Histogram::quantileBound(double q) const
{
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

void
Registry::merge(const std::vector<Total> &totals)
{
    std::lock_guard<std::mutex> g(mu_);
    for (const Total &t : totals) {
        const auto type = t.histogram ? MetricEntry::Type::kHistogram
                                      : MetricEntry::Type::kCounter;
        MetricEntry probe;
        probe.type = type;
        probe.name = t.name;
        probe.labels = t.labels;
        // Canonical identity: labels sorted by key.
        std::sort(probe.labels.begin(), probe.labels.end());
        const std::string key = probe.key();
        auto [it, fresh] = index_.emplace(key, entries_.size());
        if (fresh) {
            if (t.histogram)
                probe.histogram =
                    std::make_unique<Histogram>(t.histogram->bounds());
            else
                probe.counter = std::make_unique<Counter>();
            entries_.push_back(
                std::make_unique<MetricEntry>(std::move(probe)));
        }
        MetricEntry &e = *entries_[it->second];
        RIO_ASSERT(e.type == type, "metric ", key,
                   " merged with a different type");
        if (t.histogram)
            e.histogram->merge(*t.histogram);
        else
            e.counter->inc(t.count);
    }
}

std::vector<SnapshotEntry>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<SnapshotEntry> out;
    out.reserve(entries_.size());
    for (const auto &[key, idx] : index_) {
        const MetricEntry &e = *entries_[idx];
        SnapshotEntry s;
        s.key = key;
        if (e.histogram) {
            s.values = e.histogram->buckets();
            s.values.push_back(e.histogram->count());
            s.values.push_back(e.histogram->sum());
        } else {
            s.values = {e.counter->get()};
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
