#include "prefetch/replay.h"

#include <list>
#include <unordered_map>
#include <unordered_set>

namespace rio::prefetch {

namespace {

/** Tiny LRU TLB with a prefetched-bit per entry. */
class ReplayTlb
{
  public:
    explicit ReplayTlb(unsigned capacity) : capacity_(capacity) {}

    /** Returns 0 == miss, 1 == demand hit, 2 == prefetched hit. */
    int
    lookup(u64 pfn)
    {
        auto it = index_.find(pfn);
        if (it == index_.end())
            return 0;
        const bool prefetched = it->second->prefetched;
        it->second->prefetched = false; // now a demand-resident line
        lru_.splice(lru_.begin(), lru_, it->second);
        return prefetched ? 2 : 1;
    }

    void
    insert(u64 pfn, bool prefetched)
    {
        auto it = index_.find(pfn);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (lru_.size() >= capacity_) {
            index_.erase(lru_.back().pfn);
            lru_.pop_back();
        }
        lru_.push_front(Line{pfn, prefetched});
        index_[pfn] = lru_.begin();
    }

    void
    invalidate(u64 pfn)
    {
        auto it = index_.find(pfn);
        if (it == index_.end())
            return;
        lru_.erase(it->second);
        index_.erase(it);
    }

  private:
    struct Line
    {
        u64 pfn;
        bool prefetched;
    };

    unsigned capacity_;
    std::list<Line> lru_;
    std::unordered_map<u64, std::list<Line>::iterator> index_;
};

} // namespace

ReplayResult
replayTrace(const dma::DmaTrace &trace, TlbPrefetcher &prefetcher,
            const ReplayConfig &config)
{
    ReplayResult result;
    ReplayTlb tlb(config.tlb_entries);
    std::unordered_map<u64, u32> live; // pfn -> map count

    std::vector<u64> predictions;
    for (const dma::TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case dma::TraceEvent::Kind::kMap:
            ++live[e.iova_pfn];
            prefetcher.onMap(e.iova_pfn);
            break;
          case dma::TraceEvent::Kind::kUnmap: {
            auto it = live.find(e.iova_pfn);
            if (it != live.end() && --it->second == 0)
                live.erase(it);
            tlb.invalidate(e.iova_pfn);
            if (!config.store_invalidated)
                prefetcher.invalidate(e.iova_pfn);
            break;
          }
          case dma::TraceEvent::Kind::kAccess: {
            ++result.accesses;
            const int hit = tlb.lookup(e.iova_pfn);
            if (hit) {
                ++result.hits;
                if (hit == 2)
                    ++result.prefetch_hits;
            } else {
                ++result.misses;
                tlb.insert(e.iova_pfn, /*prefetched=*/false);
            }
            predictions.clear();
            prefetcher.access(e.iova_pfn, &predictions);
            for (u64 pred : predictions) {
                ++result.predictions;
                if (config.validate_against_live &&
                    live.find(pred) == live.end()) {
                    ++result.rejected_predictions;
                    continue;
                }
                tlb.insert(pred, /*prefetched=*/true);
            }
            break;
          }
          case dma::TraceEvent::Kind::kFault:
            // Faulted accesses install no translation; nothing to
            // replay into the TLB model.
            break;
        }
    }
    return result;
}

} // namespace rio::prefetch
