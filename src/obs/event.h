/**
 * @file
 * The typed event every instrumentation point records, and the
 * bounded ring that holds events: the vocabulary shared by the
 * always-on flight recorder (flight.h) and the exportable timeline
 * (timeline.h).
 */
#ifndef RIO_OBS_EVENT_H
#define RIO_OBS_EVENT_H

#include <vector>

#include "base/types.h"

namespace rio::obs {

/** What happened. Keep in sync with evName()/evPhase(). */
enum class Ev : u8 {
    kMap = 0,      //!< DMA map completed (span; dur = driver cycles)
    kUnmap,        //!< DMA unmap completed (span)
    kQiIssue,      //!< invalidation submitted (async span begin)
    kQiComplete,   //!< invalidation wait landed (async span end)
    kQiTimeout,    //!< invalidation wait never landed (instant)
    kFault,        //!< device access faulted (instant)
    kQuiescePhase, //!< lifecycle phase journaled (instant; arg=phase)
    kLockAcquire,  //!< contended lock granted (span; dur = spin wait)
    kLockRelease,  //!< contended lock released (instant)
    kFlightDump,   //!< flight recorder fired (instant; arg=dump #)
    kVmExit,       //!< guest trapped to the hypervisor (span; arg=reason)
    kQpError,      //!< RDMA QP entered error state (instant; arg=qp)
    kOpPost,       //!< traced op injected (async-nestable begin; arg=bytes)
    kOpCqe,        //!< terminal CQE closed the op (async end; arg=latency)
    kWireTx,       //!< wire transit (async span; dur = transit+serialize)
    kIngressQ,     //!< ingress port queueing (async span; dur = wait)
    kRetransmit,   //!< go-back-N replay episode (instant; arg=psn)
    kTargetWalk,   //!< remote access walked the target IOMMU (instant)
    kMigPhase,     //!< live-migration phase edge (instant; arg=phase)
    kNumEvents
};

/** Short stable name ("map", "qi_issue", ...). */
const char *evName(Ev ev);

/** One timeline event (compact POD; rings hold millions). */
struct Event
{
    Nanos t = 0;   //!< virtual end time of the event
    u64 arg = 0;   //!< pfn / phase / wait cycles / reason-specific
    u64 dur_ns = 0; //!< span length; 0 for instants
    u64 trace = 0; //!< owning distributed trace id; 0 = none (emit()
                   //!< fills it from the thread's current TraceScope)
    u64 arg2 = 0;  //!< second event-specific payload (psn, status, ...)
    u32 id = 0;    //!< async span id pairing kQiIssue/kQiComplete
    u16 pid = 0;   //!< track group: machine ordinal
    u16 tid = 0;   //!< track: core ordinal within the machine
    u16 bdf = 0;   //!< packed requester id, 0 if n/a
    u16 rid = 0;   //!< ring id, 0 if n/a
    Ev kind = Ev::kMap;
};

/** Bounded ring: keeps the newest @p capacity events, counts drops. */
class EventRing
{
  public:
    explicit EventRing(size_t capacity) : capacity_(capacity) {}

    /** The slot for the next event, for the caller to fill in place:
     * a new one while the ring fills, then the oldest event's. */
    Event &
    claim()
    {
        ++pushed_;
        if (buf_.size() < capacity_)
            return buf_.emplace_back();
        Event &slot = buf_[next_];
        if (++next_ == capacity_)
            next_ = 0;
        ++dropped_;
        return slot;
    }

    void push(const Event &e) { claim() = e; }

    /** Events oldest-first. */
    std::vector<Event> inOrder() const;

    /** Apply @p fn to every held event, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Event &e : buf_)
            fn(e);
    }

    /** The most recently pushed event, or null when empty. */
    const Event *
    newest() const
    {
        if (buf_.empty())
            return nullptr;
        return &buf_[(next_ + buf_.size() - 1) % buf_.size()];
    }

    u64 pushed() const { return pushed_; }
    u64 dropped() const { return dropped_; }
    size_t size() const { return buf_.size(); }
    void clear() { buf_.clear(); next_ = 0; pushed_ = dropped_ = 0; }

  private:
    size_t capacity_;
    size_t next_ = 0; //!< overwrite cursor once full
    u64 pushed_ = 0;
    u64 dropped_ = 0;
    std::vector<Event> buf_;
};

} // namespace rio::obs

#endif // RIO_OBS_EVENT_H
