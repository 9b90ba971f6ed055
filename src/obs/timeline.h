/**
 * @file
 * Virtual-time event timeline: typed trace events pushed into
 * per-core bounded rings as the simulation runs, exported as Chrome
 * trace_event JSON so a run opens directly in Perfetto — one track
 * per (machine, core), async arrows for QI issue→complete spans.
 *
 * Gating, from cheapest to most detailed:
 *  - compiled out entirely with -DRIO_OBS=OFF (RIO_OBS_ENABLED=0):
 *    emit() collapses to nothing;
 *  - compiled in, recording off (the default): every event still
 *    lands in the small always-on flight-recorder ring (see
 *    flight.h), but the big per-core rings stay empty;
 *  - recording on (`--timeline out.json` on any bench, or
 *    setRecording(true)): events are kept per core and exported.
 *
 * Like the metrics registry, emitting an event charges zero simulated
 * cycles and draws zero RNG values; timelines are a pure projection
 * of the deterministic replay.
 */
#ifndef RIO_OBS_TIMELINE_H
#define RIO_OBS_TIMELINE_H

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/types.h"

#ifndef RIO_OBS_ENABLED
#define RIO_OBS_ENABLED 1
#endif

namespace rio::obs {

/** Compile-time master switch (the RIO_OBS CMake option). */
inline constexpr bool kObsCompiled = RIO_OBS_ENABLED != 0;

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
    kLockRelease,  //!< lock released (instant)
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

    void
    push(const Event &e)
    {
        if (buf_.size() < capacity_) {
            buf_.push_back(e);
        } else {
            buf_[next_] = e;
            next_ = (next_ + 1) % capacity_;
            ++dropped_;
        }
        ++pushed_;
    }

    /** Events oldest-first. */
    std::vector<Event> inOrder() const;

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

/**
 * The process-wide timeline: one bounded ring per (machine, core)
 * track, populated only while recording. Track ids are handed out by
 * allocPid() so independent Machines in one bench do not collide.
 */
class Timeline
{
  public:
    bool
    recording() const
    {
        return kObsCompiled &&
               recording_.load(std::memory_order_relaxed);
    }
    void
    setRecording(bool on)
    {
        recording_.store(on, std::memory_order_relaxed);
    }

    /** Ring capacity per (pid, tid) track (newest events win).
     * Main-thread-only: set before lanes start. */
    void setCapacity(size_t per_track);
    size_t capacity() const { return capacity_; }

    /** Next unused track-group id (one per Machine). Atomic, because
     * row-parallel benches build their clusters on des::parallelFor
     * threads. Pids are fixed by construction order only where
     * Machines are built on one thread: sweeps build theirs on the
     * calling thread, and a row-parallel bench does so at
     * --threads 1. Simulation never reads a pid. */
    u16
    allocPid()
    {
        return next_pid_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Unique id for pairing async issue/complete events — fallback
     * for emitters with no core context only. Instrumentation running
     * on a simulated core must use des::Core::nextSpanId() instead:
     * this shared counter hands out ids in thread-schedule order, so
     * ids drawn here are only reproducible single-threaded. */
    u32
    nextSpanId()
    {
        return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Record @p e (flight ring always; per-core ring if recording).
     * Defined in flight.cc to avoid a header cycle. */
    void emit(const Event &e);

    /** All recorded events, grouped per track, oldest-first. */
    std::map<u32, std::vector<Event>> tracks() const;

    /** Total events recorded into (and dropped from) track rings. */
    u64 recorded() const;
    u64 dropped() const;

    /** Drop all recorded events and reset track/span ids. */
    void clear();

    /**
     * Export everything recorded (plus any flight-recorder dumps) as
     * Chrome trace_event JSON for Perfetto. False on I/O error.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<bool> recording_{false};
    size_t capacity_ = 1u << 16;
    std::atomic<u16> next_pid_{1};
    std::atomic<u32> next_span_{0};
    /** Guards rings_ — only taken while recording (the default-off
     * path touches no shared state beyond the thread-local flight
     * ring). */
    mutable std::mutex mu_;
    std::map<u32, EventRing> rings_; //!< key = pid<<16 | tid
};

/** The global timeline every instrumentation point uses. */
Timeline &timeline();

} // namespace rio::obs

#endif // RIO_OBS_TIMELINE_H
