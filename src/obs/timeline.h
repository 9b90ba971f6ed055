/**
 * @file
 * Virtual-time event timeline: typed trace events pushed into
 * per-core bounded rings as the simulation runs, exported as Chrome
 * trace_event JSON so a run opens directly in Perfetto — one track
 * per (machine, core), async arrows for QI issue→complete spans.
 *
 * Gating, from cheapest to most detailed:
 *  - recording off (the default): every event still lands in the
 *    small always-on flight-recorder ring (see flight.h), but the big
 *    per-core rings stay empty;
 *  - recording on (`--timeline out.json` on any bench, or
 *    setRecording(true)): events are kept per core and exported.
 *
 * Like the owner counters, emitting an event charges zero simulated
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
#include "obs/event.h"
#include "obs/flight.h"
#include "obs/trace_ctx.h"

namespace rio::obs {

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
        return recording_.load(std::memory_order_relaxed);
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

    /**
     * Record @p e: into the calling thread's flight ring always, and
     * into its track's ring while recording. The event is written
     * straight into its flight-ring slot; with recording off that
     * is all emit() does.
     */
    void
    emit(const Event &e)
    {
        Event &rec = flightRecorder().claim();
        rec = e;
        finish(rec);
    }

    /**
     * emit() for an event built in place: @p fill sets the fields of
     * the claimed flight-ring slot, cleared to a default Event first,
     * so the event is never assembled elsewhere and copied over.
     */
    template <typename Fill>
    void
    emitInPlace(Fill &&fill)
    {
        Event &rec = flightRecorder().claim();
        rec = Event{};
        fill(rec);
        finish(rec);
    }

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
    /** Complete the event in its flight-ring slot @p rec. */
    void
    finish(Event &rec)
    {
        // Auto-attach the thread's current trace context: any event
        // emitted while a TraceScope is live (a mail delivery, a wire
        // handler, a replay) becomes a child span of that op without
        // the emitter knowing about tracing at all.
        if (rec.trace == 0)
            rec.trace = currentTrace();
        if (recording()) [[unlikely]]
            recordTrack(rec);
    }

    /** Append @p rec to its (pid, tid) track ring (recording on). */
    void recordTrack(const Event &rec);

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
inline Timeline &
timeline()
{
    static Timeline t;
    return t;
}

} // namespace rio::obs

#endif // RIO_OBS_TIMELINE_H
