/**
 * @file
 * A machine's event recorder. Every sys::Machine owns one: the small
 * always-on flight ring, kept whatever the recording gate says, so
 * that when something goes wrong — a DMA fault, a stale-mapping leak,
 * a QI timeout, a QP error — the last moments before the failure can
 * be dumped instead of lost; the machine's dumps; and, while the
 * timeline records, one bounded track ring per core. Emitters reach
 * it through the des::Core they hold, so each event belongs to one
 * machine and is written by that machine's lane alone: no locks, and
 * nothing depends on which thread ran it. When the run ends, the
 * tracks and dumps go to the process timeline (timeline.h).
 */
#ifndef RIO_OBS_FLIGHT_H
#define RIO_OBS_FLIGHT_H

#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/trace_ctx.h"

namespace rio::obs {

/** One fired dump: why, and what the flight ring held. */
struct FlightDump
{
    u64 seq = 0; //!< the machine's dump number (1-based)
    u16 pid = 0; //!< machine label of the newest ring event (origin)
    u16 tid = 0; //!< core label of the newest ring event
    std::string reason;
    std::vector<Event> events; //!< the ring, oldest first
    u64 overwritten = 0;       //!< older events the ring had dropped
};

/** Render @p d: one line per event, oldest first. */
std::string dumpText(const FlightDump &d);

/** What a recorder hands to the timeline at the end of a run. */
struct Recording
{
    std::vector<EventRing> tracks; //!< index = core (tid)
    std::vector<FlightDump> dumps; //!< the first kDumpLimit fired
};

/** One machine's flight ring, dumps and timeline tracks. */
class alignas(kCachelineSize) Recorder
{
  public:
    static constexpr size_t kFlightCapacity = 256;
    static constexpr u64 kDumpLimit = 4;

    /** Tracks are kept iff the timeline records when this is built. */
    Recorder();

    /** Machine label within its row (a Cluster numbers its machines);
     * the timeline replaces it by the machine's position. */
    u16 pid() const { return pid_; }
    void setPid(u16 pid) { pid_ = pid; }

    /** Record @p e in the flight ring and, while recording, its track. */
    void
    emit(const Event &e)
    {
        emitInPlace([&](Event &rec) { rec = e; });
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
        Event &rec = flight_.claim();
        rec = Event{};
        fill(rec);
        // An event emitted inside a TraceScope (a mail delivery, a
        // wire handler, a replay) becomes a child span of that op.
        if (rec.trace == 0)
            rec.trace = currentTrace();
        if (track_capacity_) [[unlikely]]
            recordTrack(rec);
    }

    /**
     * Fire a dump: snapshot the flight ring (the first kDumpLimit
     * dumps only; all are counted) and record a kFlightDump marker at
     * the newest event's time and track. Returns the dump's number.
     */
    u64 dump(const std::string &reason);

    u64 dumpCount() const { return dump_seq_; }
    const std::vector<FlightDump> &dumps() const { return rec_.dumps; }
    const EventRing &ring() const { return flight_; }
    const std::vector<EventRing> &tracks() const { return rec_.tracks; }

    /** Hand the tracks and kept dumps over, leaving them empty. */
    Recording take();

  private:
    void recordTrack(const Event &rec);

    EventRing flight_;
    size_t track_capacity_; //!< 0 = not recording tracks
    u16 pid_ = 0;
    u64 dump_seq_ = 0;
    Recording rec_;
};

/** Render one event as the flight recorder's text line. */
std::string eventLine(const Event &e);

} // namespace rio::obs

#endif // RIO_OBS_FLIGHT_H
