/**
 * @file
 * Virtual-time event timeline: the machines' recorded tracks (see
 * flight.h), collected when their runs end and exported as Chrome
 * trace_event JSON so a run opens directly in Perfetto — one track
 * per (machine, core), async arrows for QI issue→complete spans.
 *
 * Gating, from cheapest to most detailed:
 *  - recording off (the default): every event still lands in its
 *    machine's small always-on flight ring, but no tracks are kept;
 *  - recording on (`--timeline out.json` on any bench, or
 *    setRecording(true) before the machines are built): each machine
 *    keeps a bounded ring per core, exported here.
 *
 * Like the owner counters, emitting an event charges zero simulated
 * cycles and draws zero RNG values; timelines are a pure projection
 * of the deterministic replay.
 */
#ifndef RIO_OBS_TIMELINE_H
#define RIO_OBS_TIMELINE_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"
#include "obs/event.h"
#include "obs/flight.h"

namespace rio::obs {

/**
 * The process-wide export side of the machines' recorders. Used from
 * the calling thread only: rows that run on des::parallelFor workers
 * take their machines' recordings and the caller adds them in row
 * order once the workers are joined.
 */
class Timeline
{
  public:
    bool recording() const { return recording_; }
    /** Machines built from now on keep tracks (or stop keeping them). */
    void setRecording(bool on) { recording_ = on; }

    /** Ring capacity per (machine, core) track (newest events win). */
    void setCapacity(size_t per_track);
    size_t capacity() const { return capacity_; }

    /**
     * Add one row's recordings, in machine order. A machine's track id
     * is its position: 1 + the machines added before it. Its events,
     * the trace ids they carry and its dumps are relabelled to that id
     * (a recorder labels events with its machine's index in the row).
     * The process's first Recorder::kDumpLimit dumps reach stderr.
     */
    void add(std::vector<Recording> row);

    /** All recorded events, keyed pid << 16 | tid, oldest-first. */
    std::map<u32, std::vector<Event>> tracks() const;

    /** The dumps printed so far, in position order. */
    const std::vector<FlightDump> &dumps() const { return dumps_; }

    /** Total events recorded into (and dropped from) track rings. */
    u64 recorded() const;
    u64 dropped() const;

    /** Drop every added recording and dump. */
    void clear();

    /**
     * Export everything added (tracks, then the printed dumps) as
     * Chrome trace_event JSON for Perfetto. False on I/O error.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool recording_ = false;
    size_t capacity_ = 1u << 16;
    size_t added_ = 0; //!< machines added: the positions taken
    /** (pid, tracks by tid) of each added machine that kept tracks. */
    std::vector<std::pair<u16, std::vector<EventRing>>> machines_;
    std::vector<FlightDump> dumps_;
};

/** The process timeline every bench exports. */
inline Timeline &
timeline()
{
    static Timeline t;
    return t;
}

} // namespace rio::obs

#endif // RIO_OBS_TIMELINE_H
