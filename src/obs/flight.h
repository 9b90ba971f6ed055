/**
 * @file
 * Flight recorder: the same typed events as the timeline, kept in a
 * small always-on ring regardless of the recording gate, so that when
 * something goes wrong — a DMA fault record, a stale-mapping leak, a
 * QI timeout, a test assertion — the last moments before the failure
 * can be dumped as a self-describing artifact instead of being lost.
 *
 * Dumps are rate-limited (first kDefaultDumpLimit per process reach
 * stderr; all are counted and the most recent texts retained) so a
 * fault-storm bench does not drown in its own diagnostics.
 */
#ifndef RIO_OBS_FLIGHT_H
#define RIO_OBS_FLIGHT_H

#include <string>
#include <vector>

#include "obs/timeline.h"

namespace rio::obs {

/** One completed dump: why it fired and what the ring held. */
struct FlightDump
{
    u64 seq = 0;
    u16 pid = 0; //!< machine label of the newest ring event (origin)
    u16 tid = 0; //!< core/lane label of the newest ring event
    std::string reason;
    std::string text; //!< one line per event, oldest first
};

/** The always-on low-capacity ring + its dump machinery. */
class FlightRecorder
{
  public:
    static constexpr size_t kDefaultCapacity = 256;
    static constexpr u64 kDefaultDumpLimit = 4;

    FlightRecorder() : ring_(kDefaultCapacity) {}

    /** Called by Timeline::emit for every event, always. */
    void record(const Event &e) { ring_.push(e); }

    /**
     * Fire a dump: snapshot the ring as text, keep it (up to the dump
     * limit), and print the first few to stderr. Returns the dump
     * sequence number (1-based).
     */
    u64 dump(const std::string &reason);

    /** Render the current ring contents without firing a dump. */
    std::string renderText() const;

    u64 dumpCount() const { return dump_seq_; }
    const std::vector<FlightDump> &dumps() const { return dumps_; }
    const FlightDump *lastDump() const
    {
        return dumps_.empty() ? nullptr : &dumps_.back();
    }

    /** Dumps reaching stderr / retained in dumps() (tests raise it). */
    void setDumpLimit(u64 n) { dump_limit_ = n; }

    void setCapacity(size_t n);
    const EventRing &ring() const { return ring_; }

    void clear();

  private:
    EventRing ring_;
    u64 dump_seq_ = 0;
    u64 dump_limit_ = kDefaultDumpLimit;
    std::vector<FlightDump> dumps_;
};

/** The calling thread's flight recorder (fed by the global
 * timeline). Thread-local so lanes record without locking; in a
 * single-threaded run it behaves exactly like the old process-wide
 * singleton. Only the hot record() path is thread-confined: every
 * retained dump is also published to the process-wide archive below,
 * so a dump fired on a des::parallelFor worker survives that thread
 * and is visible to main-thread post-mortem inspection and trace
 * export. */
FlightRecorder &flightRecorder();

/**
 * Process-wide dump archive: a copy of every retained FlightDump, in
 * publication order, regardless of which thread's recorder fired it.
 * This is what Timeline::writeChromeTrace embeds and what post-run
 * inspection should read — per-recorder dumps() only sees the calling
 * thread's own dumps. Each recorder's dump limit bounds what it
 * publishes.
 */
std::vector<FlightDump> flightDumpArchive();

/** Drop everything published to the archive (tests/bench resets). */
void clearFlightDumpArchive();

/**
 * Convenience trigger used by the failure paths: fire a flight dump
 * (subject to the rate limit) and mirror it into the timeline as an
 * instant event so `--timeline` output carries the dump marker.
 * No-op (returns 0) when observability is compiled out.
 */
u64 flightDump(const std::string &reason);

/** Render one event as the flight recorder's text line (tests). */
std::string eventLine(const Event &e);

} // namespace rio::obs

#endif // RIO_OBS_FLIGHT_H
