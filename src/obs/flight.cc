#include "obs/flight.h"

#include <cstdio>
#include <mutex>

#include "base/strings.h"
#include "obs/registry.h"

namespace rio::obs {

namespace {

/** Process-wide dump archive (see flight.h). Dumps are rare and
 * rate-limited, so a plain mutex-guarded vector is fine; the hot
 * record() path never touches it. */
std::mutex &
archiveMutex()
{
    static std::mutex m;
    return m;
}

std::vector<FlightDump> &
archiveList()
{
    static std::vector<FlightDump> l;
    return l;
}

} // namespace

std::vector<FlightDump>
flightDumpArchive()
{
    std::lock_guard<std::mutex> g(archiveMutex());
    return archiveList();
}

void
clearFlightDumpArchive()
{
    std::lock_guard<std::mutex> g(archiveMutex());
    archiveList().clear();
}

std::string
eventLine(const Event &e)
{
    std::string s = strprintf(
        "t=%llu machine=%u core=%u %s bdf=0x%04x rid=%u arg=%llu",
        (unsigned long long)e.t, e.pid, e.tid, evName(e.kind), e.bdf,
        e.rid, (unsigned long long)e.arg);
    if (e.dur_ns)
        s += strprintf(" dur_ns=%llu", (unsigned long long)e.dur_ns);
    if (e.id)
        s += strprintf(" span=%u", e.id);
    if (e.trace)
        s += strprintf(" trace=0x%llx", (unsigned long long)e.trace);
    return s;
}

std::string
FlightRecorder::renderText() const
{
    std::string out;
    for (const Event &e : ring_.inOrder()) {
        out += eventLine(e);
        out += '\n';
    }
    if (ring_.dropped())
        out += strprintf("(%llu older events overwritten)\n",
                         (unsigned long long)ring_.dropped());
    return out;
}

u64
FlightRecorder::dump(const std::string &reason)
{
    const u64 seq = ++dump_seq_;
    if (seq <= dump_limit_) {
        FlightDump d;
        d.seq = seq;
        d.reason = reason;
        d.text = renderText();
        // Label the dump with the (machine, lane) of the newest event
        // so cluster dumps from different machines are attributable.
        if (const Event *last = ring_.newest()) {
            d.pid = last->pid;
            d.tid = last->tid;
        }
        std::fprintf(stderr,
                     "=== flight recorder dump #%llu (%s), last %zu "
                     "events ===\n%s=== end of dump ===\n",
                     (unsigned long long)seq, reason.c_str(),
                     ring_.size(), d.text.c_str());
        {
            // Publish to the process-wide archive so a dump fired on
            // a des::parallelFor worker outlives that thread and is
            // readable from the main thread (dumps_ is thread-confined).
            std::lock_guard<std::mutex> g(archiveMutex());
            archiveList().push_back(d);
        }
        dumps_.push_back(std::move(d));
    }
    return seq;
}

void
FlightRecorder::setCapacity(size_t n)
{
    ring_ = EventRing(n);
}

void
FlightRecorder::clear()
{
    ring_.clear();
    dump_seq_ = 0;
    dumps_.clear();
}

FlightRecorder &
flightRecorder()
{
    // Thread-local: every event lands in the *emitting thread's* ring
    // with zero synchronization, keeping Timeline::emit lock-free on
    // the recording-off default path. A worker thread that trips a
    // dump renders its own last moments — which is exactly the context
    // that matters — and the dump is both printed to stderr and
    // published to the process-wide archive (flightDumpArchive()), so
    // it stays inspectable from the main thread after the worker (with
    // its thread-local recorder) is joined and gone.
    static thread_local FlightRecorder fr;
    return fr;
}

u64
flightDump(const std::string &reason)
{
    if (!kObsCompiled)
        return 0;
    registry().counter("flight.dumps").inc();
    const u64 seq = flightRecorder().dump(reason);
    // Mirror the dump into the timeline so `--timeline` output shows
    // where in virtual time the failure hit. Timestamp: the newest
    // event the ring saw (the dump has no clock of its own).
    Event marker;
    marker.kind = Ev::kFlightDump;
    marker.arg = seq;
    if (const Event *last = flightRecorder().ring().newest()) {
        marker.t = last->t;
        marker.pid = last->pid;
        marker.tid = last->tid;
    }
    timeline().emit(marker);
    return seq;
}

} // namespace rio::obs
