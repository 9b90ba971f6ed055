#include "obs/flight.h"

#include <utility>

#include "base/strings.h"
#include "obs/timeline.h"

namespace rio::obs {

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
dumpText(const FlightDump &d)
{
    std::string out;
    for (const Event &e : d.events) {
        out += eventLine(e);
        out += '\n';
    }
    if (d.overwritten)
        out += strprintf("(%llu older events overwritten)\n",
                         (unsigned long long)d.overwritten);
    return out;
}

Recorder::Recorder()
    : flight_(kFlightCapacity),
      track_capacity_(timeline().recording() ? timeline().capacity() : 0)
{
}

void
Recorder::recordTrack(const Event &rec)
{
    if (rec.tid >= rec_.tracks.size())
        rec_.tracks.resize(rec.tid + 1, EventRing(track_capacity_));
    rec_.tracks[rec.tid].push(rec);
}

u64
Recorder::dump(const std::string &reason)
{
    const u64 seq = ++dump_seq_;
    const Event *last = flight_.newest();
    if (seq <= kDumpLimit) {
        FlightDump d;
        d.seq = seq;
        d.reason = reason;
        d.events = flight_.inOrder();
        d.overwritten = flight_.dropped();
        if (last) {
            d.pid = last->pid;
            d.tid = last->tid;
        }
        rec_.dumps.push_back(std::move(d));
    }
    // The marker has no clock of its own: the newest event's will do.
    Event marker;
    marker.kind = Ev::kFlightDump;
    marker.arg = seq;
    if (last) {
        marker.t = last->t;
        marker.pid = last->pid;
        marker.tid = last->tid;
    }
    emit(marker);
    return seq;
}

Recording
Recorder::take()
{
    return std::exchange(rec_, Recording{});
}

} // namespace rio::obs
