#include "obs/timeline.h"

#include <cstdio>

#include "base/logging.h"
#include "base/strings.h"
#include "obs/flight.h"

namespace rio::obs {

const char *
evName(Ev ev)
{
    switch (ev) {
      case Ev::kMap: return "map";
      case Ev::kUnmap: return "unmap";
      case Ev::kQiIssue: return "qi_issue";
      case Ev::kQiComplete: return "qi_complete";
      case Ev::kQiTimeout: return "qi_timeout";
      case Ev::kFault: return "fault";
      case Ev::kQuiescePhase: return "quiesce_phase";
      case Ev::kLockAcquire: return "lock_acquire";
      case Ev::kLockRelease: return "lock_release";
      case Ev::kFlightDump: return "flight_dump";
      case Ev::kVmExit: return "vmexit";
      case Ev::kQpError: return "qp_error";
      case Ev::kOpPost: return "op_post";
      case Ev::kOpCqe: return "op_cqe";
      case Ev::kWireTx: return "wire";
      case Ev::kIngressQ: return "ingress";
      case Ev::kRetransmit: return "retransmit";
      case Ev::kTargetWalk: return "target_walk";
      case Ev::kMigPhase: return "mig_phase";
      case Ev::kNumEvents: break;
    }
    RIO_PANIC("bad Ev");
}

std::vector<Event>
EventRing::inOrder() const
{
    std::vector<Event> out;
    out.reserve(buf_.size());
    for (size_t i = 0; i < buf_.size(); ++i)
        out.push_back(buf_[(next_ + i) % buf_.size()]);
    return out;
}

void
Timeline::setCapacity(size_t per_track)
{
    RIO_ASSERT(per_track > 0, "timeline capacity must be positive");
    capacity_ = per_track;
}

void
Timeline::add(std::vector<Recording> row)
{
    const u16 base = static_cast<u16>(added_ + 1);
    for (size_t m = 0; m < row.size(); ++m) {
        Recording &rec = row[m];
        const u16 pid = static_cast<u16>(base + m);
        // A trace id's origin field moves from row index to track id.
        const auto relabel = [&](Event &e) {
            e.pid = pid;
            if (e.trace)
                e.trace += u64{base} << 48;
        };
        for (EventRing &ring : rec.tracks)
            ring.forEach(relabel);
        for (FlightDump &d : rec.dumps) {
            if (dumps_.size() == Recorder::kDumpLimit)
                break;
            d.pid = pid;
            for (Event &e : d.events)
                relabel(e);
            std::fprintf(stderr,
                         "=== flight recorder dump #%llu (%s), last %zu "
                         "events ===\n%s=== end of dump ===\n",
                         (unsigned long long)d.seq, d.reason.c_str(),
                         d.events.size(), dumpText(d).c_str());
            dumps_.push_back(std::move(d));
        }
        if (!rec.tracks.empty())
            machines_.emplace_back(pid, std::move(rec.tracks));
    }
    added_ += row.size();
}

std::map<u32, std::vector<Event>>
Timeline::tracks() const
{
    std::map<u32, std::vector<Event>> out;
    for (const auto &[pid, rings] : machines_) {
        for (size_t tid = 0; tid < rings.size(); ++tid) {
            if (rings[tid].pushed())
                out.emplace(static_cast<u32>(pid) << 16 | tid,
                            rings[tid].inOrder());
        }
    }
    return out;
}

u64
Timeline::recorded() const
{
    u64 n = 0;
    for (const auto &[pid, rings] : machines_)
        for (const EventRing &ring : rings)
            n += ring.pushed();
    return n;
}

u64
Timeline::dropped() const
{
    u64 n = 0;
    for (const auto &[pid, rings] : machines_)
        for (const EventRing &ring : rings)
            n += ring.dropped();
    return n;
}

void
Timeline::clear()
{
    added_ = 0;
    machines_.clear();
    dumps_.clear();
}

namespace {

/** One trace_event object. @p first tracks comma placement. */
void
emitJson(std::FILE *f, bool *first, const std::string &obj)
{
    std::fprintf(f, "%s\n  %s", *first ? "" : ",", obj.c_str());
    *first = false;
}

std::string
argsJson(const Event &e)
{
    std::string out =
        strprintf("{\"bdf\": %u, \"rid\": %u, \"arg\": %llu", e.bdf,
                  e.rid, (unsigned long long)e.arg);
    if (e.arg2)
        out += strprintf(", \"arg2\": %llu", (unsigned long long)e.arg2);
    if (e.trace)
        out += strprintf(", \"trace\": \"0x%llx\"",
                         (unsigned long long)e.trace);
    out += "}";
    return out;
}

/** Async-nestable id shared by every span of one distributed trace:
 * same (cat "op", global id) groups post → wire → walk → CQE across
 * machine tracks into a single stitched tree in Perfetto. */
std::string
traceId2(const Event &e)
{
    return strprintf("{\"global\": \"0x%llx\"}",
                     (unsigned long long)e.trace);
}

} // namespace

bool
Timeline::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    const std::map<u32, std::vector<Event>> all = tracks();
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    bool first = true;
    // Track naming so Perfetto shows "machine N" / "core N" labels.
    for (const auto &[key, events] : all) {
        const u16 pid = static_cast<u16>(key >> 16);
        const u16 tid = static_cast<u16>(key & 0xffff);
        emitJson(f, &first,
                 strprintf("{\"name\": \"process_name\", \"ph\": \"M\", "
                           "\"pid\": %u, \"args\": {\"name\": "
                           "\"machine %u\"}}",
                           pid, pid));
        emitJson(f, &first,
                 strprintf("{\"name\": \"thread_name\", \"ph\": \"M\", "
                           "\"pid\": %u, \"tid\": %u, \"args\": "
                           "{\"name\": \"core %u\"}}",
                           pid, tid, tid));
        (void)events;
    }
    for (const auto &[key, events] : all) {
        (void)key;
        for (const Event &e : events) {
            const double end_us = static_cast<double>(e.t) / 1000.0;
            const double dur_us =
                static_cast<double>(e.dur_ns) / 1000.0;
            std::string obj;
            switch (e.kind) {
              case Ev::kMap:
              case Ev::kUnmap:
              case Ev::kLockAcquire:
              case Ev::kVmExit:
                // Complete spans: ts is the span start.
                obj = strprintf(
                    "{\"name\": \"%s\", \"cat\": \"dma\", \"ph\": "
                    "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": %s}",
                    evName(e.kind), end_us - dur_us, dur_us, e.pid,
                    e.tid, argsJson(e).c_str());
                break;
              case Ev::kQiIssue:
              case Ev::kQiComplete:
                // Async span: Perfetto draws the issue→complete arrow
                // from the matching (cat, id, name) pair.
                obj = strprintf(
                    "{\"name\": \"qi\", \"cat\": \"qi\", \"ph\": "
                    "\"%s\", \"id\": %u, \"ts\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": %s}",
                    e.kind == Ev::kQiIssue ? "b" : "e", e.id, end_us,
                    e.pid, e.tid, argsJson(e).c_str());
                break;
              case Ev::kOpPost:
              case Ev::kOpCqe:
                // Async-nestable op envelope: "b" at injection, "e" at
                // the terminal CQE, paired by the global trace id so
                // the envelope stitches across machine tracks.
                obj = strprintf(
                    "{\"name\": \"op\", \"cat\": \"op\", \"ph\": "
                    "\"%s\", \"id2\": %s, \"ts\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": %s}",
                    e.kind == Ev::kOpPost ? "b" : "e",
                    traceId2(e).c_str(), end_us, e.pid, e.tid,
                    argsJson(e).c_str());
                break;
              case Ev::kWireTx:
              case Ev::kIngressQ:
                // Child spans of the op envelope: emitted as a
                // begin/end pair under the same global id so they nest
                // inside the op by timestamp.
                obj = strprintf(
                    "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": "
                    "\"b\", \"id2\": %s, \"ts\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": %s},\n  "
                    "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": "
                    "\"e\", \"id2\": %s, \"ts\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": {}}",
                    evName(e.kind), traceId2(e).c_str(),
                    end_us - dur_us, e.pid, e.tid, argsJson(e).c_str(),
                    evName(e.kind), traceId2(e).c_str(), end_us, e.pid,
                    e.tid);
                break;
              case Ev::kRetransmit:
              case Ev::kTargetWalk:
                // Instants inside the op envelope (ph "n" attaches
                // them to the nestable async track of the trace id).
                obj = strprintf(
                    "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": "
                    "\"n\", \"id2\": %s, \"ts\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": %s}",
                    evName(e.kind), traceId2(e).c_str(), end_us, e.pid,
                    e.tid, argsJson(e).c_str());
                break;
              default:
                obj = strprintf(
                    "{\"name\": \"%s\", \"cat\": \"event\", \"ph\": "
                    "\"i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": %u, "
                    "\"tid\": %u, \"args\": %s}",
                    evName(e.kind), end_us, e.pid, e.tid,
                    argsJson(e).c_str());
                break;
            }
            emitJson(f, &first, obj);
        }
    }
    // The printed flight-recorder dumps ride along as named instants
    // so a `--timeline` artifact is self-contained evidence of
    // failures.
    for (const FlightDump &d : dumps_) {
        // Dumps carry the (machine, core) labels of their newest
        // event, so multi-machine cluster dumps are attributable.
        emitJson(
            f, &first,
            strprintf("{\"name\": \"flight_dump\", \"cat\": \"flight\", "
                      "\"ph\": \"i\", \"s\": \"g\", \"ts\": 0, \"pid\": "
                      "%u, \"tid\": %u, \"args\": {\"seq\": %llu, "
                      "\"reason\": \"%s\", \"machine\": %u, "
                      "\"lane\": %u}}",
                      d.pid, d.tid, (unsigned long long)d.seq,
                      d.reason.c_str(), d.pid, d.tid));
    }
    std::fprintf(f,
                 "\n], \"rioMeta\": {\"recorded\": %llu, "
                 "\"dropped\": %llu}}\n",
                 (unsigned long long)recorded(),
                 (unsigned long long)dropped());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace rio::obs
