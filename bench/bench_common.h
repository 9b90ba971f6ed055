/**
 * @file
 * Shared helpers for the reproduction bench binaries: mode sweeps,
 * formatting, and the paper's reference numbers for side-by-side
 * printing.
 */
#ifndef RIO_BENCH_BENCH_COMMON_H
#define RIO_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "base/strings.h"
#include "base/table.h"
#include "dma/protection_mode.h"
#include "nic/profile.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "workloads/netperf_rr.h"
#include "workloads/request_load.h"
#include "workloads/result.h"
#include "workloads/stream.h"

namespace rio::bench {

/** Scale factor for run lengths: RIO_BENCH_QUICK=1 shrinks runs for
 * smoke testing; default is full length. */
inline double
runScale()
{
    const char *quick = std::getenv("RIO_BENCH_QUICK");
    return (quick && quick[0] == '1') ? 0.15 : 1.0;
}

inline u64
scaled(u64 n)
{
    const u64 s = static_cast<u64>(static_cast<double>(n) * runScale());
    return s < 100 ? 100 : s;
}

/** The seven evaluated modes in the paper's display order. */
inline const std::vector<dma::ProtectionMode> &
evaluatedModes()
{
    static const std::vector<dma::ProtectionMode> modes(
        dma::kEvaluatedModes.begin(), dma::kEvaluatedModes.end());
    return modes;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Host wall-clock anchor for JsonWriter's host_ms field; first call
 * wins, and parseBenchArgs() makes that call at bench startup. */
inline std::chrono::steady_clock::time_point
benchStartTime()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

/** Arguments every bench binary understands. */
struct BenchArgs
{
    const char *json_path = nullptr;     //!< --json <path>
    const char *timeline_path = nullptr; //!< --timeline <path>
    /**
     * --threads N: most threads for independent work, through
     * des::parallelFor — the lanes of an uncoupled sweep
     * (workloads/sweep.h), or whole-cluster rows in the cluster,
     * wire-storm, tail-latency and migration benches (a cluster
     * itself always runs on one thread). Simulation results are
     * byte-identical for any value — only host wall-clock changes
     * (the golden_*_threads ctests enforce this) — so benches that
     * still run sequentially simply record the flag in their JSON and
     * ignore it.
     */
    unsigned threads = 1;
    /** --slo: turn on exact per-op tail recording (obs::SloReport). */
    bool slo = false;
    /** --timeline-cap N: per-track event-ring capacity override. */
    size_t timeline_cap = 0;
};

/** Report a malformed command line: the problem and a usage line on
 * stderr, then exit 2. */
[[noreturn]] inline void
usageError(const char *argv0, const std::string &problem)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--threads N] [--json path] "
                 "[--timeline path] [--timeline-cap N] [--slo] "
                 "[bench flags]\n",
                 argv0, problem.c_str(), argv0);
    std::exit(2);
}

/** Strict unsigned decimal: the whole of @p s is digits and the
 * value fits @p out. */
template <typename T>
inline bool
parseUnsigned(std::string_view s, T &out)
{
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/** Strict positive decimal: parseUnsigned, and nonzero. */
template <typename T>
inline bool
parsePositive(std::string_view s, T &out)
{
    T v{};
    if (!parseUnsigned(s, v) || v == 0)
        return false;
    out = v;
    return true;
}

/** Strict non-negative decimal number ("0", "0.02", ".5", "2"): the
 * whole of @p s, with no sign, exponent, inf or nan. */
inline bool
parseDecimal(std::string_view s, double &out)
{
    if (s.empty() || s.front() == '-')
        return false;
    double v = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] =
        std::from_chars(s.data(), end, v, std::chars_format::fixed);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** A comma-separated list of @p parse_one entries; no empty entries.
 * @p out is untouched on failure. */
template <typename T, typename ParseOne>
inline bool
parseList(std::string_view s, std::vector<T> &out, ParseOne parse_one)
{
    std::vector<T> list;
    for (;;) {
        const size_t comma = s.find(',');
        T v{};
        if (!parse_one(s.substr(0, comma), v))
            return false;
        list.push_back(v);
        if (comma == std::string_view::npos)
            break;
        s.remove_prefix(comma + 1);
    }
    out = std::move(list);
    return true;
}

/** A comma-separated list of positive integers ("1,2,4"). */
inline bool
parseCountList(std::string_view s, std::vector<unsigned> &out)
{
    return parseList(s, out, parsePositive<unsigned>);
}

/** The value after the bench flag at argv[@p i] (advancing @p i), or
 * "" when the flag ends the command line — which every parser
 * rejects. */
inline std::string_view
flagValue(int argc, char **argv, int &i)
{
    return i + 1 < argc ? argv[++i] : "";
}

/** A bench flag's integer value, at least @p min; anything else is a
 * usage error, never a clamp. */
template <typename T>
inline T
parseAtLeast(char **argv, std::string_view flag, std::string_view value,
             T min)
{
    T v{};
    if (!parsePositive(value, v) || v < min)
        usageError(argv[0], std::string(flag) + " takes an integer >= " +
                                std::to_string(min));
    return v;
}

/** A --loss drop rate: a decimal in [0, 1); anything else is a usage
 * error (0 selects the benches' lossless compat rows). */
inline double
parseLossRate(char **argv, std::string_view value)
{
    double v = 0;
    if (!parseDecimal(value, v) || v >= 1.0)
        usageError(argv[0], "--loss takes a drop rate in [0, 1)");
    return v;
}

/** A bench-specific flag: parseBenchArgs() lets it (and, when
 * @c valued, the argument after it) through for the bench's own loop
 * to read via flagValue() and check. */
struct BenchFlag
{
    std::string_view name;
    bool valued = false;
};

/**
 * Parse the uniform bench arguments. Bench-specific flags (--cores,
 * --loss, --quick, ...) are named in @p bench_flags and parsed by the
 * bench itself; any other argument is a usage error (exit 2), so a
 * mistyped flag never runs a default experiment. A missing,
 * non-numeric or zero --threads / --timeline-cap value is a usage
 * error too, never a silent default. Passing --timeline turns the
 * event timeline's recording gate on for the whole run; pair with
 * finishBench() to write the trace at exit. --slo flips the
 * obs::sloRecording() gate for the whole run.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv,
               std::initializer_list<BenchFlag> bench_flags = {})
{
    benchStartTime(); // anchor host_ms at startup
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--threads" || arg == "--timeline-cap") {
            const char *value = i + 1 < argc ? argv[++i] : "";
            const bool ok = arg == "--threads"
                                ? parsePositive(value, args.threads)
                                : parsePositive(value, args.timeline_cap);
            if (!ok)
                usageError(argv[0],
                           std::string(arg) + " takes a positive integer");
        } else if (arg == "--json" || arg == "--timeline") {
            // A missing path, or a following flag, is not a path.
            const char *value = i + 1 < argc ? argv[++i] : "";
            if (value[0] == '\0' || value[0] == '-')
                usageError(argv[0], std::string(arg) + " takes a path");
            (arg == "--json" ? args.json_path : args.timeline_path) = value;
        } else if (arg == "--slo") {
            args.slo = true;
        } else {
            const auto flag = std::find_if(
                bench_flags.begin(), bench_flags.end(),
                [&](const BenchFlag &f) { return f.name == arg; });
            if (flag == bench_flags.end())
                usageError(argv[0],
                           "unknown argument '" + std::string(arg) + "'");
            if (flag->valued)
                ++i; // the bench's own loop reads and checks it
        }
    }
    if (args.timeline_cap)
        obs::timeline().setCapacity(args.timeline_cap);
    if (args.timeline_path)
        obs::timeline().setRecording(true);
    if (args.slo)
        obs::setSloRecording(true);
    return args;
}

/**
 * Hand each row's machine recordings (its `events`, taken from the
 * row's cluster on the thread that ran it) to the process timeline in
 * row order, which numbers their tracks and prints their first dumps.
 * Call on the calling thread once the rows are done.
 */
template <typename Row>
inline void
addRowEvents(std::vector<Row> &rows)
{
    for (Row &row : rows)
        obs::timeline().add(std::move(row.events));
}

/** Export the Chrome trace if --timeline was given. Call at exit. */
inline void
finishBench(const BenchArgs &args)
{
    if (args.timeline_path)
        obs::timeline().writeChromeTrace(args.timeline_path);
}

/**
 * Mirrors a bench's table into a machine-readable file (conventionally
 * BENCH_<name>.json) for plotting and CI diffing:
 *
 *   {"bench": "...", "threads": 1, "host_ms": 42,
 *    "rows": [{"mode": "strict", "total": 17650.0}, ...]}
 *
 * Rows are flat objects of string and number fields, added in call
 * order. Writing is a no-op when the path is null (no --json given).
 *
 * The meta header records how the bench ran: `threads` is the
 * --threads value, `host_ms` the host wall-clock from bench startup
 * to writeTo(). host_ms is the one legitimately nondeterministic
 * field in an otherwise bit-reproducible file, so the golden_* tests
 * (and any other byte-for-byte diffing) set RIO_JSON_STABLE=1, which
 * pins it to 0.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string bench, unsigned threads = 1)
        : bench_(std::move(bench)), threads_(threads)
    {
    }

    void beginRow() { rows_.emplace_back(); }
    void add(const std::string &key, const std::string &value)
    {
        sink().push_back(
            strprintf("\"%s\": \"%s\"", key.c_str(), value.c_str()));
    }
    void add(const std::string &key, const char *value)
    {
        add(key, std::string(value));
    }
    void add(const std::string &key, double value)
    {
        sink().push_back(strprintf("\"%s\": %.6g", key.c_str(), value));
    }
    void add(const std::string &key, u64 value)
    {
        sink().push_back(strprintf("\"%s\": %llu", key.c_str(),
                                   (unsigned long long)value));
    }
    void add(const std::string &key, unsigned value)
    {
        add(key, static_cast<u64>(value));
    }

    /** Open a nested object inside the current row; subsequent add()
     * calls land in it until the matching endObject(). Nests. */
    void beginObject(const std::string &key)
    {
        open_.push_back({key, {}});
    }
    void
    endObject()
    {
        OpenObject obj = std::move(open_.back());
        open_.pop_back();
        std::string joined;
        for (size_t i = 0; i < obj.fields.size(); ++i) {
            if (i)
                joined += ", ";
            joined += obj.fields[i];
        }
        sink().push_back(strprintf("\"%s\": {%s}", obj.key.c_str(),
                                   joined.c_str()));
    }

    /** Mirror a formatted Table: one JSON row per table row (separator
     * rows skipped), keys from the header, cells that parse fully as
     * numbers emitted as numbers. A non-empty @p tag_key prepends a
     * constant field to every row — use it to tell multiple tables in
     * one bench apart. */
    void
    addTable(const Table &t, const std::string &tag_key = {},
             const std::string &tag_value = {})
    {
        for (const auto &row : t.rows()) {
            if (row.empty())
                continue; // separator
            beginRow();
            if (!tag_key.empty())
                add(tag_key, tag_value);
            const size_t n = std::min(row.size(), t.header().size());
            for (size_t j = 0; j < n; ++j) {
                const std::string &cell = row[j];
                char *end = nullptr;
                std::strtod(cell.c_str(), &end);
                if (!cell.empty() && end && *end == '\0')
                    sink().push_back(strprintf(
                        "\"%s\": %s", t.header()[j].c_str(),
                        cell.c_str()));
                else
                    add(t.header()[j], cell);
            }
        }
    }

    /** Write to @p path; returns false (with a message) on I/O error.
     * Null @p path: nothing to do, returns true. */
    bool
    writeTo(const char *path) const
    {
        if (!path)
            return true;
        std::FILE *f = std::fopen(path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path);
            return false;
        }
        // RIO_JSON_STABLE pins the wall-clock field for byte-for-byte
        // golden diffs; everything else in the file is deterministic.
        const char *stable = std::getenv("RIO_JSON_STABLE");
        unsigned long long host_ms = 0;
        if (!(stable && stable[0] == '1'))
            host_ms = static_cast<unsigned long long>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - benchStartTime())
                    .count());
        std::fprintf(f,
                     "{\"bench\": \"%s\", \"threads\": %u, "
                     "\"host_ms\": %llu, \"rows\": [",
                     bench_.c_str(), threads_, host_ms);
        for (size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s{", i ? ", " : "");
            for (size_t j = 0; j < rows_[i].size(); ++j)
                std::fprintf(f, "%s%s", j ? ", " : "",
                             rows_[i][j].c_str());
            std::fprintf(f, "}");
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path);
        return true;
    }

  private:
    struct OpenObject
    {
        std::string key;
        std::vector<std::string> fields;
    };

    /** Where the next field goes: deepest open object, else the row. */
    std::vector<std::string> &
    sink()
    {
        return open_.empty() ? rows_.back() : open_.back().fields;
    }

    std::string bench_;
    unsigned threads_ = 1;
    std::vector<std::vector<std::string>> rows_;
    std::vector<OpenObject> open_;
};

} // namespace rio::bench

#endif // RIO_BENCH_BENCH_COMMON_H
