/**
 * @file
 * Host-speed benchmark driver. Runs one workload back to back for a
 * host-time budget and prints one JSON object per line:
 *
 *   {"kind": "job", ...}    one per job (protection mode) per
 *                           repetition: the fingerprint of its
 *                           simulated outputs and its own checks;
 *   {"kind": "rep", ...}    one per repetition: host-time spans, the
 *                           host-speed calibration around them, the
 *                           simulated work done, engine counts and,
 *                           in traced repetitions, layer counts;
 *   {"kind": "probe", ...}  traced runs only: timed loops over public
 *                           calls of single layers;
 *   {"kind": "build", ...}  how this binary was built.
 *
 * perfbench/run.py starts this program as a child process, compares
 * fingerprints with the stored reference and turns the lines into the
 * metrics named in BENCHMARK.json. Simulated results are only ever
 * checked here, never timed; every time is host steady-clock time.
 *
 * Usage: hostbench --workload stream7|fleet|migrate --seed N
 *                  --threads T --seconds S
 *                  [--trace]
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/strings.h"
#include "cycles/cycle_account.h"
#include "des/parallel.h"
#include "dma/dma_context.h"
#include "dma/protection_mode.h"
#include "mem/phys_mem.h"
#include "migrate/migrate.h"
#include "nic/profile.h"
#include "obs/deferred.h"
#include "obs/registry.h"
#include "sys/cluster.h"
#include "sys/machine.h"
#include "virt/guest.h"
#include "workloads/fleet.h"
#include "workloads/stream.h"

using namespace rio;

namespace {

using Clock = std::chrono::steady_clock;
using dma::ProtectionMode;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload shapes (fixed: they define the benchmark) ---------------

// stream7: the Figure 7 sweep at a length where strict's rb-tree has
// reached its steady live set, so C_strict/C_riommu is the full-run
// headline rather than a warm-up artefact.
constexpr u64 kStreamWarmup = 10000;
constexpr u64 kStreamMeasure = 40000;

// fleet: 4 machines x 1024 QPs, Zipf peers, 16 credits (= sq_depth).
constexpr unsigned kFleetMachines = 4;
constexpr u32 kFleetConnections = 1024;
constexpr u32 kFleetCredits = 16;
constexpr u64 kFleetWarmupOps = 200;
constexpr u64 kFleetMeasureOps = 1500;

// migrate: a nested-platform guest with a dirtier, tens of thousands
// of arena pages, 8 live data-plane QPs.
constexpr u64 kMigPages = 20480;
constexpr unsigned kMigAppQps = 8;
constexpr double kMigDirtyPerMs = 50.0;

constexpr std::array<ProtectionMode, 2> kPairModes = {
    ProtectionMode::kStrict, ProtectionMode::kRiommu};

// Traced runs also run each workload at the other end of 1 vs this many
// threads (capped at the host's CPUs), to check determinism and measure
// the thread speedup.
constexpr unsigned kPairThreads = 4;

// ---- output ------------------------------------------------------------

/** One flat JSON object, printed as one line. Keys and string values
 * are benchmark-made identifiers and never need escaping. */
class Line
{
  public:
    explicit Line(const char *kind) { str("kind", kind); }

    Line &
    str(const std::string &k, const std::string &v)
    {
        return field(k, "\"" + v + "\"");
    }
    Line &
    num(const std::string &k, double v)
    {
        return field(k, strprintf("%.17g", v));
    }
    Line &
    count(const std::string &k, u64 v)
    {
        return field(k, strprintf("%llu", (unsigned long long)v));
    }
    Line &
    flag(const std::string &k, bool v)
    {
        return field(k, v ? "true" : "false");
    }
    Line &
    object(const std::string &k, const std::map<std::string, double> &m)
    {
        std::string body;
        for (const auto &[name, v] : m)
            body += strprintf("%s\"%s\": %.17g", body.empty() ? "" : ", ",
                              name.c_str(), v);
        return field(k, "{" + body + "}");
    }

    void
    print() const
    {
        std::printf("{%s}\n", out_.c_str());
        std::fflush(stdout);
    }

  private:
    Line &
    field(const std::string &k, const std::string &v)
    {
        out_ += (out_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
        return *this;
    }

    std::string out_;
};

// ---- spans ------------------------------------------------------------

/**
 * Host-time spans around the benchmark's own calls into the library,
 * summed by name. Phase spans (setup/run/collect/teardown) are always
 * taken —
 * they give setup_s and the run time of sim_units_per_s; per-call
 * spans only when the repetition is traced.
 */
class Spans
{
  public:
    explicit Spans(bool traced) : traced_(traced) {}

    template <typename F>
    void
    phase(const char *name, F &&f)
    {
        const auto t0 = Clock::now();
        f();
        acc_[name] += since(t0);
    }

    template <typename F>
    void
    call(const char *name, F &&f)
    {
        if (traced_)
            phase(name, f);
        else
            f();
    }

    const std::map<std::string, double> &all() const { return acc_; }

  private:
    bool traced_;
    std::map<std::string, double> acc_;
};

// ---- one repetition ---------------------------------------------------

struct Job
{
    std::string name;
    std::string fp; //!< fingerprint of the simulated outputs
    std::string why; //!< failed checks, empty when the job is correct
};

struct Rep
{
    explicit Rep(bool traced) : spans(traced) {}

    Spans spans;
    std::vector<Job> jobs;
    u64 units = 0; //!< simulated work: packets, completions or pages
    u64 events = 0;
    u64 windows = 0;
    u64 mail = 0;
    std::map<std::string, double> counts; //!< layer counts (traced)
};

void
check(Job &job, bool ok, const char *what)
{
    if (!ok)
        job.why += std::string(job.why.empty() ? "" : "; ") + what;
}

std::string
catKey(cycles::Cat cat)
{
    std::string s = cycles::catName(cat);
    std::replace(s.begin(), s.end(), ' ', '_');
    return s;
}

/** Layer counts from obs::registry(): counter values and histogram
 * counts summed over labels, plus per-mode DMA map counts. */
void
addRegistryCounts(Rep &rep)
{
    obs::flushAllDeferred();
    std::map<std::string, double> t;
    for (const auto &e : obs::registry().metrics()) {
        if (e->type == obs::MetricEntry::Type::kCounter)
            t[e->name] += static_cast<double>(e->counter->get());
        else if (e->type == obs::MetricEntry::Type::kHistogram) {
            t[e->name] += static_cast<double>(e->histogram->count());
            for (const auto &[k, v] : e->labels)
                if (k == "mode")
                    t[e->name + "." + v] +=
                        static_cast<double>(e->histogram->count());
        }
    }
    const auto get = [&t](const std::string &k) {
        const auto it = t.find(k);
        return it == t.end() ? 0.0 : it->second;
    };
    rep.counts["iommu.iotlb_hits"] = get("iotlb.hits");
    rep.counts["iommu.iotlb_misses"] = get("iotlb.misses");
    rep.counts["iommu.qi_syncs"] = get("qi.sync_cycles");
    rep.counts["riommu.implicit_invalidations"] =
        get("riotlb.implicit_invalidations");
    rep.counts["dma.maps"] = get("dma.map_cycles");
    rep.counts["dma.unmaps"] = get("dma.unmap_cycles");
    for (const ProtectionMode mode : dma::kEvaluatedModes) {
        const std::string m = dma::modeName(mode);
        rep.counts["dma.maps." + m] = get("dma.map_cycles." + m);
    }
}

void
addEngineCounts(des::ParallelEngine &eng, Rep &rep)
{
    rep.events += eng.eventsRun();
    rep.windows += eng.rounds();
    rep.mail += eng.messagesDelivered();
}

/** Layer counts of one cluster, guest and migration NICs together. */
void
addClusterCounts(sys::Cluster &cl, std::map<std::string, double> &c)
{
    using RS = rdma::RdmaStats;
    const auto rdma = [&cl](u64 RS::*field) {
        return static_cast<double>(cl.total(field) + cl.migTotal(field));
    };
    c["rdma.posts"] += rdma(&RS::posts);
    c["rdma.posts_blocked"] += rdma(&RS::posts_blocked);
    c["rdma.completions"] += rdma(&RS::completions);
    c["rdma.eob_unmaps"] += rdma(&RS::eob_unmaps);
    for (unsigned m = 0; m < cl.size(); ++m) {
        dma::DmaContext &ctx = cl.machine(m).ctx();
        c["mem.frames"] += static_cast<double>(ctx.memory().allocatedFrames());
        c["iommu.pt_walk_reads"] +=
            static_cast<double>(ctx.iommu().walkMemRefs());
        c["riommu.riotlb_walks"] +=
            static_cast<double>(ctx.riommu().riotlb().stats().walks);
    }
}

/** Frames a bare mlx Machine holds after bring-up, summed over the
 * seven modes: StreamRun keeps its Machine private, so stream7's
 * memory footprint is read off an identical one. */
double
streamFrames()
{
    u64 frames = 0;
    for (const ProtectionMode mode : dma::kEvaluatedModes) {
        des::Simulator sim;
        sys::Machine m(sim, mode, nic::mlxProfile());
        m.bringUp();
        frames += m.ctx().memory().allocatedFrames();
    }
    return static_cast<double>(frames);
}

// ---- stream7 ----------------------------------------------------------

Rep
repStream7(unsigned threads, u64 /*seed: stream7 draws no RNG*/,
           bool traced)
{
    Rep rep(traced);
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.warmup_packets = kStreamWarmup;
    p.measure_packets = kStreamMeasure;

    std::unique_ptr<des::ParallelEngine> eng;
    std::vector<std::unique_ptr<workloads::StreamRun>> runs;
    rep.spans.phase("setup", [&] {
        eng = std::make_unique<des::ParallelEngine>(threads);
        for (const ProtectionMode mode : dma::kEvaluatedModes) {
            des::Lane &lane = eng->addLane();
            runs.push_back(std::make_unique<workloads::StreamRun>(
                lane.sim(), mode, nic::mlxProfile(), p));
        }
    });
    rep.spans.phase("run", [&] { eng->run(); });

    std::vector<workloads::RunResult> res;
    rep.spans.phase("collect", [&] {
        for (auto &run : runs)
            res.push_back(run->collect());
        double cpp_none = 0, cpp_riommu = 0, cpp_strict = 0;
        for (size_t i = 0; i < res.size(); ++i) {
            const workloads::RunResult &r = res[i];
            const ProtectionMode mode = dma::kEvaluatedModes[i];
            Job job{dma::modeName(mode), "", ""};
            job.fp = strprintf(
                "cpp=%.6f burst=%.6f tx=%llu rx=%llu ev=%llu",
                r.cycles_per_packet, r.avg_unmap_burst,
                (unsigned long long)r.tx_packets,
                (unsigned long long)r.rx_packets,
                (unsigned long long)eng->lane(i).sim().eventsRun());
            for (unsigned c = 0; c < cycles::kNumCats; ++c) {
                const auto cat = static_cast<cycles::Cat>(c);
                job.fp += strprintf(" %s=%llu", catKey(cat).c_str(),
                                    (unsigned long long)r.acct.get(cat));
            }
            check(job, r.tx_packets >= kStreamMeasure,
                  "packet target not reached");
            check(job, r.nic.dma_faults == 0 && r.fault.faults_seen == 0 &&
                           r.detach_faults == 0,
                  "DMA faults");
            if (mode == ProtectionMode::kNone)
                cpp_none = r.cycles_per_packet;
            if (mode == ProtectionMode::kRiommu)
                cpp_riommu = r.cycles_per_packet;
            if (mode == ProtectionMode::kStrict)
                cpp_strict = r.cycles_per_packet;
            rep.jobs.push_back(job);
            rep.units += r.tx_packets + r.rx_packets;
        }
        if (!(cpp_none < cpp_riommu && cpp_riommu < cpp_strict))
            for (Job &job : rep.jobs)
                check(job, false, "cycles/packet order none<riommu<strict");
    });

    addEngineCounts(*eng, rep);
    rep.spans.phase("teardown", [&] {
        runs.clear();
        eng.reset();
    });
    for (size_t i = 0; traced && i < res.size(); ++i) {
        const workloads::RunResult &r = res[i];
        auto &c = rep.counts;
        c["nic.tx_packets"] += static_cast<double>(r.tx_packets);
        c["nic.rx_packets"] += static_cast<double>(r.rx_packets);
        c["nic.unmap_bursts"] += static_cast<double>(r.nic.unmap_bursts);
        c["nic.unmap_burst_len_sum"] +=
            static_cast<double>(r.nic.unmap_burst_len_sum);
        c["virt.vm_exits"] += static_cast<double>(r.vm_exits);
        // RunResult sums both translators' walks; a mode uses one.
        if (dma::modeUsesRiommu(dma::kEvaluatedModes[i]))
            c["riommu.riotlb_walks"] += static_cast<double>(r.walks);
        else
            c["iommu.pt_walk_reads"] += static_cast<double>(r.walk_mem_refs);
    }
    return rep;
}

// ---- fleet --------------------------------------------------------------

Rep
repFleet(unsigned threads, u64 seed, bool traced)
{
    Rep rep(traced);
    workloads::FleetParams p;
    p.connections = kFleetConnections;
    p.credits = kFleetCredits;
    p.warmup_ops = kFleetWarmupOps;
    p.measure_ops = kFleetMeasureOps;
    p.seed = seed;

    for (const ProtectionMode mode : kPairModes) {
        sys::ClusterConfig cfg;
        cfg.machines = kFleetMachines;
        cfg.threads = threads;
        cfg.mode = mode;
        cfg.max_qps = workloads::fleetMaxQps(p, kFleetMachines);

        std::unique_ptr<sys::Cluster> cl;
        rep.spans.phase("setup",
                        [&] { cl = std::make_unique<sys::Cluster>(cfg); });
        workloads::FleetReport fr;
        rep.spans.phase("run", [&] { fr = workloads::runFleet(*cl, p); });
        rep.spans.phase("collect", [&] {
            Job job{dma::modeName(mode), "", ""};
            job.fp = strprintf(
                "cpo=%.6f burst=%.6f measured=%llu completions=%llu "
                "posts=%llu blocked=%llu end_ns=%llu p50=%llu p99=%llu "
                "ev=%llu",
                fr.cycles_per_op, fr.avg_burst,
                (unsigned long long)fr.measured_ops,
                (unsigned long long)fr.completions,
                (unsigned long long)fr.posts,
                (unsigned long long)fr.posts_blocked,
                (unsigned long long)fr.end_ns,
                (unsigned long long)fr.p50_latency_ns,
                (unsigned long long)fr.p99_latency_ns,
                (unsigned long long)cl->engine().eventsRun());
            check(job,
                  fr.measured_ops >= kFleetMachines * kFleetMeasureOps,
                  "op target not reached");
            check(job,
                  fr.comp_errors == 0 && fr.remote_faults == 0 &&
                      fr.local_fault_drops == 0,
                  "RDMA faults or error completions");
            check(job, fr.leaks_clean, "leaks after runFleet");
            // runFleet quiesces and audits internally; the benchmark
            // repeats both through the public calls, as its own check.
            rep.spans.call("sys.quiesce", [&] { cl->quiesce(); });
            bool clean = true;
            rep.spans.call("sys.leak_check", [&] {
                for (unsigned m = 0; m < cl->size(); ++m)
                    clean = clean && cl->checkLeaks(m).clean();
            });
            check(job, clean, "leaks at the benchmark's audit");
            rep.jobs.push_back(job);
            rep.units += fr.completions;
        });
        addEngineCounts(cl->engine(), rep);
        if (traced)
            addClusterCounts(*cl, rep.counts);
        rep.spans.phase("teardown", [&] { cl.reset(); });
    }
    return rep;
}

// ---- migrate ------------------------------------------------------------

/** Everything one migration owns, in construction order. */
struct MigRig
{
    std::unique_ptr<sys::Cluster> cl;
    std::unique_ptr<virt::Guest> src_guest, dst_guest;
    std::unique_ptr<migrate::Migrator> mig;
};

Rep
repMigrate(unsigned threads, u64 seed, bool traced)
{
    Rep rep(traced);
    for (const ProtectionMode mode : kPairModes) {
        MigRig rig;
        unsigned connected = 0;
        rep.spans.phase("setup", [&] {
            sys::ClusterConfig cfg;
            cfg.machines = 2;
            cfg.threads = threads;
            cfg.mode = mode;
            cfg.max_qps = kMigAppQps + 4;
            cfg.migration = true;
            cfg.reliability.enabled = true;
            rig.cl = std::make_unique<sys::Cluster>(cfg);
            sys::Cluster &cl = *rig.cl;
            rig.src_guest = std::make_unique<virt::Guest>(
                cl.machine(0), virt::Platform::kNested);
            rig.dst_guest = std::make_unique<virt::Guest>(
                cl.machine(1), virt::Platform::kNested);
            const unsigned binding = rig.src_guest->bindHandle(
                cl.handle(0), cl.machine(0).core(0));
            (void)rig.dst_guest->bindHandle(cl.handle(1),
                                            cl.machine(1).core(0));
            cl.bringUp();
            cl.machine(0).core(0).post([&] {
                for (unsigned q = 0; q < kMigAppQps; ++q)
                    (void)cl.nic(0).connect(1, [&connected](u32, bool ok) {
                        connected += ok ? 1 : 0;
                    });
            });
            cl.run();
            migrate::MigrateConfig mc;
            mc.src = 0;
            mc.dst = 1;
            mc.platform = virt::Platform::kNested;
            mc.guest_pages = kMigPages;
            mc.dirty_pages_per_ms = kMigDirtyPerMs;
            mc.dirty_seed = seed;
            mc.converge_dirty = 16;
            rig.mig = std::make_unique<migrate::Migrator>(cl, mc);
            rig.mig->setGuests(rig.src_guest.get(), rig.dst_guest.get(),
                               binding);
            rig.mig->start();
        });
        sys::Cluster &cl = *rig.cl;
        migrate::Migrator &mig = *rig.mig;
        rep.spans.phase("run", [&] { cl.run(); });
        rep.spans.phase("collect", [&] {
            const migrate::MigrationReport &r = mig.report();
            Job job{dma::modeName(mode), "", ""};
            job.fp = strprintf(
                "rounds=%u shipped=%llu reshipped=%llu naks=%llu "
                "state_bytes=%llu blackout_ns=%llu total_ns=%llu "
                "dirtier_writes=%llu ev=%llu",
                r.rounds, (unsigned long long)r.pages_shipped,
                (unsigned long long)r.pages_reshipped,
                (unsigned long long)r.page_naks,
                (unsigned long long)r.state_bytes,
                (unsigned long long)r.blackout_ns,
                (unsigned long long)r.total_ns,
                (unsigned long long)r.dirtier_writes,
                (unsigned long long)cl.engine().eventsRun());
            check(job, connected == kMigAppQps, "app QPs not established");
            check(job, r.completed && !r.failed, "migration incomplete");
            check(job, r.pages_shipped >= kMigPages, "arena not shipped");
            u64 src_hash = 0, dst_hash = 0;
            rep.spans.call("migrate.hash", [&] {
                src_hash = mig.arenaHash(false);
                dst_hash = mig.arenaHash(true);
            });
            check(job, src_hash == dst_hash, "arena hashes differ");
            mig.cleanup();
            rep.spans.call("sys.quiesce", [&] { cl.quiesce(); });
            bool clean = true;
            rep.spans.call("sys.leak_check", [&] {
                for (unsigned m = 0; m < 2; ++m)
                    clean = clean && cl.checkLeaks(m).clean() &&
                            cl.checkMigLeaks(m).clean();
            });
            check(job, clean, "handle leaks");
            rep.jobs.push_back(job);
            rep.units += r.pages_shipped;
        });
        addEngineCounts(cl.engine(), rep);
        if (traced) {
            addClusterCounts(cl, rep.counts);
            const migrate::MigrationReport &r = mig.report();
            rep.counts["migrate.pages_shipped"] +=
                static_cast<double>(r.pages_shipped);
            rep.counts["migrate.pages_reshipped"] +=
                static_cast<double>(r.pages_reshipped);
            rep.counts["migrate.rounds"] += static_cast<double>(r.rounds);
            rep.counts["virt.vm_exits"] +=
                static_cast<double>(rig.src_guest->stats().vm_exits +
                                    rig.dst_guest->stats().vm_exits);
        }
        rep.spans.phase("teardown", [&] {
            rig.mig.reset();
            rig.dst_guest.reset();
            rig.src_guest.reset();
            rig.cl.reset();
        });
    }
    return rep;
}

// ---- probes -------------------------------------------------------------

volatile u64 g_sink = 0;

/** Host ns per event of a bare Simulator: 8 self-rescheduling chains. */
double
probeEvent()
{
    constexpr u64 kEvents = 2'000'000;
    constexpr unsigned kChains = 8;
    des::Simulator sim;
    u64 left = kEvents;
    struct Chain
    {
        des::Simulator *sim;
        u64 *left;
        Nanos gap;
        void
        operator()() const
        {
            if (*left == 0)
                return;
            --*left;
            sim->scheduleAfter(gap, *this);
        }
    };
    for (unsigned c = 0; c < kChains; ++c)
        sim.scheduleAfter(c + 1, Chain{&sim, &left, 10 + c});
    const auto t0 = Clock::now();
    sim.run();
    return since(t0) * 1e9 / static_cast<double>(sim.eventsRun());
}

/** Host ns per horizon window of a ParallelEngine: 4 lanes pass
 * tokens around a ring, one hop per lookahead — one event and one
 * mail per lane per window, the thin-window shape of a cluster. */
double
probeWindow(unsigned threads)
{
    constexpr unsigned kLanes = 4;
    constexpr u64 kHops = 20000; //!< per token
    constexpr Nanos kLookahead = 1000;
    des::ParallelEngine eng(threads);
    eng.setLookahead(kLookahead);
    std::vector<des::Lane *> lanes;
    for (unsigned i = 0; i < kLanes; ++i)
        lanes.push_back(&eng.addLane());
    struct Hop
    {
        std::vector<des::Lane *> *lanes;
        unsigned at;
        u64 left;
        void
        operator()() const
        {
            if (left == 0)
                return;
            des::Lane &src = *(*lanes)[at];
            const unsigned next = (at + 1) % kLanes;
            src.sendTo(*(*lanes)[next], src.sim().now() + kLookahead,
                       Hop{lanes, next, left - 1});
        }
    };
    for (unsigned i = 0; i < kLanes; ++i)
        lanes[i]->sim().scheduleAt(0, Hop{&lanes, i, kHops});
    const auto t0 = Clock::now();
    eng.run();
    return since(t0) * 1e9 /
           static_cast<double>(std::max<u64>(1, eng.rounds()));
}

/** Host ns per PhysicalMemory::read64 over a 16 MB touched region. */
double
probeRead64()
{
    constexpr u64 kPages = 4096;
    constexpr u64 kReads = 4'000'000;
    mem::PhysicalMemory pm;
    const PhysAddr base = pm.allocContiguous(kPages * kPageSize);
    for (u64 i = 0; i < kPages; ++i)
        pm.write64(base + i * kPageSize, i);
    u64 x = 12345, sum = 0;
    const auto t0 = Clock::now();
    for (u64 i = 0; i < kReads; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sum += pm.read64(base + ((x >> 20) % (kPages * kPageSize / 8)) * 8);
    }
    const double ns = since(t0) * 1e9 / static_cast<double>(kReads);
    g_sink = sum; // keeps the reads from being optimized away
    return ns;
}

/** Host ns per 4 KB PhysicalMemory::write (guest-page apply). */
double
probePageWrite()
{
    constexpr u64 kPages = 4096;
    constexpr u64 kWrites = 40000;
    mem::PhysicalMemory pm;
    const PhysAddr base = pm.allocContiguous(kPages * kPageSize);
    std::vector<u8> page(kPageSize, 0x5a);
    const auto t0 = Clock::now();
    for (u64 i = 0; i < kWrites; ++i) {
        page[i % kPageSize] = static_cast<u8>(i);
        pm.write(base + (i % kPages) * kPageSize, page.data(), kPageSize);
    }
    return since(t0) * 1e9 / static_cast<double>(kWrites);
}

/** Host ns per map+unmap pair through DmaContext::makeHandle, FIFO
 * over a live set of ~12K buffers (the paper's mlx address count),
 * end of burst every 200 unmaps as in the mlx Tx completion batch. */
double
probeMapUnmap(ProtectionMode mode)
{
    constexpr u32 kLive = 12288;
    constexpr u64 kPairs = 24000;
    constexpr u32 kBuf = 2048;
    constexpr u32 kPool = kLive + 1024;
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto h = ctx.makeHandle(mode, iommu::Bdf{0, 3, 0}, &acct, {4, 16384});
    const PhysAddr pool = ctx.memory().allocContiguous(
        static_cast<u64>(kPool) * kBuf);
    std::deque<dma::DmaMapping> live;
    u64 next = 0;
    const auto mapOne = [&] {
        const PhysAddr pa = pool + (next++ % kPool) * kBuf;
        auto m = h->map(1, pa, kBuf, iommu::DmaDir::kToDevice);
        if (!m.isOk()) {
            std::fprintf(stderr, "probe map failed at %s\n",
                         dma::modeName(mode));
            std::exit(3);
        }
        live.push_back(m.value());
    };
    for (u32 i = 0; i < kLive; ++i)
        mapOne();
    const auto t0 = Clock::now();
    for (u64 i = 0; i < kPairs; ++i) {
        if (!h->unmap(live.front(), i % 200 == 199).isOk()) {
            std::fprintf(stderr, "probe unmap failed at %s\n",
                         dma::modeName(mode));
            std::exit(3);
        }
        live.pop_front();
        mapOne();
    }
    const double ns = since(t0) * 1e9 / static_cast<double>(kPairs);
    while (!live.empty()) {
        (void)h->unmap(live.front(), live.size() == 1);
        live.pop_front();
    }
    return ns;
}

/** The paper's headline, C_strict / C_riommu on mlx at stream7's
 * length: a check of the model, run in every traced run so each
 * workload reports it. */
double
probeHeadlineRatio(unsigned threads)
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.warmup_packets = kStreamWarmup;
    p.measure_packets = kStreamMeasure;
    des::ParallelEngine eng(threads);
    workloads::StreamRun strict(eng.addLane().sim(), ProtectionMode::kStrict,
                                nic::mlxProfile(), p);
    workloads::StreamRun riommu(eng.addLane().sim(), ProtectionMode::kRiommu,
                                nic::mlxProfile(), p);
    eng.run();
    return strict.collect().cycles_per_packet /
           riommu.collect().cycles_per_packet;
}

void
runProbes(unsigned threads)
{
    Line line("probe");
    line.num("model.c_strict_over_c_riommu", probeHeadlineRatio(threads));
    line.num("des.probe_ns_per_event", probeEvent());
    line.num("des.probe_ns_per_window", probeWindow(threads));
    line.num("des.probe_ns_per_window_1t", probeWindow(1));
    line.num("mem.probe_ns_per_read64", probeRead64());
    line.num("mem.probe_ns_per_page_write", probePageWrite());
    for (const ProtectionMode mode : dma::kEvaluatedModes)
        line.num(std::string("dma.probe_ns_per_map_unmap.") +
                     dma::modeName(mode),
                 probeMapUnmap(mode));
    line.print();
}

// ---- driver ---------------------------------------------------------

using RepFn = Rep (*)(unsigned threads, u64 seed, bool traced);

struct Workload
{
    const char *name;
    RepFn fn;
    /** mem.frames for a workload whose repetition cannot read its own
     * machines; taken after the wall time (null: the repetition
     * counts them). */
    double (*frames)();
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"stream7", repStream7, streamFrames},
    {"fleet", repFleet, nullptr},
    {"migrate", repMigrate, nullptr},
}};

void
emit(const Rep &rep, unsigned idx, unsigned threads, const char *tag,
     double wall_s, double cal_s)
{
    for (const Job &job : rep.jobs)
        Line("job")
            .count("rep", idx)
            .count("threads", threads)
            .str("tag", tag)
            .str("job", job.name)
            .str("fp", job.fp)
            .str("why", job.why)
            .print();
    Line("rep")
        .count("rep", idx)
        .count("threads", threads)
        .str("tag", tag)
        .num("wall_s", wall_s)
        .num("cal_s", cal_s)
        .count("units", rep.units)
        .count("jobs", rep.jobs.size())
        .count("events", rep.events)
        .count("windows", rep.windows)
        .count("mail", rep.mail)
        .object("spans", rep.spans.all())
        .object("counts", rep.counts)
        .print();
}

/**
 * Host seconds of a fixed piece of work that calls no library code: a
 * binary heap of timestamps (the shape of an event queue) and dependent
 * random reads over a 16 MB table (the shape of simulated memory). On a
 * shared host the box's speed drifts by tens of percent over seconds to
 * minutes; run.py scales each end-to-end time by the calibration taken
 * around its repetition, so those metrics follow the simulator rather
 * than the neighbours. Allocation-free after the first call.
 */
double
calibrate()
{
    constexpr size_t kWords = size_t{1} << 21;
    constexpr size_t kHeap = 4096;
    constexpr u64 kSteps = 300000;
    static std::vector<u64> table = [] {
        std::vector<u64> t(kWords);
        for (size_t i = 0; i < kWords; ++i)
            t[i] = i * 0x9E3779B97F4A7C15ULL;
        return t;
    }();
    static std::vector<u64> heap(kHeap + 1);
    size_t n = 0;
    u64 x = 88172645463325252ULL, sum = 0;
    const auto t0 = Clock::now();
    for (u64 i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += table[(x + sum) & (kWords - 1)];
        heap[n++] = x >> 40;
        std::push_heap(heap.begin(), heap.begin() + n, std::greater<u64>());
        if (n > kHeap) {
            std::pop_heap(heap.begin(), heap.begin() + n, std::greater<u64>());
            sum += heap[--n];
        }
    }
    g_sink = sum;
    return since(t0);
}

/** One timed repetition; wall_s runs from workload start to verified
 * outputs and released machines. `cal_before` is the calibration taken
 * just before; returns the one taken just after, which is the next
 * repetition's `cal_before`. */
double
runRep(const Workload &w, unsigned idx, unsigned threads, u64 seed,
       bool traced, const char *tag, double cal_before)
{
    if (traced)
        obs::registry().resetValues();
    const auto t0 = Clock::now();
    Rep rep = w.fn(threads, seed, traced);
    const double wall_s = since(t0);
    const double cal_after = calibrate();
    if (traced) {
        addRegistryCounts(rep);
        if (w.frames)
            rep.counts["mem.frames"] = w.frames();
    }
    emit(rep, idx, threads, tag, wall_s, (cal_before + cal_after) / 2);
    return cal_after;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload stream7|fleet|migrate "
                 "--seed N --threads T --seconds S "
                 "[--trace]\n",
                 why);
    std::exit(2);
}

u64
parseCount(const char *flag, const char *s, u64 lo, u64 hi)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || errno || s[0] == '-' || v < lo || v > hi)
        usage(strprintf("bad value '%s' for %s", s, flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *w = nullptr;
    u64 seed = 0, threads = 0, seconds = 0;
    bool have_seed = false, trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a(argv[i]);
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(strprintf("%s needs a value", argv[i]).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            const std::string_view name(value());
            for (const Workload &cand : kWorkloads)
                if (name == cand.name)
                    w = &cand;
            if (!w)
                usage(strprintf("unknown workload '%s'", argv[i]).c_str());
        } else if (a == "--seed") {
            seed = parseCount("--seed", value(), 0, ~u64{0});
            have_seed = true;
        } else if (a == "--threads") {
            threads = parseCount("--threads", value(), 1, 256);
        } else if (a == "--seconds") {
            seconds = parseCount("--seconds", value(), 1, 600);
        } else if (a == "--trace") {
            trace = true;
        } else {
            usage(strprintf("unknown argument '%s'", argv[i]).c_str());
        }
    }
    if (!w || !have_seed || !threads || !seconds)
        usage("--workload, --seed, --threads and --seconds are required");

    Line("build")
        .str("build_type", HB_BUILD_TYPE)
        .str("compiler", HB_COMPILER)
        .flag("rio_obs", HB_RIO_OBS)
        .print();

    const auto t0 = Clock::now();
    const double budget = static_cast<double>(seconds);
    const auto nthreads = static_cast<unsigned>(threads);
    unsigned idx = 0;
    double cal = calibrate();
    if (!trace) {
        // At least three repetitions so each median has a middle.
        while (idx < 3 || since(t0) < budget)
            cal = runRep(*w, idx++, nthreads, seed, false, "plain", cal);
        return 0;
    }
    // Traced: probes first (fixed work), then cycles of a traced and a
    // plain repetition at the workload's thread count, plus a plain one
    // at the other end of the 1 vs kPairThreads comparison: the
    // overhead pair and the determinism/speedup pair.
    const unsigned npair = std::max(
        1u, std::min(kPairThreads, std::thread::hardware_concurrency()));
    const unsigned other = nthreads == 1 ? npair : 1;
    runProbes(std::max(nthreads, npair));
    cal = calibrate();
    while (idx < 3 || since(t0) < budget) {
        cal = runRep(*w, idx++, nthreads, seed, true, "traced", cal);
        cal = runRep(*w, idx++, nthreads, seed, false, "plain", cal);
        cal = runRep(*w, idx++, other, seed, false, "pair", cal);
    }
    return 0;
}
