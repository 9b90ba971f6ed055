#!/usr/bin/env python3
"""Perf-regression ledger for the simulator's headline benches.

Runs the quick deterministic sweeps (RIO_BENCH_QUICK=1, --threads 1,
RIO_JSON_STABLE=1), flattens the numbers that must not drift into a
ledger keyed "bench/point", and either writes the ledger or diffs it
against the checked-in baseline with per-metric tolerance bands.
Two suites exist: "core" (the PR 9 ledger, BENCH_9.json — per-packet
cycles, cluster ops, tail latencies) and "migrate" (the PR 10 ledger,
BENCH_10.json — live-migration blackout, pages shipped, state freight
and live-ring counts from bench_migration):

  python3 scripts/bench_regress.py --build build --out BENCH_9.json
  python3 scripts/bench_regress.py --build build \
      --baseline BENCH_9.json --check
  python3 scripts/bench_regress.py --build build --suite migrate \
      --baseline BENCH_10.json --check

The simulation is deterministic, so in-tolerance drift normally means
exactly zero drift; the bands exist so an intentional model change
that moves a number by a fraction of a percent (rounding in a
refactored formula) fails loudly only when it matters. Anything
beyond the band is a regression (or an un-regenerated ledger) and
fails CI. Host-side speed is perfbench's job (perfbench/README.md),
not this ledger's.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Relative tolerance per gated metric. Metrics absent here are gated
# exactly (the simulation is deterministic; page and ring counts must
# not move at all without a regenerated ledger).
TOLERANCES = {
    "cycles_per_pkt": 0.02,
    "cycles_per_op": 0.02,
    "avg_burst": 0.02,
    "p99_ns": 0.05,
    "p999_ns": 0.05,
    "blackout_ns": 0.05,
}

ENV = dict(os.environ, RIO_BENCH_QUICK="1", RIO_JSON_STABLE="1")


def run_bench(build, name, args):
    """Run one bench with --json into a temp file, return its rows."""
    exe = os.path.join(build, "bench", name)
    if not os.path.exists(exe):
        sys.exit(f"bench_regress: missing binary {exe} (build first)")
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        cmd = [exe] + args + ["--json", tmp.name]
        subprocess.run(cmd, env=ENV, check=True,
                       stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        with open(tmp.name) as f:
            return json.load(f)["rows"]


def collect(build):
    entries = {}

    for row in run_bench(build, "bench_fig7_cycles_per_packet", []):
        entries[f"fig7/{row['mode']}"] = {
            "cycles_per_pkt": row["total"],
        }

    for row in run_bench(build, "bench_cluster_rdma",
                         ["--connections", "64", "--quick",
                          "--threads", "1"]):
        if "cycles_per_op" not in row:
            continue  # the crossover-summary row carries no gated metric
        key = f"cluster64/{row['mode']}/{row['variant']}"
        entries[key] = {
            "cycles_per_op": row["cycles_per_op"],
            "avg_burst": row["avg_burst"],
        }

    for row in run_bench(build, "bench_tail_latency",
                         ["--quick", "--slo", "--threads", "1"]):
        key = (f"tail/{row['mode']}/loss{row['loss']}"
               f"/incast{row['incast']}")
        entries[key] = {
            "p99_ns": row["p99_ns"],
            "p999_ns": row["p999_ns"],
        }

    return {"schema": 1, "quick": True, "entries": entries}


def collect_migrate(build):
    """Live-migration ledger: every sweep point bench_migration emits
    (base platform x mode grid, rIOMMU scaling, dirty-rate pressure,
    lossy stream), gating the headline claims — blackout within its
    band, pages shipped / state freight / live rings exact."""
    entries = {}
    for row in run_bench(build, "bench_migration",
                         ["--quick", "--threads", "1"]):
        if "blackout_ns" not in row:
            continue  # compat/base rows carry no migration metrics
        key = (f"migrate/{row['variant']}/{row['mode']}"
               f"/{row['platform']}/q{row['app_qps']}/p{row['pages']}")
        entries[key] = {
            "blackout_ns": row["blackout_ns"],
            "pages_shipped": row["pages_shipped"],
            "state_bytes": row["state_bytes"],
            "live_rings": row["live_rings"],
        }
    return {"schema": 1, "quick": True, "entries": entries}


def check(ledger, baseline):
    base = baseline["entries"]
    cur = ledger["entries"]
    failures = []
    for key in sorted(set(base) | set(cur)):
        if key not in cur:
            failures.append(f"{key}: missing from this run")
            continue
        if key not in base:
            failures.append(f"{key}: not in the baseline ledger "
                            "(regenerate with --out)")
            continue
        for metric, want in base[key].items():
            got = cur[key].get(metric)
            if got is None:
                failures.append(f"{key}.{metric}: missing")
                continue
            tol = TOLERANCES.get(metric, 0.0)
            bound = abs(want) * tol
            if abs(got - want) > bound:
                failures.append(
                    f"{key}.{metric}: {got} vs baseline {want} "
                    f"(tolerance ±{tol:.0%})")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build", required=True,
                    help="CMake build dir holding bench/ binaries")
    ap.add_argument("--suite", choices=("core", "migrate"),
                    default="core",
                    help="which ledger to collect (default: core)")
    ap.add_argument("--out", help="write the ledger here")
    ap.add_argument("--baseline", help="checked-in ledger to diff")
    ap.add_argument("--check", action="store_true",
                    help="fail if any gated metric leaves its band")
    args = ap.parse_args()

    collector = collect_migrate if args.suite == "migrate" else collect
    ledger = collector(args.build)
    n = len(ledger["entries"])

    if args.out:
        with open(args.out, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"bench_regress: wrote {args.out} ({n} entries)")

    if args.check:
        if not args.baseline:
            sys.exit("bench_regress: --check needs --baseline")
        with open(args.baseline) as f:
            baseline = json.load(f)
        failures = check(ledger, baseline)
        if failures:
            for f_ in failures:
                print(f"bench_regress: FAIL {f_}", file=sys.stderr)
            sys.exit(1)
        print(f"bench_regress: {n} entries within tolerance of "
              f"{args.baseline}")


if __name__ == "__main__":
    main()
