#!/usr/bin/env bash
# CI lanes beyond tier-1 ctest. Run from anywhere:
#
#   scripts/ci.sh <lane>...     (or: scripts/ci.sh all)
#
# Each lane names a build flavour, the targets it needs, the ctests it
# runs and its extra commands: fuzz soaks on seeds only that lane runs
# (the *_EXTRA_SEEDS variables fuzz_test appends to its compiled-in
# seeds), bench sweeps and trace validators. Each flavour the chosen
# lanes need is configured and built once, its ctest runs once over
# the union of their test regexes, and then their extras run — so no
# check runs twice on one tree with the same environment.
#
#   lane       flavour  what it adds
#   sanitize   asan     every ctest (StreamTest.SteadyStatePackets-
#                       AllocateNothing; the recycled-node RbTree,
#                       IOVA-handle and IovaScanFuzz checks;
#                       PhysicalMemory's ranged-observer, dirty-pool
#                       zeroing and ArenaHash.* cases; RbTree.Spare-
#                       NodeIsPoisoned, LinuxAllocatorDeathTest.Stale-
#                       HandleIsCaught and the whole-zeroed block of
#                       PhysicalMemory.PooledBlockIsPoisoned only
#                       here); FaultFuzz, LifecycleFuzz, VirtFuzz,
#                       IovaScanFuzz, RbTreeSpliceFuzz and
#                       CoupledEngineFuzz soaks (recovery and teardown
#                       paths, the IOVA tree's augmentation, splices
#                       and spares, the shared event queue's slots
#                       against the windowed-loop oracle)
#   tsan       tsan     everything that runs parallelFor threads:
#                       engine, obs, lock, memory-pool (PhysicalMemory.
#                       ObserverSeesOnlyWritesIntersectingItsRange,
#                       FramesFromDirtyPooledBlocksReadZero) and cluster
#                       suites, ClusterFuzz, threaded fig7 / scaling
#                       sweeps and concurrent cluster / tail / migration
#                       / recording wire-storm rows
#   obs        release  zero-cost goldens, fault-storm and wire-storm
#                       trace validation, the BENCH_9/BENCH_10 ledgers
#   virt       release  virt suites, VirtFuzz soak, all-platform sweep
#                       (exits nonzero unless nested widens the gap)
#   cluster    asan     ClusterFuzz soak, 1K-QP/machine erosion sweep
#   wire       asan     WireFuzz soak, full hostile-wire storm sweep
#   migrate    asan     migrate_test (ArenaHash.* included),
#                       MigrateFuzz soak
#   fuzz       default  every fuzz campaign on extra seeds (IovaScanFuzz,
#                       RbTreeSpliceFuzz and CoupledEngineFuzz included)
#   lifecycle  default  LifecycleFuzz soak, churn sweeps per seed
set -euo pipefail

cd "$(dirname "$0")/.."

declare -A DIR=([asan]=build-asan [tsan]=build-tsan
                [release]=build-release [default]=build)
declare -A CONFIG=(
    [asan]="-DRIO_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo"
    [tsan]="-DRIO_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo"
    [release]="-DCMAKE_BUILD_TYPE=Release"
    [default]=""
)

# The lane table: flavour, build targets ("all" for everything) and
# the ctests to run (an anchored regex).
LANES=(sanitize tsan obs virt cluster wire migrate fuzz lifecycle)
declare -A FLAVOUR=([sanitize]=asan [tsan]=tsan [obs]=release
                    [virt]=release [cluster]=asan [wire]=asan
                    [migrate]=asan [fuzz]=default [lifecycle]=default)
declare -A TARGETS=(
    [sanitize]=all
    [tsan]="parallel_test obs_test des_test spinlock_test mem_test
            magazine_churn_test cluster_test fuzz_test
            bench_fig7_cycles_per_packet bench_scaling_cores
            bench_cluster_rdma bench_tail_latency bench_migration
            bench_wire_storm"
    [obs]=all
    [virt]=all
    [cluster]="cluster_test fuzz_test bench_cluster_rdma"
    [wire]="cluster_test fuzz_test bench_wire_storm"
    [migrate]="migrate_test fuzz_test bench_migration"
    [fuzz]="fuzz_test fault_test"
    [lifecycle]="lifecycle_test fuzz_test bench_lifecycle_churn"
)
declare -A TESTS=(
    [sanitize]='.*'
    [tsan]='parallel_test|obs_test|des_test|spinlock_test|mem_test|magazine_churn_test|cluster_test'
    [obs]='obs_test|golden_obs|golden_fig7.*|golden_virt_threads|golden_scaling.*|golden_lifecycle'
    [virt]='virt_test|magazine_churn_test|golden_virt'
    [cluster]='cluster_test|golden_cluster.*'
    [wire]='cluster_test|golden_wire.*'
    [migrate]='migrate_test|golden_migrate.*'
    [fuzz]='fault_test'
    [lifecycle]='lifecycle_test|golden_lifecycle'
)

# abort_on_error makes sanitizer reports fail the run rather than log.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

# ---- Lane extras: $1 is the flavour's build directory ---------------

extras_sanitize() {
    # Fault injection stresses PTE save/restore, log drain and latch
    # clear; surprise unplug walks orphaned-mapping unmap, ITE time-out
    # spin and head-skip; guest fuzz walks the vIOMMU trap bindings and
    # stage-2 fills — where ASan/UBSan have the most to find.
    RIO_FUZZ_EXTRA_SEEDS="7001,7919,104729" \
        "$1/tests/fuzz_test" --gtest_filter='*FaultFuzz*'
    RIO_CHURN_EXTRA_SEEDS="5501,7703" \
        "$1/tests/fuzz_test" --gtest_filter='*LifecycleFuzz*'
    RIO_VIRT_EXTRA_SEEDS="6007,28657" \
        "$1/tests/fuzz_test" --gtest_filter='*VirtFuzz*'
    # The allocator's rank-counted scan against the 3.4 linear loop,
    # and splices against descents, with every tree rotation,
    # augmented-field update and recycled node under ASan.
    RIO_IOVA_EXTRA_SEEDS="4099,65521,1000003" \
        "$1/tests/fuzz_test" --gtest_filter='*IovaScanFuzz*:*RbTreeSpliceFuzz*'
    # The coupled engine's one queue (windows, mail keys, trace slots,
    # recycled callback cells) against the windowed-loop oracle.
    RIO_ENGINE_EXTRA_SEEDS="1009,4093,65537,999983" \
        "$1/tests/fuzz_test" --gtest_filter='*CoupledEngineFuzz*'
}

extras_tsan() {
    # Four mode lanes on four workers, each counting into its own
    # machine; every machine's teardown merges its totals into the
    # process-wide registry.
    RIO_BENCH_QUICK=1 "$1/bench/bench_fig7_cycles_per_packet" \
        --threads 4 > /dev/null
    # K-core flows: each (mode, cores) lane contends on its own locks.
    RIO_BENCH_QUICK=1 "$1/bench/bench_scaling_cores" \
        --cores 1,2 --threads 4 > /dev/null
    # Concurrent rows: whole clusters side by side, each on one
    # thread, sharing only the process-wide obs state (the registry's
    # teardown merge, the SLO gate); TSan holds them to that.
    "$1/tests/fuzz_test" --gtest_filter='*ClusterFuzz*'
    RIO_BENCH_QUICK=1 "$1/bench/bench_cluster_rdma" \
        --connections 64 --quick --threads 4 > /dev/null
    # Per-cluster SLO recorders and the thread-local trace slot.
    RIO_BENCH_QUICK=1 "$1/bench/bench_tail_latency" \
        --quick --slo --threads 4 > /dev/null 2>&1
    # Concurrent guests, arena hashing and stray ledgers.
    RIO_BENCH_QUICK=1 "$1/bench/bench_migration" \
        --quick --threads 4 > /dev/null
    # Recording rows: each machine records into its own recorder on
    # its row's thread; the calling thread takes the rows' recordings,
    # prints their dumps and writes the trace after the join.
    RIO_BENCH_QUICK=1 "$1/bench/bench_wire_storm" --quick --loss 0.02 \
        --threads 4 --timeline "$1/tsan_wire_storm_timeline.json" \
        > /dev/null 2>&1
}

extras_obs() {
    # The fault storm exercises QI spans, DMA fault recovery and the
    # flight recorder in one run: paired async QI spans and at least
    # one flight-dump marker.
    local trace="$1/fault_storm_timeline.json"
    RIO_BENCH_QUICK=1 "$1/bench/bench_fault_storm" \
        --timeline "$trace" > /dev/null
    python3 - "$trace" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
phases = {}
for e in events:
    phases[e["ph"]] = phases.get(e["ph"], 0) + 1

# Paired async QI spans: every begin has an end with the same id.
begins = {(e["pid"], e["id"]) for e in events
          if e["ph"] == "b" and "id" in e}
ends = {(e["pid"], e["id"]) for e in events
        if e["ph"] == "e" and "id" in e}
assert begins, "no QI async spans recorded"
unmatched = begins - ends
assert not unmatched, f"unpaired QI spans: {sorted(unmatched)[:5]}"

dumps = [e for e in events if e.get("name") == "flight_dump"]
assert dumps, "no flight-recorder dump marker in the timeline"

print(f"timeline OK: {len(events)} events, phases {phases}, "
      f"{len(begins)} QI spans, {len(dumps)} flight dumps")
EOF

    # A hostile-wire cluster run must export stitched op spans: every
    # trace id opens with one post and closes with exactly one terminal
    # CQE, every wire/ingress child belongs to a known op, and at least
    # one go-back-N retransmit episode is visible.
    trace="$1/wire_storm_timeline.json"
    RIO_BENCH_QUICK=1 "$1/bench/bench_wire_storm" \
        --quick --loss 0.02 --timeline "$trace" \
        --timeline-cap 262144 > /dev/null 2>&1
    python3 - "$trace" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]

ops = [e for e in events if e.get("cat") == "op"]
assert ops, "no distributed op spans in the cluster trace"

def tid_of(e):
    return e["id2"]["global"]

posts = {}
cqes = {}
children = []
for e in ops:
    if e["name"] == "op":
        if e["ph"] == "b":
            posts[tid_of(e)] = posts.get(tid_of(e), 0) + 1
        elif e["ph"] == "e":
            cqes[tid_of(e)] = cqes.get(tid_of(e), 0) + 1
    else:
        children.append(e)

assert posts, "no op post spans"
dup_posts = {t: n for t, n in posts.items() if n != 1}
assert not dup_posts, f"trace ids reused across posts: {dup_posts}"
bad_cqes = {t: n for t, n in cqes.items() if n != 1}
assert not bad_cqes, f"ops without exactly one terminal CQE: {bad_cqes}"
orphan_cqes = set(cqes) - set(posts)
assert not orphan_cqes, f"CQE spans with no post: {sorted(orphan_cqes)[:5]}"

orphans = [e["name"] for e in children if tid_of(e) not in posts]
assert not orphans, f"orphan wire spans: {orphans[:5]}"
rtx = [e for e in children if e["name"] == "retransmit"]
assert rtx, "hostile wire produced no visible retransmit episode"

meta = trace.get("rioMeta", {})
assert meta.get("dropped", 1) == 0, \
    f"trace rings overflowed ({meta}); raise --timeline-cap"

print(f"cluster trace OK: {len(posts)} ops, {len(cqes)} CQEs, "
      f"{len(children)} child spans, {len(rtx)} retransmits, "
      f"rioMeta {meta}")
EOF

    # The simulated-performance ledgers: quick sweeps inside the bands
    # of BENCH_9.json, the migration sweep inside BENCH_10.json's.
    python3 scripts/bench_regress.py --build "$1" \
        --baseline BENCH_9.json --check
    python3 scripts/bench_regress.py --build "$1" \
        --suite migrate --baseline BENCH_10.json --check
}

extras_virt() {
    RIO_VIRT_EXTRA_SEEDS="9001,31337" \
        "$1/tests/fuzz_test" --gtest_filter='*VirtFuzz*'
    RIO_BENCH_QUICK=1 "$1/bench/bench_virt" > /dev/null
}

extras_cluster() {
    # Churn x incast x fault injection, each campaign run twice side
    # by side and compared field for field.
    RIO_CLUSTER_EXTRA_SEEDS="1299709,15485863,32452843" \
        "$1/tests/fuzz_test" --gtest_filter='*ClusterFuzz*'
    # Thousands of live rRING mappings, the fetch-model ablations and
    # the crossover assertion, with sanitizers watching.
    RIO_BENCH_QUICK=1 "$1/bench/bench_cluster_rdma" \
        --connections 1024 --quick > /dev/null
}

extras_wire() {
    RIO_WIRE_EXTRA_SEEDS="2147483647,998244353,613566757" \
        "$1/tests/fuzz_test" --gtest_filter='*WireFuzz*'
    # 3 losses x incast x 7 modes with the bench's own conservation and
    # protection asserts armed.
    "$1/bench/bench_wire_storm" --quick > /dev/null
}

extras_migrate() {
    # Platform x dirty x loss x stream-abort campaigns, each run twice
    # side by side (arena hashes and ledgers included).
    RIO_MIGRATE_EXTRA_SEEDS="424243,797003,1299709" \
        "$1/tests/fuzz_test" --gtest_filter='*MigrateFuzz*'
}

extras_fuzz() {
    RIO_FUZZ_EXTRA_SEEDS="11213,19937,2203,86243,216091" \
        RIO_CLUSTER_EXTRA_SEEDS="104651,611953" \
        RIO_IOVA_EXTRA_SEEDS="3571,52711,7368787" \
        RIO_ENGINE_EXTRA_SEEDS="17,257,8191,131071,524287,6700417" \
        "$1/tests/fuzz_test"
}

extras_lifecycle() {
    local seeds="401,1201,9001"
    RIO_CHURN_EXTRA_SEEDS="$seeds" \
        "$1/tests/fuzz_test" --gtest_filter='*LifecycleFuzz*'
    # Full-stack churn (quiesce, ITE time-out recovery, replug) under
    # several independent event schedules.
    for seed in ${seeds//,/ }; do
        RIO_BENCH_QUICK=1 "$1/bench/bench_lifecycle_churn" \
            --rate 0.5,2 --seed "$seed" > /dev/null
    done
}

# ---- Lane runner ------------------------------------------------------

[[ $# -gt 0 ]] || { echo "usage: $0 <lane>... | all" >&2; exit 2; }
selected=()
for lane in "$@"; do
    if [[ "$lane" == all ]]; then
        selected+=("${LANES[@]}")
    elif [[ -v "FLAVOUR[$lane]" ]]; then
        selected+=("$lane")
    else
        echo "$0: unknown lane '$lane' (lanes: ${LANES[*]} all)" >&2
        exit 2
    fi
done

for flavour in asan tsan release default; do
    lanes=()
    targets=()
    tests=()
    for lane in "${LANES[@]}"; do
        [[ " ${selected[*]} " == *" $lane "* &&
           "${FLAVOUR[$lane]}" == "$flavour" ]] || continue
        lanes+=("$lane")
        targets+=(${TARGETS[$lane]})
        tests+=("${TESTS[$lane]}")
    done
    [[ ${#lanes[@]} -gt 0 ]] || continue
    dir="${DIR[$flavour]}"
    echo "=== $flavour ($dir): ${lanes[*]}"

    cmake -B "$dir" -S . ${CONFIG[$flavour]}
    if [[ " ${targets[*]} " == *" all "* ]]; then
        cmake --build "$dir" -j "$(nproc)"
    else
        cmake --build "$dir" -j "$(nproc)" --target \
            $(printf '%s\n' "${targets[@]}" | sort -u)
    fi
    regex="$(IFS='|'; echo "${tests[*]}")"
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" \
        -R "^($regex)\$"

    for lane in "${lanes[@]}"; do
        "extras_$lane" "$dir"
        echo "--- $lane lane passed"
    done
done
echo "ci.sh: ${selected[*]} passed"
