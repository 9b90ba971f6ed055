#!/usr/bin/env bash
# Tier-1 test suite under AddressSanitizer + UBSan, then the threaded
# suites under ThreadSanitizer (both via the RIO_SANITIZE CMake
# option). Run from the repo root:
#
#   scripts/ci_sanitize.sh [build-dir] [tsan-build-dir]
#
# Benches are built too but not run (they are deterministic replays of
# the same code paths the tests cover; full runs under ASan are slow).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DRIO_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# abort_on_error makes ASan failures fail ctest rather than just log.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Second pass over the randomized suites with extra seeds that only
# this lane runs: the fault-injection campaign stresses the recovery
# paths (PTE save/restore, log drain, latch clear) where ASan/UBSan
# have the most to find.
export RIO_FUZZ_EXTRA_SEEDS="7001,7919,104729"
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='*FaultFuzz*:*IommuFuzz*:*RiommuFuzz*'
"$BUILD_DIR/tests/fault_test"

# Lifecycle churn under the sanitizers: surprise unplug/replug walks
# teardown and recovery paths (orphaned-mapping unmap, ITE time-out
# spin, head-skip) where use-after-free bugs would hide.
export RIO_CHURN_EXTRA_SEEDS="5501,7703"
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='*LifecycleFuzz*'
"$BUILD_DIR/tests/lifecycle_test"

# Guest fuzz under the sanitizers: the vIOMMU trap bindings and the
# stage-2 fill path see bursts, direct maps and surprise unplug across
# all three strategies with seeds only this lane runs.
export RIO_VIRT_EXTRA_SEEDS="6007,28657"
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='*VirtFuzz*'
"$BUILD_DIR/tests/virt_test"
"$BUILD_DIR/tests/magazine_churn_test"

# ---- ThreadSanitizer lane (RIO_SANITIZE=thread) --------------------
# Everything that actually runs worker threads: the parallel engine's
# determinism suite, the obs layer's concurrent-update test (atomic
# counters/gauges, spin-locked histograms, locked registry), and a
# real threaded sweep via bench_selfperf — four lanes on four workers,
# each updating the shared IOTLB, page-walk and DMA-latency metrics
# directly on every op.
cmake -B "$TSAN_DIR" -S . -DRIO_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)" -- \
    parallel_test obs_test des_test spinlock_test magazine_churn_test \
    bench_selfperf bench_scaling_cores fuzz_test bench_cluster_rdma \
    bench_tail_latency

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
"$TSAN_DIR/tests/parallel_test"
"$TSAN_DIR/tests/obs_test"
"$TSAN_DIR/tests/des_test"
"$TSAN_DIR/tests/spinlock_test"
"$TSAN_DIR/tests/magazine_churn_test"
RIO_BENCH_QUICK=1 "$TSAN_DIR/bench/bench_selfperf" --threads 4 --quick
# K-core flows on engine lanes: the scaling sweep's (mode, cores)
# lanes on four workers, each lane's flows contending on its own
# machine's locks.
RIO_BENCH_QUICK=1 "$TSAN_DIR/bench/bench_scaling_cores" \
    --cores 1,2 --threads 4 > /dev/null
# Cluster fabric across real worker threads: the ClusterFuzz campaign
# (each seed replayed on 1 and 3 workers) and a threaded fabric sweep
# — cross-lane mail hand-off and the barrier drain are the only
# inter-thread channels, and TSan holds them to that.
"$TSAN_DIR/tests/fuzz_test" --gtest_filter='*ClusterFuzz*'
RIO_BENCH_QUICK=1 "$TSAN_DIR/bench/bench_cluster_rdma" \
    --connections 64 --quick --threads 4 > /dev/null
# Exact SLO recording + trace-context propagation across worker
# threads: per-lane recorders and the TLS trace slot are the new
# cross-thread surfaces this PR adds.
RIO_BENCH_QUICK=1 "$TSAN_DIR/bench/bench_tail_latency" \
    --quick --slo --threads 4 > /dev/null 2>&1
unset TSAN_OPTIONS

# The lane scripts below each take [build-dir] and, run on their own,
# configure a tree of their own. Here they share this run's trees: the
# ASan lanes reuse $BUILD_DIR (same flags), and the two Release lanes
# share one Release tree.
RELEASE_DIR=build-release

# Observability lane: zero-cost goldens + timeline export validation.
scripts/ci_obs.sh "$RELEASE_DIR"

# Virtualization lane: virt suites, bare-platform no-op golden, guest
# fuzz soak and the full platform sweep (Release).
scripts/ci_virt.sh "$RELEASE_DIR"

# Cluster/RDMA lane: fabric lifecycle suites, ClusterFuzz soak, the
# thread-invariance golden and a 1K-QP erosion sweep, all under ASan.
scripts/ci_cluster.sh "$BUILD_DIR"

# Hostile-wire lane: lossy/congested fabric with the reliability
# layer on — WireFuzz soak, the golden_wire inertness gate and the
# full storm sweep, all under ASan.
scripts/ci_wire.sh "$BUILD_DIR"

# Live-migration lane: pre-copy over the hostile wire, blackout
# teardown, per-platform state replay — migration suite, MigrateFuzz
# soak and the golden_migrate gate, all under ASan.
scripts/ci_migrate.sh "$BUILD_DIR"

echo "sanitized tier-1 suite passed"
