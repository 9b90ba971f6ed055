#!/usr/bin/env bash
# Observability zero-cost regression for the distributed tracing
# stack: bench_cluster_rdma with FULL tracing on (--timeline + --slo,
# every op allocating a trace id, every hot path emitting span events,
# every CQE recording an exact SLO sample) must still match the
# cluster golden byte for byte. Instrumentation charges no simulated
# cycles and draws no RNG; trace-id allocation and span emission ride
# the deterministic replay without touching it, so any diff here means
# an instrumentation point leaked into the simulation. (The same
# property for bench_fig7 with the metrics registry and flight
# recorder live is golden_selfperf's first check.)
#
# Usage: golden_obs.sh <bench_cluster_rdma> <cluster_golden.json>
set -euo pipefail

cluster_bench="$1"
cluster_golden="$2"
out="$(mktemp)"
trace="$(mktemp)"
trap 'rm -f "$out" "$trace"' EXIT

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$cluster_bench" --connections 64 --quick --threads 1 \
    --json "$out" --timeline "$trace" --slo > /dev/null
if ! diff -u "$cluster_golden" "$out"; then
    echo "golden_obs: cluster bench with full tracing diverged" \
         "from $cluster_golden" >&2
    exit 1
fi
# The trace must actually contain stitched op spans — a silently
# empty export would make the zero-cost check vacuous.
if ! grep -q '"cat": "op"' "$trace"; then
    echo "golden_obs: exported trace has no op spans" >&2
    exit 1
fi
echo "golden_obs: cluster run with tracing matches $cluster_golden"
