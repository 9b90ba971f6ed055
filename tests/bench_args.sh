#!/usr/bin/env bash
# Strict bench command lines: an unknown flag or stray argument, a
# malformed number (non-numeric, out of range, below the bench's
# minimum, empty, missing, or an empty list entry), an unknown
# --platform or a missing --json/--timeline path must be rejected with
# a usage line on stderr and exit status 2 before any simulation runs —
# never silently coerced, clamped or defaulted into a different
# experiment. An accepted bad value would start a simulation, so each
# case gets a short time limit.
#
# Usage: bench_args.sh <bench-binary-directory>
set -uo pipefail

dir="$1"
err="$(mktemp)"
trap 'rm -f "$err"' EXIT
failed=0

expect_usage_error() {
    local bench="$1"
    shift
    RIO_BENCH_QUICK=1 timeout 30 "$dir/$bench" "$@" > /dev/null 2> "$err"
    local rc=$?
    if [[ $rc -ne 2 ]] || ! grep -q '^usage: ' "$err"; then
        echo "bench_args: '$bench $*' exited $rc, expected 2 with a" \
             "usage line" >&2
        cat "$err" >&2
        failed=1
    fi
}

# Uniform flags (bench_common.h), exercised on bench_scaling_cores.
expect_usage_error bench_scaling_cores --cores 1x
expect_usage_error bench_scaling_cores --cores 1,,2
expect_usage_error bench_scaling_cores --cores 1,
expect_usage_error bench_scaling_cores --cores ''
expect_usage_error bench_scaling_cores --cores 0
expect_usage_error bench_scaling_cores --cores
expect_usage_error bench_scaling_cores --threads x
expect_usage_error bench_scaling_cores --threads 0
expect_usage_error bench_scaling_cores --threads ''
expect_usage_error bench_scaling_cores --threads 4x
expect_usage_error bench_scaling_cores --threads
expect_usage_error bench_scaling_cores --timeline-cap -1
# Output paths: a missing path, or a flag where the path should be.
for flag in --json --timeline; do
    expect_usage_error bench_scaling_cores "$flag"
    expect_usage_error bench_scaling_cores "$flag" --threads 4
done

# Unknown arguments: a misspelt flag must not quietly run the default
# experiment (fig7 at one thread would still match its golden).
expect_usage_error bench_fig7_cycles_per_packet --thread 4
expect_usage_error bench_fig7_cycles_per_packet 4
expect_usage_error bench_virt --platfrom bare
# bench_virt's platform: a missing or unknown name is not "all".
expect_usage_error bench_virt --platform
expect_usage_error bench_virt --platform nope

# --loss is a drop rate in [0, 1); 0 selects the golden compat rows,
# so a typo must not quietly become 0.
for bench in bench_wire_storm bench_migration; do
    expect_usage_error "$bench" --quick --loss abc
    expect_usage_error "$bench" --quick --loss O
    expect_usage_error "$bench" --quick --loss 5
    expect_usage_error "$bench" --quick --loss 1
    expect_usage_error "$bench" --quick --loss -0.1
    expect_usage_error "$bench" --quick --loss 0.02x
    expect_usage_error "$bench" --quick --loss ''
    expect_usage_error "$bench" --quick --loss
done

# Machine, connection and page counts: below the minimum is an error.
for bench in bench_wire_storm bench_tail_latency bench_cluster_rdma; do
    expect_usage_error "$bench" --quick --machines 1
    expect_usage_error "$bench" --quick --machines 3x
    expect_usage_error "$bench" --quick --machines
done
expect_usage_error bench_cluster_rdma --quick --connections 1
expect_usage_error bench_cluster_rdma --quick --connections 64k
expect_usage_error bench_migration --quick --pages 63
expect_usage_error bench_migration --quick --pages 4096x

# Churn sweep: rates are non-negative decimals, seed/down unsigned.
expect_usage_error bench_lifecycle_churn --rate 0,,2
expect_usage_error bench_lifecycle_churn --rate 0.5,
expect_usage_error bench_lifecycle_churn --rate 0.5x
expect_usage_error bench_lifecycle_churn --rate -1
expect_usage_error bench_lifecycle_churn --rate ''
expect_usage_error bench_lifecycle_churn --seed 1x
expect_usage_error bench_lifecycle_churn --seed -1
expect_usage_error bench_lifecycle_churn --down 20us
expect_usage_error bench_lifecycle_churn --down

[[ $failed -eq 0 ]] && echo "bench_args: malformed inputs rejected"
exit $failed
