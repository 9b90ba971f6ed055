#!/usr/bin/env bash
# Strict bench command lines: a malformed count (non-numeric, zero,
# empty, missing, or an empty --cores list entry) must be rejected
# with a usage line on stderr and exit status 2 before any simulation
# runs — never silently coerced to a default.
#
# Usage: bench_args.sh <bench_scaling_cores-binary>
set -uo pipefail

bench="$1"
err="$(mktemp)"
trap 'rm -f "$err"' EXIT
failed=0

expect_usage_error() {
    RIO_BENCH_QUICK=1 "$bench" "$@" > /dev/null 2> "$err"
    local rc=$?
    if [[ $rc -ne 2 ]] || ! grep -q '^usage: ' "$err"; then
        echo "bench_args: '$*' exited $rc, expected 2 with a usage line" >&2
        cat "$err" >&2
        failed=1
    fi
}

expect_usage_error --cores 1x
expect_usage_error --cores 1,,2
expect_usage_error --cores 1,
expect_usage_error --cores ''
expect_usage_error --cores 0
expect_usage_error --cores
expect_usage_error --threads x
expect_usage_error --threads 0
expect_usage_error --threads ''
expect_usage_error --threads 4x
expect_usage_error --threads
expect_usage_error --timeline-cap -1

[[ $failed -eq 0 ]] && echo "bench_args: malformed inputs rejected"
exit $failed
