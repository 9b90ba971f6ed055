#!/usr/bin/env bash
# Golden-output regression for the core-scaling bench: rerun
# bench_scaling_cores at 1 and 2 cores and require its --json output
# to match the checked-in golden byte for byte. The simulation is a
# deterministic discrete-event replay, so any diff is a real behavior
# change — if it is intentional, regenerate with
#
#   RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 bench_scaling_cores --cores 1,2 \
#       --json tests/golden/scaling_cores_1_2.json
#
# The sweep runs one engine lane per (mode, cores) point, so it must
# also be byte-identical at --threads 4 (modulo the threads field).
#
# Usage: golden_scaling.sh <bench_scaling_cores-binary> <golden.json>
set -euo pipefail

bench="$1"
golden="$2"
t1="$(mktemp)"
t4="$(mktemp)"
trap 'rm -f "$t1" "$t4"' EXIT

# The golden was produced under RIO_BENCH_QUICK; pin it so the test is
# fast and insensitive to the caller's environment.
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --cores 1,2 --threads 1 --json "$t1" > /dev/null
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --cores 1,2 --threads 4 --json "$t4" > /dev/null

# The threads meta field legitimately records the flag; rows must not.
strip_meta() {
    sed -e 's/"threads": [0-9]*/"threads": 0/' "$1"
}

if ! diff -u "$golden" "$t1"; then
    echo "golden_scaling: bench output diverged from $golden" >&2
    exit 1
fi
if ! diff -u <(strip_meta "$t1") <(strip_meta "$t4"); then
    echo "golden_scaling: --threads 4 diverged from --threads 1" >&2
    exit 1
fi
echo "golden_scaling: output matches $golden at --threads 1 and 4"
