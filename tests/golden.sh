#!/usr/bin/env bash
# Golden-output harness: run one bench under RIO_BENCH_QUICK=1
# RIO_JSON_STABLE=1, filter its --json output, and diff it against a
# reference. The simulation is a deterministic replay, so any diff is
# a real behaviour change: a stray RNG draw, a reordered event, a
# charge leaking out of a subsystem that should be inert. The table of
# checks, each with its reason, is tests/CMakeLists.txt.
#
#   golden.sh [--trace-has <pattern>] <filters> <reference> <bench> [args...]
#
#   filters    "none", or a comma list applied to both sides:
#                name     blank the bench name (cross-bench compares)
#                threads  blank the threads field (it records --threads)
#                base     keep only the 64-QP base rows (the cluster
#                         compat rows other fabric benches re-emit)
#   reference  a checked-in JSON, or "t1": the same command with its
#              --threads value replaced by 1; a t1 row also diffs the
#              two runs' stderr (flight-recorder dumps)
#   --trace-has  also record a --timeline trace and require <pattern>
#              in it, so a zero-cost check on tracing is not vacuous;
#              a t1 row records both runs and diffs the two traces
#
# Exit status: 0 equal, 1 diverged, 2 bad usage. An intended model
# change regenerates a golden by rerunning its row's command with
# --json tests/golden/<file> under the same two variables.
set -euo pipefail

usage() {
    echo "golden.sh: $1" >&2
    echo "usage: golden.sh [--trace-has pattern] <filters> <reference>" \
         "<bench> [args...]" >&2
    exit 2
}

trace_pattern=""
if [[ "${1:-}" == --trace-has ]]; then
    [[ $# -ge 2 ]] || usage "--trace-has takes a pattern"
    trace_pattern="$2"
    shift 2
fi
[[ $# -ge 3 ]] || usage "missing arguments"
filters="$1"
reference="$2"
shift 2
cmd=("$@")

sed_args=(-e '')
base_rows=false
IFS=, read -ra names <<< "$filters"
for f in "${names[@]}"; do
    case "$f" in
        none) ;;
        name) sed_args+=(-e 's/"bench": "[^"]*"/"bench": ""/') ;;
        threads) sed_args+=(-e 's/"threads": [0-9]*/"threads": 0/') ;;
        base) base_rows=true ;;
        *) usage "unknown filter '$f'" ;;
    esac
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run <json-out> <command...>: stderr goes to <json-out>.err, and is
# shown if the bench fails.
run() {
    local out="$1"
    shift
    RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 "$@" --json "$out" \
        > /dev/null 2> "$out.err" || { cat "$out.err" >&2; return 1; }
}

# same <what> <want> <got>: diff two artifacts of the t1 pair.
same() {
    if ! diff -u "$2" "$3" > "$tmp/diff"; then
        head -n 40 "$tmp/diff"
        echo "golden.sh: '${cmd[*]}' $1 diverged from $reference_label" >&2
        exit 1
    fi
}

# filter <json> <filtered-out>
filter() {
    if $base_rows; then
        grep -o '{"mode": "[^"]*", "variant": "base", "connections": 64[^}]*}' \
            "$1" > "$2" || true
    else
        cp "$1" "$2"
    fi
    sed -i "${sed_args[@]}" "$2"
}

if [[ "$reference" == t1 ]]; then
    ref_cmd=()
    for ((i = 0; i < ${#cmd[@]}; i++)); do
        ref_cmd+=("${cmd[i]}")
        if [[ "${cmd[i]}" == --threads && $((i + 1)) -lt ${#cmd[@]} ]]; then
            ref_cmd+=(1)
            i=$((i + 1))
        fi
    done
    [[ "${ref_cmd[*]}" != "${cmd[*]}" ]] ||
        usage "a t1 reference needs a --threads N other than 1"
    [[ -z "$trace_pattern" ]] ||
        ref_cmd+=(--timeline "$tmp/reference_trace.json")
    run "$tmp/reference.json" "${ref_cmd[@]}"
    reference_label="the same command at --threads 1"
else
    [[ -f "$reference" ]] || usage "no reference file '$reference'"
    cp "$reference" "$tmp/reference.json"
    reference_label="$reference"
fi

trace_args=()
[[ -z "$trace_pattern" ]] || trace_args=(--timeline "$tmp/trace.json")
run "$tmp/out.json" "${cmd[@]}" "${trace_args[@]}"

filter "$tmp/reference.json" "$tmp/want"
filter "$tmp/out.json" "$tmp/got"
[[ -s "$tmp/want" ]] || usage "filters '$filters' left nothing to compare"
if ! diff -u "$tmp/want" "$tmp/got"; then
    echo "golden.sh: '${cmd[*]}' diverged from $reference_label" >&2
    exit 1
fi
if [[ "$reference" == t1 ]]; then
    same stderr "$tmp/reference.json.err" "$tmp/out.json.err"
    [[ -z "$trace_pattern" ]] ||
        same --timeline "$tmp/reference_trace.json" "$tmp/trace.json"
fi
if [[ -n "$trace_pattern" ]] && ! grep -q "$trace_pattern" "$tmp/trace.json"; then
    echo "golden.sh: '${cmd[*]}' trace has no '$trace_pattern'" >&2
    exit 1
fi
echo "golden.sh: '${cmd[0]##*/} ${cmd[*]:1}' matches $reference_label"
