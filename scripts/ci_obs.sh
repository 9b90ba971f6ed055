#!/usr/bin/env bash
# Observability lane: build with the obs layer explicitly ON, prove
# the zero-cost invariant (golden benches byte-identical with full
# instrumentation), and validate the Chrome-trace export end to end:
# a fault-storm run must produce parseable trace_event JSON with
# paired QI async spans and at least one flight-recorder dump marker.
#
# Run from the repo root:
#
#   scripts/ci_obs.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-obs}"

cmake -B "$BUILD_DIR" -S . -DRIO_OBS=ON -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

# The obs-specific suites plus the zero-cost goldens (golden_selfperf
# carries the instrumented bench_fig7 vs. fig7 golden check).
ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'obs_test|golden_obs|golden_selfperf|golden_scaling|golden_lifecycle'

# End-to-end timeline export: the fault storm exercises QI spans, DMA
# fault recovery and the flight recorder in one run.
TRACE="$BUILD_DIR/fault_storm_timeline.json"
RIO_BENCH_QUICK=1 "$BUILD_DIR/bench/bench_fault_storm" \
    --timeline "$TRACE" > /dev/null

python3 - "$TRACE" <<'EOF'
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

# Distributed-trace validation: a hostile-wire cluster run must export
# stitched op spans — every trace id opens with op posts and closes
# with exactly one terminal CQE, every wire/ingress child belongs to a
# known op, and at least one go-back-N retransmit episode is visible.
TRACE2="$BUILD_DIR/wire_storm_timeline.json"
RIO_BENCH_QUICK=1 "$BUILD_DIR/bench/bench_wire_storm" \
    --quick --loss 0.02 --timeline "$TRACE2" \
    --timeline-cap 262144 > /dev/null 2>&1

python3 - "$TRACE2" <<'EOF'
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

# Perf-regression ledger: the quick deterministic sweeps must stay
# inside the tolerance bands of the checked-in BENCH_9.json, and the
# live-migration sweep (blackout, pages shipped, state freight, live
# rings) inside those of BENCH_10.json.
python3 scripts/bench_regress.py --build "$BUILD_DIR" \
    --baseline BENCH_9.json --check
python3 scripts/bench_regress.py --build "$BUILD_DIR" \
    --suite migrate --baseline BENCH_10.json --check

echo "observability lane passed"
