#!/usr/bin/env bash
# Artifact round-trip check (tier-1 stage 7 and CI's build-and-test job).
#
# Runs the passivity guards with their artifacts kept — trace_passivity
# (one serve workload traced vs untraced), fleet_passivity (16
# fault-armed shards unarmed vs fully armed, sketch within alpha) and
# fleet_slo — plus serve_single_ocp with --trace and --trace-events, so
# the service's VCD writer runs too. Every service family shares one
# runner, so two more families check it: serve_faulty_hang saves an
# image with --snapshot and a second run warm-boots from it with
# --restore, and dpr_slots writes its traces and metrics. Then:
#   - every written trace, metrics file, flight dump and SLO report
#     round-trips through ouessant_trace;
#   - every written *.json file, and the output of ouessant_trace --json,
#     must be strict JSON (python3 -m json.tool), as Perfetto requires.
#
# Usage: scripts/check_artifacts.sh BUILD_DIR
#   Artifacts land in BUILD_DIR/artifacts/, which is emptied first.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:?usage: scripts/check_artifacts.sh BUILD_DIR}"
BENCH="$BUILD/bench/ouessant_bench"
TOOL="$BUILD/tools/ouessant_trace"
OUT="$BUILD/artifacts"
rm -rf "$OUT"
mkdir -p "$OUT"

# The guard scenarios fail the run on any divergence or budget overrun.
# The armed fleet's hung RAC makes every shard dump a flight trace.
"$BENCH" --filter trace_passivity,fleet_passivity,fleet_slo \
  --trace-events "$OUT/tier1"
"$BENCH" --filter serve_single_ocp --trace "$OUT/serve" \
  --trace-events "$OUT/serve" > /dev/null
"$BENCH" --filter serve_faulty_hang --snapshot "$OUT/faulty" \
  --trace-events "$OUT/faulty" > /dev/null
"$BENCH" --filter serve_faulty_hang \
  --restore "$OUT/faulty_serve_faulty_hang_0.snap" > /dev/null
"$BENCH" --filter dpr_slots --trace-events "$OUT/dpr" > /dev/null

TRACE="$OUT/tier1_trace_passivity_0.trace.json"
FLIGHT="$OUT/tier1_fleet_passivity_0_shard0.flight.json"
SERVE="$OUT/serve_serve_single_ocp_0"
"$TOOL" "$TRACE" --top 5 > /dev/null
"$TOOL" "$TRACE" --json --top 5 | python3 -m json.tool > /dev/null
"$TOOL" metrics "$TRACE.metrics.json" > /dev/null
"$TOOL" flight "$FLIGHT" --top 5 > /dev/null
"$TOOL" flight "$FLIGHT" --json --top 5 | python3 -m json.tool > /dev/null
"$TOOL" slo "$OUT/tier1_fleet_slo_0.slo.json" > /dev/null
"$TOOL" "$SERVE.trace.json" --json --top 5 | python3 -m json.tool > /dev/null
"$TOOL" metrics "$SERVE.trace.json.metrics.json" > /dev/null
grep -q '^\$enddefinitions \$end$' "$SERVE.vcd"
FAULTY="$OUT/faulty_serve_faulty_hang_0"
"$TOOL" "$FAULTY.trace.json" --json --top 5 | python3 -m json.tool > /dev/null
"$TOOL" metrics "$FAULTY.trace.json.metrics.json" > /dev/null
"$TOOL" "$OUT/dpr_dpr_slots_0.trace.json" --top 5 > /dev/null
"$TOOL" metrics "$OUT/dpr_dpr_slots_0.trace.json.metrics.json" > /dev/null

for f in "$OUT"/*.json; do
  if ! python3 -m json.tool "$f" > /dev/null; then
    echo "FAIL: $f is not strict JSON"
    exit 1
  fi
done
echo "artifact round-trips OK ($(ls "$OUT"/*.json | wc -l) JSON files)"
