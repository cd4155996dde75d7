#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md):
#   1. plain build + full ctest
#   2. ASan+UBSan build + full ctest (catches the iterator-invalidation
#      class of kernel bugs — e.g. mid-tick component removal — that a
#      plain build can pass by luck)
#   3. TSan build running the full scenario sweep at --jobs $(nproc):
#      every (scenario, grid point) job executes on a worker thread, so
#      any mutable state shared between "isolated" simulations shows up
#      as a data race here (the no-mutable-statics rule of DESIGN.md).
#   4. the kernel throughput guard scenario, which checks the gated and
#      ungated scheduler agree on the simulated clock and records
#      cycles/sec into BENCH_kernel.json
#   5. the trace-overhead guard: one serve workload traced and untraced
#      must be bit-identical (sim clock + Stats::all() + latency
#      histograms) with traced host time within 2x untraced, and the
#      written trace must round-trip through the ouessant_trace CLI
#   6. the docs gate (scripts/check_docs.sh): every src/ subdir is in
#      docs/architecture.md, every ouessant_bench flag is documented in
#      EXPERIMENTS.md, every path the docs reference exists
#   7. the raw-speed guard: the sim_speed scenario (batched bus windows +
#      decode cache on vs off) must stay within 2x of the committed
#      BENCH_speed.json cycles/sec baseline
#   8. the snapshot-determinism stage: the mid-run restore bit-identity
#      proofs (E1, serve, fault-armed, every worker kind) re-run on the
#      sanitizer build, then the bench-level --snapshot/--restore flow
#      round-trips a serve_mixed image through disk
#   9. the slot-farm stage: test_dpr on the sanitizer build (exact ICAP
#      cycle accounting, preemptive swaps, cache LRU), then the DPRF
#      scenarios with a guard (scripts/bench_guards.py dpr) that the
#      demand-driven swap scheduler beats static slot assignment on the
#      shifted demand mix
#  10. the chain stage: test_chain on the sanitizer build (CHAIN CSR
#      semantics, ChainLink timing, linked vs store-and-forward
#      bit-identity, the mid-batch snapshot round trip), then the CHAIN
#      scenarios with a guard (scripts/bench_guards.py chain) that the
#      p2p linked mode beats the store-and-forward ablation on cycles
#      and bus beats
#  11. the fleet-observability stage: a 16-shard fault-armed fleet run
#      twice, unarmed vs fully armed (sampling profiler + quantile
#      sketches + SLO monitors + flight recorders) — every shard must be
#      bit-identical and the armed run within 1.5x unarmed host time;
#      then a python guard re-checks the sketch quantiles against the
#      exact histogram within the documented relative-error bound, and
#      an auto-dumped flight trace must round-trip through
#      `ouessant_trace flight`
#  12. the host-speed benchmark's correctness gate: its self-test, then
#      a 2-second run of each workload (ocp_stream, serve_mix,
#      fleet_fork), each checked against perfbench/golden.txt
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== tier-1: plain build + ctest ===="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==== tier-1: docs consistency gate ===="
scripts/check_docs.sh build/bench/ouessant_bench

echo "==== tier-1: ASan+UBSan build + ctest ===="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake -B build-san -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
cmake --build build-san -j
ctest --test-dir build-san --output-on-failure -j "$(nproc)"

echo "==== tier-1: snapshot determinism (ASan+UBSan) ===="
# Snapshot at cycle C, restore into a fresh stack, run to the end: the
# bit-identity proofs of tests/test_snapshot.cpp, on the build where a
# stale pointer or type-punned read in a restore path would be fatal.
./build-san/tests/test_snapshot --gtest_filter='MidRun.*:Fleet.*'
# And the on-disk flow end to end: save a serve_mixed image with
# --snapshot, warm-boot a second run from it with --restore.
./build-san/bench/ouessant_bench --filter serve_mixed \
  --snapshot build-san/bench/tier1 > /dev/null
./build-san/bench/ouessant_bench --filter serve_mixed \
  --restore build-san/bench/tier1_serve_mixed_0.snap > /dev/null
echo "snapshot determinism OK"

echo "==== tier-1: reconfigurable slot farm (DPRF) ===="
# The exact ICAP-timing and swap-scheduler proofs on the sanitizer build
# (a use-after-free during a preemptive swap would be fatal here), then
# the subsystem's headline claim on the plain build: under the shifted
# demand mix the demand-driven scheduler must beat static residency.
# The committed BENCH_dpr.json is refreshed by scripts/run_experiments.sh.
./build-san/tests/test_dpr
./build/bench/ouessant_bench --filter DPRF \
  --json build/bench/BENCH_dpr.json > /dev/null
python3 scripts/bench_guards.py dpr build/bench/BENCH_dpr.json

echo "==== tier-1: accelerator chaining (CHAIN) ===="
# The conduit-timing and session-protocol proofs on the sanitizer build
# (a dangling FIFO binding or a mis-restored staging register would be
# fatal here), then the subsystem's headline claim on the plain build:
# the p2p linked mode must beat the store-and-forward ablation on both
# cycles and bus beats at equal payload. The committed BENCH_chain.json
# is refreshed by scripts/run_experiments.sh.
./build-san/tests/test_chain
./build/bench/ouessant_bench --filter CHAIN \
  --json build/bench/BENCH_chain.json > /dev/null
python3 scripts/bench_guards.py chain build/bench/BENCH_chain.json

echo "==== tier-1: TSan parallel sweep ===="
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}"
cmake --build build-tsan -j --target ouessant_bench
./build-tsan/bench/ouessant_bench --jobs "$(nproc)" > /dev/null

echo "==== tier-1: TSan svc soak (10k-job closed loop, 4 OCPs/shard) ===="
# One OffloadService per worker thread: races between supposedly
# isolated service instances (shared mutable statics anywhere under
# src/svc/) surface here, and any lost/rejected job fails the run.
cmake --build build-tsan -j --target svc_soak
./build-tsan/bench/svc_soak --jobs "$(nproc)" --total 10000

echo "==== tier-1: kernel throughput guard ===="
./build/bench/ouessant_bench --filter kernel_gating \
  --json build/bench/BENCH_kernel.json
echo "guard record:"
cat build/bench/BENCH_kernel.json

echo "==== tier-1: raw simulator speed guard ===="
# The sim_speed scenario re-proves the batched-bus + decode-cache
# optimizations are invisible to the simulated clock, then measures host
# cycles/sec. Compare against the committed baseline: a host can easily
# be 2x slower than the one that recorded BENCH_speed.json, but a
# per-workload opt_cps below half the recorded value on top of that
# means the fast paths stopped engaging — fail loudly.
./build/bench/ouessant_bench --filter sim_speed \
  --json build/bench/BENCH_speed.json
python3 - BENCH_speed.json build/bench/BENCH_speed.json <<'EOF'
import json, sys
def cps(path):
    doc = json.load(open(path))
    return {r["params"]["workload"]: r["metrics"]["opt_cps"]
            for r in doc["results"]}
base, now = cps(sys.argv[1]), cps(sys.argv[2])
bad = [w for w, v in base.items() if now.get(w, 0.0) < v / 2.0]
for w in sorted(base):
    print(f"  {w:12s} baseline {base[w]:12.0f} cps | now "
          f"{now.get(w, 0.0):12.0f} cps")
if bad:
    sys.exit(f"speed guard: opt_cps regressed >2x on {', '.join(bad)}")
print("speed guard OK")
EOF

echo "==== tier-1: trace-overhead guard + ouessant_trace round-trip ===="
cmake --build build -j --target trace_guard ouessant_trace
./build/bench/trace_guard build/bench/trace_guard.trace.json
./build/tools/ouessant_trace build/bench/trace_guard.trace.json --top 5 \
  > /dev/null
./build/tools/ouessant_trace build/bench/trace_guard.trace.json --json \
  --top 5 > /dev/null
./build/tools/ouessant_trace metrics \
  build/bench/trace_guard.trace.json.metrics.json > /dev/null
echo "trace round-trip OK"

echo "==== tier-1: fleet observability guard ===="
# Armed-vs-unarmed bit-identity on a 16-shard fault-armed fleet, the
# 1.5x host budget, and the sketch-vs-exact quantile table (checked
# below against the documented bound). The armed fleet's hung RAC makes
# every shard dump a flight trace; shard 0's must parse back through
# the flight subcommand.
cmake --build build -j --target fleet_obs_guard
./build/bench/fleet_obs_guard build/bench/fleet_obs_guard.json \
  build/bench/fleet_obs_guard
python3 - build/bench/fleet_obs_guard.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
alpha = doc["alpha"]
bad = []
for q in doc["quantiles"]:
    # DDSketch guarantee: |sketch - exact| <= alpha * exact, plus one
    # cycle of integer-rounding slack.
    err = abs(q["sketch"] - q["exact"])
    bound = alpha * q["exact"] + 1.0
    print(f"  p{q['p']:<5} sketch {q['sketch']:8d} exact {q['exact']:8d} "
          f"|err| {err:.0f} (bound {bound:.1f})")
    if err > bound:
        bad.append(q["p"])
if bad:
    sys.exit(f"sketch guard: quantiles {bad} outside the alpha={alpha} bound")
print(f"sketch guard OK ({doc['count']} samples within alpha={alpha})")
EOF
./build/tools/ouessant_trace flight \
  build/bench/fleet_obs_guard_shard0.flight.json --top 5 > /dev/null
./build/tools/ouessant_trace slo build/bench/fleet_slo.slo.json \
  > /dev/null 2>&1 || true  # rendered when the FLEET sweep has run
echo "fleet observability guard OK"

echo "==== tier-1: host-speed benchmark correctness gate ===="
# The benchmark's own tests, then a short run of every workload. Each
# run checks its pinned smoke-round fingerprint in perfbench/golden.txt
# (cycles, Stats digest, outputs; serve_mix also snapshot bytes) and
# exits non-zero on a mismatch. Host times of a 2 s run mean nothing.
python3 perfbench/run.py --self-test
for workload in ocp_stream serve_mix fleet_fork; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 2 \
    --trace 0 > /dev/null
done
echo "benchmark correctness gate OK"

echo "tier-1 OK"
