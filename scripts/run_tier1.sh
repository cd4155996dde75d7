#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md). Every guard is a registered
# ouessant_bench scenario or a ctest assertion, so the stages below are
# builds, sweeps and artifact round-trips:
#   1. plain build + full ctest (the serial sweep runs every scenario,
#      guards included, and checks the dispatcher goldens and the DPRF
#      claim that hysteresis beats static on dpr_adapt)
#   2. the docs gate (scripts/check_docs.sh): every src/ subdir is in
#      docs/architecture.md, every ouessant_bench flag is documented in
#      EXPERIMENTS.md, every path the docs reference exists
#   3. ASan+UBSan build + full ctest (catches the iterator-invalidation
#      class of kernel bugs — e.g. mid-tick component removal — that a
#      plain build can pass by luck; covers the snapshot, DPR and chain
#      proofs of test_snapshot, test_dpr and test_chain)
#   4. the on-disk snapshot flow on the sanitizer build: --snapshot a
#      serve_mixed image, then --restore a second run from it
#   5. TSan build running the full scenario sweep at --jobs $(nproc):
#      every (scenario, grid point) job executes on a worker thread, so
#      any mutable state shared between "isolated" simulations shows up
#      as a data race here (the no-mutable-statics rule of DESIGN.md)
#   6. the TSan svc soak (10k-job closed loop, 4 OCPs per shard)
#   7. the kernel throughput guard scenario, which checks the gated and
#      ungated scheduler agree on the simulated clock and records
#      cycles/sec into BENCH_kernel.json
#   8. the raw-speed guard: the sim_speed scenario (batched bus windows +
#      decode cache on vs off), then scripts/bench_guards.py speed holds
#      its opt_cps to at least half the committed BENCH_speed.json
#   9. the passivity guards with their artifacts kept: trace_passivity
#      (one serve workload traced vs untraced), fleet_passivity (16
#      fault-armed shards unarmed vs fully armed, sketch within alpha)
#      and fleet_slo, then every written trace, metrics file, flight
#      dump and SLO report round-trips through ouessant_trace
#  10. the host-speed benchmark's correctness gate: its self-test, then
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

echo "==== tier-1: snapshot round trip through disk (ASan+UBSan) ===="
# The mid-run restore bit-identity proofs ran in the ASan ctest above;
# this is the on-disk flow end to end: save a serve_mixed image with
# --snapshot, warm-boot a second run from it with --restore.
./build-san/bench/ouessant_bench --filter serve_mixed \
  --snapshot build-san/bench/tier1 > /dev/null
./build-san/bench/ouessant_bench --filter serve_mixed \
  --restore build-san/bench/tier1_serve_mixed_0.snap > /dev/null
echo "snapshot round trip OK"

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
# cycles/sec; the guard fails when a workload falls below half the
# committed baseline (the fast paths stopped engaging).
./build/bench/ouessant_bench --filter sim_speed \
  --json build/bench/BENCH_speed.json
python3 scripts/bench_guards.py speed BENCH_speed.json \
  build/bench/BENCH_speed.json

echo "==== tier-1: passivity guards + ouessant_trace round-trips ===="
# The guard scenarios fail the run on any divergence or budget overrun;
# --trace-events keeps what they wrote. The armed fleet's hung RAC makes
# every shard dump a flight trace; shard 0's must parse back, as must
# the traced serve run's trace and metrics and fleet_slo's SLO report.
./build/bench/ouessant_bench \
  --filter trace_passivity,fleet_passivity,fleet_slo \
  --trace-events build/bench/tier1
TRACE=build/bench/tier1_trace_passivity_0.trace.json
./build/tools/ouessant_trace "$TRACE" --top 5 > /dev/null
./build/tools/ouessant_trace "$TRACE" --json --top 5 > /dev/null
./build/tools/ouessant_trace metrics "$TRACE.metrics.json" > /dev/null
./build/tools/ouessant_trace flight \
  build/bench/tier1_fleet_passivity_0_shard0.flight.json --top 5 > /dev/null
./build/tools/ouessant_trace slo build/bench/tier1_fleet_slo_0.slo.json \
  > /dev/null
echo "ouessant_trace round-trips OK"

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
