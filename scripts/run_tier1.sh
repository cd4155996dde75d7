#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md). Every guard is a registered
# ouessant_bench scenario or a ctest assertion, except the host-speed
# floor against the committed BENCH_perf.json, so the stages below are
# builds, sweeps, artifact round-trips and that one floor:
#   1. plain build + full ctest (the serial sweep runs every scenario,
#      guards included, and checks the dispatcher goldens and the DPRF
#      claim that hysteresis beats static on dpr_adapt)
#   2. the docs gate (scripts/check_docs.sh): every src/ subdir is in
#      docs/architecture.md, every ouessant_bench flag is documented in
#      EXPERIMENTS.md, every path the docs reference exists
#   3. ASan+UBSan build + full ctest (catches the use-after-free and
#      out-of-bounds reads a plain build can pass by luck — a stale
#      component or port pointer, a decoder reading past its section;
#      the kernel itself refuses a mid-tick registry change in every
#      build; covers the snapshot, DPR and chain proofs of
#      test_snapshot, test_dpr and test_chain), with
#      _GLIBCXX_ASSERTIONS so every vector and span index is checked
#      (the SRAM's page segments, the words32 literal decode)
#   4. the on-disk snapshot flow on the sanitizer build: --snapshot a
#      serve_mixed image, then --restore a second run from it
#   5. TSan build running the full scenario sweep at --jobs $(nproc):
#      every (scenario, grid point) job executes on a worker thread, so
#      any mutable state shared between "isolated" simulations shows up
#      as a data race here (the no-mutable-statics rule of DESIGN.md);
#      the svc_soak guard's four 4-OCP service shards (10k closed-loop
#      jobs) run on those threads too, and any lost or rejected job
#      fails the sweep
#   6. scripts/check_artifacts.sh: the passivity guards with their
#      artifacts kept (trace_passivity, fleet_passivity, fleet_slo) plus
#      a serve_single_ocp run with --trace and --trace-events, a
#      serve_faulty_hang image saved and warm-booted, and dpr_slots'
#      traces and metrics; every
#      written trace, metrics file, flight dump and SLO report
#      round-trips through ouessant_trace, and every JSON artifact must
#      pass python3 -m json.tool
#   7. the host-speed benchmark: its self-test, then a 2-second run of
#      each workload (ocp_stream, serve_mix, fleet_fork), each checked
#      against perfbench/golden.txt; scripts/bench_guards.py floor then
#      holds every run's sim_cps to at least half the committed
#      BENCH_perf.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== tier-1: plain build + ctest ===="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==== tier-1: docs consistency gate ===="
scripts/check_docs.sh build/bench/ouessant_bench

echo "==== tier-1: ASan+UBSan build + ctest ===="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
cmake -B build-san -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
cmake --build build-san -j "$(nproc)"
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
cmake --build build-tsan -j "$(nproc)" --target ouessant_bench
./build-tsan/bench/ouessant_bench --jobs "$(nproc)" > /dev/null

echo "==== tier-1: passivity guards + artifact round-trips ===="
scripts/check_artifacts.sh build

echo "==== tier-1: host-speed benchmark gate and speed floor ===="
# The benchmark's own tests, then a short run of every workload. Each
# run checks its pinned smoke-round fingerprint in perfbench/golden.txt
# (cycles, Stats digest, outputs; serve_mix also snapshot bytes) and
# exits non-zero on a mismatch. The floor is loose enough for a 2 s run:
# sim_cps must reach half the committed 30 s record.
python3 perfbench/run.py --self-test
for workload in ocp_stream serve_mix fleet_fork; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 2 \
    --trace 0 > "build/perf_$workload.out"
done
python3 scripts/bench_guards.py floor BENCH_perf.json build/perf_*.out

echo "tier-1 OK"
