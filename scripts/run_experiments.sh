#!/usr/bin/env bash
# Regenerate every experiment in EXPERIMENTS.md: build, test, then sweep
# the whole scenario registry through ouessant_bench. The sweep runs
# twice (--compare-jobs): once serially and once on a worker pool sized
# to the host, verifying the two produce bit-identical payloads and
# recording both wall clocks into BENCH_sweep.json. Every family's rows
# (serve_*, dpr_*, chain_*, fleet_*) live there; `ouessant_bench
# --filter DPRF` (or SVC, CHAIN, FLEET) prints one family's table again.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

mkdir -p build/experiment-logs
# At least 4 workers even on small hosts so BENCH_sweep.json always
# records the serial-vs-parallel comparison (meta.host_cpus tells the
# reader whether a speedup was physically possible).
DEFAULT_JOBS=$(nproc)
[ "$DEFAULT_JOBS" -lt 4 ] && DEFAULT_JOBS=4
JOBS="${JOBS:-$DEFAULT_JOBS}"
./build/bench/ouessant_bench --compare-jobs "$JOBS" \
  --json BENCH_sweep.json | tee build/experiment-logs/sweep.txt

# The host-speed record (perfbench/README.md): one 30 s run of each
# perfbench workload, its meta and result lines kept by workload.
# run_tier1.sh holds fresh 2 s runs to half of each recorded sim_cps;
# meta.nproc and meta.probe_ms_median say what host produced it.
for workload in ocp_stream serve_mix fleet_fork; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 30 \
    --trace 0 | tee "build/experiment-logs/perf_$workload.txt"
done
python3 scripts/bench_guards.py record BENCH_perf.json \
  build/experiment-logs/perf_*.txt

echo
echo "transcript in build/experiment-logs/sweep.txt, results in BENCH_sweep.json"
echo "host-speed record in build/experiment-logs/perf_*.txt, results in BENCH_perf.json"
