#!/usr/bin/env bash
# Regenerate every experiment in EXPERIMENTS.md: build, test, then sweep
# the whole scenario registry through ouessant_bench. The sweep runs
# twice (--compare-jobs): once serially and once on a worker pool sized
# to the host, verifying the two produce bit-identical payloads and
# recording both wall clocks into BENCH_sweep.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
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

# The offload-service scenarios again as a standalone artifact: the
# serve_* histograms move together (scheduler changes shift every
# percentile), so reviewers diff BENCH_serve.json on its own.
./build/bench/ouessant_bench --filter serve --compare-jobs "$JOBS" \
  --json BENCH_serve.json | tee build/experiment-logs/serve.txt
# Raw-simulator-speed baseline for run_tier1.sh's speed guard: host
# cycles/sec with the batched bus windows and decode cache on vs forced
# off. Re-recording on a new reference host is how the guard's floor is
# moved; meta.host_cpus records what produced it.
./build/bench/ouessant_bench --filter sim_speed \
  --json BENCH_speed.json | tee build/experiment-logs/speed.txt
# The fleet record (docs/fleet.md): fleet_warmboot — >= 8 shards forked
# from one snapshot per point, with the cold-boot vs per-shard-fork
# wall-time comparison and the fixed-seed shard-replay check — plus
# fleet_slo, the fault-armed fleet under full observability (SLO
# burn-rate alerts, flight-recorder dumps, sketch-derived quantiles).
# Host wall times make both non-deterministic, so the family gets its
# own artifact instead of riding in the compare-jobs sweep. fleet_slo
# also leaves build/experiment-logs/trace_fleet_slo_0.slo.json and the
# per-shard *.flight.json dumps behind for `ouessant_trace slo` / `flight`.
./build/bench/ouessant_bench --filter FLEET \
  --trace-events build/experiment-logs/trace \
  --json BENCH_fleet.json | tee build/experiment-logs/fleet.txt
# The reconfigurable-slot-farm record (docs/reconfiguration.md):
# demand-shift adaptation by policy, farm sizing, and the shared-vs-free
# configuration-port ablation. Its headline claim (hysteresis beats
# static on the shifted demand mix) is asserted in ctest's sweep.
./build/bench/ouessant_bench --filter DPRF \
  --json BENCH_dpr.json | tee build/experiment-logs/dpr.txt
# The accelerator-chaining record (docs/chaining.md): p2p link vs SRAM
# bounce at equal payload, the conduit cost sweep, a chained worker
# under load, and the end-to-end JPEG decode. chain_traffic fails any
# point where the linked mode does not beat the store-and-forward
# ablation on both cycles and bus beats.
./build/bench/ouessant_bench --filter CHAIN \
  --json BENCH_chain.json | tee build/experiment-logs/chain.txt

echo
echo "transcript in build/experiment-logs/sweep.txt, results in BENCH_sweep.json"
echo "service scenarios in build/experiment-logs/serve.txt, results in BENCH_serve.json"
echo "speed baseline in build/experiment-logs/speed.txt, results in BENCH_speed.json"
echo "fleet warm-boot record in build/experiment-logs/fleet.txt, results in BENCH_fleet.json"
echo "slot-farm record in build/experiment-logs/dpr.txt, results in BENCH_dpr.json"
echo "chaining record in build/experiment-logs/chain.txt, results in BENCH_chain.json"
