#!/usr/bin/env python3
"""The guard that compares a fresh sweep record against a committed one.

    python3 scripts/bench_guards.py speed BENCH_speed.json \
        build/bench/BENCH_speed.json

speed: sim_speed's per-workload opt_cps in the fresh record (third
       argument) must be at least half the committed baseline (second
       argument). A host can easily be 2x slower than the one that
       recorded BENCH_speed.json, but a value below half of it means the
       fast paths stopped engaging.

Every other guard is a registered scenario of ouessant_bench or a ctest
assertion. Prints what it compared; exits 0 when the floor holds and 1
(with the reason on stderr) when it does not. scripts/run_tier1.sh
calls it.
"""

import json
import sys


def cps(path):
    with open(path) as f:
        doc = json.load(f)
    return {r["params"]["workload"]: r["metrics"]["opt_cps"]
            for r in doc["results"]}


def speed(baseline_path, fresh_path):
    base, now = cps(baseline_path), cps(fresh_path)
    bad = [w for w, v in base.items() if now.get(w, 0.0) < v / 2.0]
    for w in sorted(base):
        print(f"  {w:12s} baseline {base[w]:12.0f} cps | now "
              f"{now.get(w, 0.0):12.0f} cps")
    if bad:
        sys.exit(f"speed guard: opt_cps regressed >2x on {', '.join(bad)}")
    print("speed guard OK")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "speed":
        sys.exit(f"usage: {sys.argv[0]} speed BASELINE.json FRESH.json")
    speed(sys.argv[2], sys.argv[3])
