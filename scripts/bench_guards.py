#!/usr/bin/env python3
"""The host-speed record: perfbench runs against the committed BENCH_perf.json.

    python3 scripts/bench_guards.py record BENCH_perf.json RUN.out...
    python3 scripts/bench_guards.py floor BENCH_perf.json RUN.out...

Each RUN.out is the saved stdout of one `python3 perfbench/run.py
--workload W --seed 7 --seconds S --trace 0` run: its meta line, then
its result line. The meta line names the workload.

record: writes the runs' meta and result lines, keyed by workload, to
        the record file. Every run must be correct.
floor:  fails when a fresh run is not correct, when a recorded workload
        has no fresh run, or when a fresh sim_cps is below half the
        recorded one. A host can easily be 2x slower than the one that
        recorded the file; a simulator that is must be looked at.

Prints what it compared; exits 0 when every run passes and 1 (with the
reason on stderr) when one does not. scripts/run_experiments.sh records,
scripts/run_tier1.sh checks the floor.
"""

import json
import sys


def load_run(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.startswith("{")]
    meta = next((line["meta"] for line in lines if "meta" in line), None)
    if meta is None or "correct" not in lines[-1]:
        sys.exit(f"{path}: no perfbench meta and result lines")
    return meta["workload"], {"meta": meta, "result": lines[-1]}


def load_runs(paths):
    runs = dict(load_run(p) for p in paths)
    bad = [w for w, run in runs.items() if not run["result"]["correct"]]
    if bad:
        sys.exit(f"perfbench run not correct on {', '.join(bad)}")
    return runs


def sim_cps(run):
    return run["result"]["metrics"]["sim_cps"]["value"]


def record(record_path, paths):
    runs = load_runs(paths)
    with open(record_path, "w") as f:
        json.dump(runs, f, indent=2)
        f.write("\n")
    for w in sorted(runs):
        print(f"  {w:12s} sim_cps {sim_cps(runs[w]):12.0f}")
    print(f"wrote {record_path}")


def floor(record_path, paths):
    with open(record_path) as f:
        base = json.load(f)
    now = load_runs(paths)
    missing = [w for w in base if w not in now]
    if missing:
        sys.exit(f"speed floor: no fresh run of {', '.join(missing)}")
    for w in sorted(base):
        print(f"  {w:12s} recorded {sim_cps(base[w]):12.0f} cps | now "
              f"{sim_cps(now[w]):12.0f} cps")
    slow = [w for w in base if sim_cps(now[w]) < sim_cps(base[w]) / 2.0]
    if slow:
        sys.exit(f"speed floor: sim_cps below half the record on "
                 f"{', '.join(slow)}")
    print("speed floor OK")


if __name__ == "__main__":
    modes = {"record": record, "floor": floor}
    if len(sys.argv) < 4 or sys.argv[1] not in modes:
        sys.exit(f"usage: {sys.argv[0]} record|floor BENCH_perf.json "
                 f"RUN.out...")
    modes[sys.argv[1]](sys.argv[2], sys.argv[3:])
