#!/usr/bin/env python3
"""The host-speed record: perfbench runs against the committed BENCH_perf.json.

    python3 scripts/bench_guards.py record BENCH_perf.json RUN.out...
    python3 scripts/bench_guards.py floor BENCH_perf.json RUN.out...
    python3 scripts/bench_guards.py pairs BASE.out... -- NEW.out...
    python3 scripts/bench_guards.py layout BASE_BIN NEW_BIN

Each RUN.out is the saved stdout of one `python3 perfbench/run.py
--workload W --seed 7 --seconds S --trace 0` run: its meta line, then
its result line. The meta line names the workload.

record: writes the runs' meta and result lines, keyed by workload, to
        the record file. Every run must be correct.
floor:  fails when a fresh run is not correct, when a recorded workload
        has no fresh run, or when a fresh sim_cps is below half the
        recorded one. A host can easily be 2x slower than the one that
        recorded the file; a simulator that is must be looked at.
pairs:  compares two builds from alternating runs: the i-th BASE run of
        a workload is paired with its i-th NEW run. For each workload and
        each end-to-end metric of BENCHMARK.json it prints both sides'
        median and quartiles, the ratio of the medians (NEW / BASE), the
        pairs NEW won in the metric's `better` direction, and whether
        the claim rule holds: NEW wins at least 9 of every 10 pairs (and
        there are at least 10), and the medians differ, in that
        direction, by more than BASE's interquartile range. A last row
        gives the same median, quartiles and ratio for the rounds each
        run completed (its meta line), since the driver's own memory
        grows with them. It only reports; a rule that does not hold is
        not an error.
layout: prints the address mod 64 of each hot function (HOT below) in
        two perfbench binaries, read with `nm -C`, and marks the ones
        that moved or exist on one side only. ocp_stream's speed
        follows the 64-byte alignment of this code, so a small
        difference between two builds means little when it moved. It
        only reports.

Prints what it compared; exits 0 when every run passes and 1 (with the
reason on stderr) when one does not, or when the input is malformed.
scripts/run_experiments.sh records, scripts/run_tier1.sh checks the
floor, docs/performance.md ("Comparing two builds") describes pairs and
layout.
"""

import json
import os
import statistics
import subprocess
import sys

# The functions every simulated cycle of ocp_stream runs through: the
# kernel sweep, the FIFO read, commit and bulk paths, the bus and the
# block RAC. Then the streaming datapath every FIR job of serve_mix and
# fleet_fork runs through: FirRac::tick_compute in trees before the
# StreamRac envelope, StreamRac::tick_compute since (each binary holds
# one of the two). Matched by qualified name, any parameter list.
HOT = [
    "ouessant::sim::Kernel::tick",
    "ouessant::fifo::BitQueue::push",
    "ouessant::fifo::BitQueue::peek",
    "ouessant::fifo::BitQueue::pop",
    "ouessant::fifo::BitQueue::drop",
    "ouessant::fifo::WidthFifo::write",
    "ouessant::fifo::WidthFifo::read",
    "ouessant::fifo::WidthFifo::peek",
    "ouessant::fifo::WidthFifo::tick_commit",
    "ouessant::fifo::WidthFifo::bulk_write",
    "ouessant::fifo::WidthFifo::bulk_read",
    "ouessant::bus::InterconnectModel::tick_compute",
    "ouessant::bus::InterconnectModel::try_batch_chunk",
    "ouessant::rac::BlockRac::tick_compute",
    "ouessant::rac::FirRac::tick_compute",
    "ouessant::rac::StreamRac::tick_compute",
]


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


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(median, q1, q3):
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def by_workload(paths):
    runs = {}
    for path in paths:
        workload, run = load_run(path)
        if not run["result"]["correct"]:
            sys.exit(f"{path}: perfbench run not correct")
        runs.setdefault(workload, []).append(run)
    return runs


def pairs(base_paths, new_paths):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = by_workload(base_paths), by_workload(new_paths)
    if sorted(base) != sorted(new):
        sys.exit(f"pairs: BASE runs {sorted(base)}, NEW runs {sorted(new)}")
    for w in sorted(base):
        n = len(base[w])
        if len(new[w]) != n:
            sys.exit(f"pairs: {w} has {n} BASE runs, {len(new[w])} NEW runs")
        print(f"{w}: {n} pairs")
        print(f"  {'metric':12s} {'BASE median [q1, q3]':32s} "
              f"{'NEW median [q1, q3]':32s} {'ratio':>6s} {'won':>7s}  rule")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            a = [r["result"]["metrics"][name]["value"] for r in base[w]]
            b = [r["result"]["metrics"][name]["value"] for r in new[w]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            gap = (bm - am) if higher else (am - bm)
            holds = n >= 10 and 10 * won >= 9 * n and gap > a3 - a1
            ratio = bm / am if am else float("nan")
            print(f"  {name:12s} {spread(am, a1, a3):32s} "
                  f"{spread(bm, b1, b3):32s} {ratio:6.3f} {won:3d}/{n:<3d}  "
                  f"{'holds' if holds else 'does not hold'}")
        a = [r["meta"]["rounds"] for r in base[w]]
        b = [r["meta"]["rounds"] for r in new[w]]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        print(f"  {'rounds':12s} {spread(am, a1, a3):32s} "
              f"{spread(bm, b1, b3):32s} {bm / am:6.3f}")


def hot_symbols(binary):
    """{demangled name: address} of the HOT functions in @binary."""
    try:
        nm = subprocess.run(["nm", "-C", binary], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"layout: cannot read symbols of {binary}: {e}")
    found = {}
    for line in nm.stdout.splitlines():
        parts = line.split(" ", 2)
        if (len(parts) != 3 or parts[1] not in ("T", "t", "W", "w")
                or "[clone" in parts[2]):
            continue
        if any(parts[2].startswith(f + "(") for f in HOT):
            found[parts[2]] = int(parts[0], 16)
    return found


def layout(base_bin, new_bin):
    base, new = hot_symbols(base_bin), hot_symbols(new_bin)
    names = sorted(set(base) | set(new),
                   key=lambda n: (HOT.index(n.split("(")[0]), n))
    width = max([len(n) for n in names] + [8])

    def cell(addr):
        return "-" if addr is None else str(addr % 64)

    print("layout: address mod 64 of the hot functions (nm -C)")
    print(f"  {'function':{width}s} {'BASE':>4s} {'NEW':>4s}")
    for name in names:
        a, b = base.get(name), new.get(name)
        if a is None or b is None:
            mark = "base only" if b is None else "new only"
        else:
            mark = "moved" if a % 64 != b % 64 else ""
        row = f"  {name:{width}s} {cell(a):>4s} {cell(b):>4s}  {mark}"
        print(row.rstrip())
    missing = [f for f in HOT if not any(n.split("(")[0] == f for n in names)]
    if missing:
        print(f"  on neither side: {', '.join(missing)}")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "layout":
        layout(sys.argv[2], sys.argv[3])
        sys.exit(0)
    if len(sys.argv) > 1 and sys.argv[1] == "pairs":
        args = sys.argv[2:]
        if "--" not in args:
            sys.exit(f"usage: {sys.argv[0]} pairs BASE.out... -- NEW.out...")
        cut = args.index("--")
        if cut == 0 or cut == len(args) - 1:
            sys.exit("pairs: need at least one BASE and one NEW run")
        pairs(args[:cut], args[cut + 1:])
        sys.exit(0)
    modes = {"record": record, "floor": floor}
    if len(sys.argv) < 4 or sys.argv[1] not in modes:
        sys.exit(f"usage: {sys.argv[0]} record|floor BENCH_perf.json "
                 f"RUN.out... | pairs BASE.out... -- NEW.out... | "
                 f"layout BASE_BIN NEW_BIN")
    modes[sys.argv[1]](sys.argv[2], sys.argv[3:])
