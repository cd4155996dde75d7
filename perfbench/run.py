#!/usr/bin/env python3
"""Host-speed benchmark of the Ouessant simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload ocp_stream --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the simulator and the benchmark driver from source into
.bench_build/perfbench, runs one workload, checks that the driver's
result line matches BENCHMARK.json's schema, and prints it as the last
line of stdout. Build output and diagnostics go to stderr. Exits
non-zero, without a result line, when the build or the schema check
fails; exits non-zero after the result line when the driver reported a
failed check (correct: false).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    """Configure and build @targets; returns the build directory."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        + gen,
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return BUILD


def revision():
    """Git revision when there is one, plus a digest of the sources."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git:%s src:%s" % (rev, digest.hexdigest()[:12])


def spec_metrics(spec, trace):
    """{name: unit} the result must carry for --trace @trace."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate_result(obj, spec, trace):
    """Raise ValueError unless @obj is a result object for @spec."""
    if not isinstance(obj, dict) or set(obj) != RESULT_KEYS:
        raise ValueError("result keys must be exactly %s" % sorted(RESULT_KEYS))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(key + " must be an integer")
    if obj["attempted"] < 1 or obj["failed"] < 0:
        raise ValueError("attempted must be >= 1 and failed >= 0")
    want = spec_metrics(spec, trace)
    got = obj["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (missing, extra))
    for name, unit in want.items():
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError(name + " must be {value, unit}")
        value = m["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(name + " has no finite value")
        if m["unit"] != unit:
            raise ValueError("%s unit %r, BENCHMARK.json says %r"
                             % (name, m["unit"], unit))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(binary, args):
    os.makedirs(TRACES, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--trace-dir", TRACES, "--rev", revision()]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def bench(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (BENCHMARK.json has %s)" % (args.workload, names))
        return 2
    binary = os.path.join(build(["perfbench"]), "perfbench")
    proc = run_driver(binary, args)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("driver printed nothing (exit %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        validate_result(result, spec, args.trace)
    except ValueError as e:
        log("result line rejected: %s" % e)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


def self_test():
    build(["perfbench", "perfbench_tests"])
    gtest = subprocess.run([os.path.join(BUILD, "perfbench_tests")])
    schema = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 0 if gtest.returncode == 0 and schema.returncode == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        return bench(args)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
