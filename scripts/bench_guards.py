#!/usr/bin/env python3
"""Headline-claim guards over a scenario sweep's JSON record.

    python3 scripts/bench_guards.py dpr BENCH_dpr.json
    python3 scripts/bench_guards.py chain BENCH_chain.json

dpr:   on dpr_adapt's shifted demand mix, the demand-driven swap
       scheduler (hysteresis) must beat static slot assignment on
       availability.
chain: on every chain_traffic point, the p2p linked mode must beat the
       store-and-forward ablation on both cycles and bus beats.

Prints what it compared; exits 0 when the claim holds and 1 (with the
reason on stderr) when it does not. scripts/run_tier1.sh and
scripts/run_experiments.sh both call it.
"""

import json
import sys


def dpr(doc):
    av = {r["params"]["policy"]:
          r["metrics"]["completed"] / r["metrics"]["jobs"]
          for r in doc["results"] if r["scenario"] == "dpr_adapt"}
    print("  dpr_adapt availability: " +
          ", ".join(f"{p}={av[p]:.3f}" for p in sorted(av)))
    if av["hysteresis"] <= av["static"]:
        sys.exit("dpr guard: the swap scheduler lost to static slot "
                 f"assignment ({av['hysteresis']:.3f} <= {av['static']:.3f})")
    print("dpr guard OK: scheduler beats static on the shifted mix")


def chain(doc):
    rows = [r for r in doc["results"] if r["scenario"] == "chain_traffic"]
    if not rows:
        sys.exit("chain guard: no chain_traffic rows")
    for r in rows:
        m, batch = r["metrics"], r["params"]["batch"]
        print(f"  batch {batch}: linked {m['linked_cycles']} cycles / "
              f"{m['linked_beats']} beats | store_forward {m['sf_cycles']} "
              f"cycles / {m['sf_beats']} beats")
        if m["linked_cycles"] >= m["sf_cycles"]:
            sys.exit(f"chain guard: linked lost on cycles at batch {batch} "
                     f"({m['linked_cycles']} >= {m['sf_cycles']})")
        if m["linked_beats"] >= m["sf_beats"]:
            sys.exit(f"chain guard: linked lost on bus beats at batch {batch} "
                     f"({m['linked_beats']} >= {m['sf_beats']})")
    print("chain guard OK: linked beats store-and-forward on cycles and beats")


GUARDS = {"dpr": dpr, "chain": chain}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in GUARDS:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(GUARDS)}}} RESULTS.json")
    with open(sys.argv[2]) as f:
        GUARDS[sys.argv[1]](json.load(f))
