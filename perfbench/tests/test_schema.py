"""Output-schema round trip: smoke runs of every workload, traced and
untraced, must print a result line that BENCHMARK.json's schema accepts
and that survives a JSON round trip unchanged.

Run through `python3 perfbench/run.py --self-test`, which builds the
driver first.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.binary = os.path.join(run.BUILD, "perfbench")

    def smoke(self, workload, trace):
        os.makedirs(run.TRACES, exist_ok=True)
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "11",
             "--seconds", "0.01", "--trace", str(trace), "--size", "smoke",
             "--golden", os.path.join(run.HERE, "golden.txt"),
             "--trace-dir", run.TRACES],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        meta = json.loads(lines[-2])["meta"]
        for key in ("nproc", "compiler", "build_type", "rev", "seed"):
            self.assertIn(key, meta)
        return json.loads(lines[-1])

    def test_every_workload_round_trips(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.smoke(workload, trace)
                    run.validate_result(result, self.spec, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    again = json.loads(json.dumps(result))
                    self.assertEqual(again, result)
                    run.validate_result(again, self.spec, trace)

    def test_validator_rejects_schema_drift(self):
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in self.spec["end_to_end"]}}
        run.validate_result(good, self.spec, 0)
        name = self.spec["end_to_end"][0]["name"]
        bad_cases = [
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, correct="yes"),
            dict(good, metrics={k: v for k, v in good["metrics"].items()
                                if k != name}),
            dict(good, metrics=dict(good["metrics"],
                                    **{name: {"value": 1.0, "unit": "?"}})),
            dict(good, metrics=dict(good["metrics"],
                                    **{name: {"value": None, "unit":
                                              good["metrics"][name]["unit"]}})),
        ]
        for bad in bad_cases:
            with self.assertRaises(ValueError):
                run.validate_result(bad, self.spec, 0)

    def test_spec_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
