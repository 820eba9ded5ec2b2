"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs run.py --tiny on every workload, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that every
output check passes, that the traced and untraced runs compute identical
outputs, that count metrics repeat exactly across two runs with one seed,
and that a directory holding only the benchmark fails without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B", "GFLOP", "ratio")


def bench(workload, trace, seed=5, root=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(l[len("details "):]) for l in lines if l.startswith("details "))
    return json.loads(lines[-1]), details


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, key):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_workloads_traced_and_untraced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                plain, traced = bench(workload, 0), bench(workload, 1)
                self.assertEqual(plain.returncode, 0, plain.stderr)
                self.assertEqual(traced.returncode, 0, traced.stderr)
                (r0, d0), (r1, d1) = parse(plain), parse(traced)
                self.assertTrue(r0["correct"] and r1["correct"])
                self.assertEqual((r0["failed"], r1["failed"]), (0, 0))
                self.check_metrics(r0, "end_to_end")
                self.check_metrics(r1, "per_layer")
                self.assertEqual(d0["outputs"], d1["outputs"])
                oks = [{k: v["ok"] for k, v in d["checks"].items()} for d in (d0, d1)]
                self.assertTrue(oks[1].pop("counts_repeat"))
                self.assertEqual(oks[0], oks[1])
                self.assertTrue(all(oks[0].values()), d0["checks"])

    def test_counts_repeat_across_runs(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        first, second = (parse(bench("multimodal_train", 1, seed=9))[0] for _ in range(2))
        for name, unit in units.items():
            if unit in COUNT_UNITS:
                self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_fails_without_package(self):
        bare = ROOT / "perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("skill_day", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
