#!/usr/bin/env python3
"""Tests of the Patty benchmark itself.

    python3 perfbench/test_perfbench.py      (from the repository root)

Each workload runs in its short mode and must report correct results with
every metric BENCHMARK.json names. Every correctness check is then shown to
fail: a detection fingerprint with one character flipped, a transformed
output with one line dropped and an inverted certificate verdict must each
be reported as incorrect. Finally the benchmark must refuse to run where the
Patty sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace=0, inject=None, seed=3):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--short"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError("benchmark exited %d:\n%s" %
                             (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def check_result(self, r, names):
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(set(r["metrics"]), names)
        for m in r["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})

    def test_end_to_end(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = result(run(w["name"]))
                self.check_result(r, names)
                for name, m in r["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = result(run(w["name"], trace=1))
                self.check_result(r, names)
                path = os.path.join(ROOT, ".bench_out",
                                    "trace-%s-3.json" % w["name"])
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertEqual(len(events),
                                 r["metrics"]["trace.spans"]["value"])


class ChecksCanFail(unittest.TestCase):
    def assert_incorrect(self, workload, inject):
        r = result(run(workload, inject=inject))
        self.assertFalse(r["correct"], "%s --inject %s" % (workload, inject))

    def test_fingerprint_flipped(self):
        self.assert_incorrect("analyze", "fingerprint")
        self.assert_incorrect("serve", "fingerprint")

    def test_output_line_dropped(self):
        self.assert_incorrect("execute", "output")

    def test_verdict_inverted(self):
        self.assert_incorrect("analyze", "verdict")
        self.assert_incorrect("serve", "verdict")


class WithoutSources(unittest.TestCase):
    def test_refuses_without_patty_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + [
            "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
