#!/usr/bin/env python3
"""The benchmark's own test, at tiny sizes.

    python3 perfbench/test_perfbench.py

Builds the harness through perfbench/run.py, then checks that every
metric BENCHMARK.json names is printed with its unit (untraced and
traced), that the traced table's self times account for all of
Simulator::run, that the measured host time (each slice's fastest
repetition, summed) is no slower than any episode, that the correctness
gate trips on a deliberately wrong expected seat tally, and that the
benchmark refuses to run without the Flecc sources next to it.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
TINY = ["--views", "40", "--ops", "4"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), *TINY, *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, spec):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                proc = run(w, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                res = result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                human = proc.stdout.splitlines()[:-1]
                for name, unit in want.items():
                    self.assertTrue(
                        any(line.startswith("# " + name + " ") and
                            line.endswith(" " + unit) for line in human),
                        f"{name} not printed with unit {unit}")
                self.assertIn("# failed_op_ratio 0.000000", proc.stdout)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_traced_table(self):
        proc = run("write_mix", 1)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        # "# <layer> <spans> <self_ms> <us/op> <share>" rows.
        rows = {}
        for line in proc.stdout.splitlines():
            f = line.split()
            if len(f) == 6 and re.fullmatch(r"[a-z]+\.[a-z_]+", f[1]):
                rows[f[1]] = float(f[2])
        for layer in ("sim.dispatch", "sim.schedule", "net.send",
                      "cm.handle", "cm.timer", "dm.handle", "adapter.merge",
                      "adapter.extract"):
            self.assertGreater(rows.get(layer, 0), 0, layer)
        m = re.search(r"self times \+ dispatch = ([0-9.]+) of sim\.run",
                      proc.stdout)
        self.assertIsNotNone(m, proc.stdout)
        self.assertAlmostEqual(float(m.group(1)), 1.0, places=3)


class QuietHostTime(unittest.TestCase):
    def test_sliced_minimum_bounds_every_episode(self):
        # The measured phase's host time is each slice's fastest
        # repetition, summed, so no episode can be faster than it.
        proc = run("hot_pull", 0)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        m = re.search(r"measured phase [0-9.]+ s from (\d+) slices",
                      proc.stdout)
        self.assertIsNotNone(m, proc.stdout)
        self.assertEqual(int(m.group(1)), 1024)
        line = next(l for l in proc.stdout.splitlines()
                    if l.startswith("# per-episode ops_per_s:"))
        episodes = [float(x) for x in line.split(":")[1].split()]
        self.assertGreaterEqual(len(episodes), 3)
        ops_per_s = result(proc)["metrics"]["ops_per_s"]["value"]
        self.assertGreaterEqual(ops_per_s, max(episodes) * 0.999)


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_tally_fails(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc = run("hot_pull", trace, "--tally-offset", "1")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("CHECK FAILED", proc.stdout)
                self.assertIn("seat tally", proc.stdout)
                self.assertFalse(result(proc)["correct"])
                self.assertIn("# failed_op_ratio", proc.stdout)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"))
            proc = run("hot_pull", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
