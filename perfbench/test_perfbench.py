#!/usr/bin/env python3
"""Self-tests of the benchmark: names, bases and the correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the harness through run.py first (a no-op once built); the
digest tests run the cheapest workload for its minimum iterations.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CHEAP = "link-ber-grid"


def harness_result(pinned, seed=1, extra_env=None):
    env = run.env()
    env.update(extra_env or {})
    proc = subprocess.run(run.harness_cmd(CHEAP, seed, 0, 0, pinned),
                          capture_output=True, text=True, env=env,
                          timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        out = subprocess.run([run.HARNESS, "--list-metrics"],
                             capture_output=True, text=True, check=True)
        cls.listed = json.loads(out.stdout)

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_harness_matches_benchmark_json(self):
        self.assertEqual(self.listed["workloads"],
                         [w["name"] for w in self.bench["workloads"]])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in self.listed[key]],
                [(m["name"], m["unit"]) for m in self.bench[key]], key)

    def test_per_layer_bases_are_reported(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        for m in self.listed["per_layer"]:
            for b in m["bases"]:
                self.assertIn(b, names, m["name"])
            if m["unit"] == "ratio" or m["name"].endswith(
                    ("memo_fill_s", "full_phy_s")):
                self.assertTrue(m["bases"], m["name"] + " has no base")

    def test_pinned_digest_passes(self):
        code, lines = harness_result(run.PINNED)
        self.assertEqual(code, 0)
        res = json.loads(lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)

    def test_perturbed_digest_is_a_failure(self):
        with open(run.PINNED) as f:
            pins = dict(line.split() for line in f if line.strip())
        good = pins[CHEAP]
        pins[CHEAP] = good[:-1] + ("0" if good[-1] != "0" else "1")
        path = os.path.join(run.BUILD, "tmp", "perturbed_digests.txt")
        with open(path, "w") as f:
            f.writelines("%s %s\n" % kv for kv in pins.items())
        code, lines = harness_result(path)
        self.assertEqual(code, 0)
        res = json.loads(lines[-1])
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        # Off the default seed nothing is pinned: the same file passes.
        code, lines = harness_result(path, seed=2)
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_forced_kernel_backend_is_refused(self):
        code, lines = harness_result(run.PINNED, extra_env={
            "WILIS_KERNEL_BACKEND": "scalar"})
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(run.BUILD, "tmp", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", CHEAP,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(l.startswith("{")
                             for l in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
