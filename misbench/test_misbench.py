#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 misbench/test_misbench.py

Runs the C++ self-test (fingerprints across storage modes, shard and thread
counts, seeds; span self time) and drives run.py on shrunken inputs
(--small) to check that every workload prints exactly the BENCHMARK.json
metric names for its mode, verifies all its outputs, and repeats its
fingerprints and core-layer counts for a fixed seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point: build paths, build())


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode, proc.stdout))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("# ")]


def tagged(lines, prefix):
    return [l for l in lines if l.startswith(prefix)]


class MisbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_selftest(self):
        proc = subprocess.run(
            [os.path.join(run.BUILD_DIR, "misbench_selftest"), run.WORK_DIR],
            stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_metric_names_match_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result, _ = bench(w["name"], 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_fingerprints_repeat_and_seeds_change_inputs(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                _, a = bench(w["name"], 3, 0)
                _, b = bench(w["name"], 3, 0)
                _, c = bench(w["name"], 4, 0)
                self.assertTrue(tagged(a, "# fingerprint"))
                self.assertEqual(tagged(a, "# fingerprint"), tagged(b, "# fingerprint"))
                self.assertEqual(tagged(a, "# input"), tagged(b, "# input"))
                self.assertNotEqual(tagged(a, "# input"), tagged(c, "# input"))

    def test_core_sentinels_repeat(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                a, _ = bench(w["name"], 3, 1)
                b, _ = bench(w["name"], 3, 1)
                for name in ("core.rounds", "core.active_total"):
                    self.assertEqual(a["metrics"][name], b["metrics"][name])

    def test_compressed_matches_plain(self):
        _, plain = bench("scale-plain", 5, 0)
        _, compressed = bench("scale-compressed", 5, 0)
        self.assertEqual(tagged(plain, "# fingerprint"), tagged(compressed, "# fingerprint"))
        self.assertEqual(tagged(plain, "# input"), tagged(compressed, "# input"))


if __name__ == "__main__":
    unittest.main()
