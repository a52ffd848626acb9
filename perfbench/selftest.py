#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), runs the C++ self-tests
(perfbench_selftest: check rejection, K-invariance, the crawl_k4
anchor, seed control), then checks the driver: every workload at toy
size prints every metric named in BENCHMARK.json with its unit in both
trace modes, and the driver's own checks reject hand-built failing
inputs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import run  # noqa: E402

BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def driver(*args):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


class Program(unittest.TestCase):
    def test_cpp_selftest(self):
        work = os.path.join(BUILD_DIR, "selftest-work")
        done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest"),
                               "--work-dir", work], stdout=subprocess.PIPE,
                              text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stdout)


class Driver(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        s = spec()
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in s["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_printed_with_unit(self):
        s = spec()
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[table]}
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, out = driver("--workload", w, "--seed", "3",
                                       "--seconds", "1", "--trace",
                                       str(trace), "--toy")
                    self.assertEqual(code, 0)
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], float, name)

    def test_usage_errors_exit_2(self):
        code, out = driver("--workload", "nope", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 2)
        self.assertIsNone(out)

    def test_trace_check_rejects_different_outputs(self):
        a = {"output_fingerprint": "00ff", "input_fingerprint": "0a",
             "messages_sent": 10, "disconnected_frac": 0.5,
             "exchange_fail_frac": 0.25, "attempted": 4}
        self.assertEqual(run.simulated_mismatches(a, dict(a)), [])
        for key, other in (("output_fingerprint", "00fe"),
                           ("messages_sent", 11),
                           ("disconnected_frac", 0.5000000000000001)):
            with self.subTest(key=key):
                self.assertEqual(
                    run.simulated_mismatches(a, dict(a, **{key: other})),
                    [key])

    def test_non_number_fails_the_run(self):
        good = {"setup_seconds": [0.5, 0.25], "slice_seconds": [0.5, 1.0],
                "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 10.0,
                "messages_sent": 100, "disconnected_frac": 0.25,
                "exchange_fail_frac": 0.125}
        self.assertIsNotNone(run.finite_metrics(run.end_to_end, good))
        for key, bad in (("wall_s", None), ("cpu_s", float("inf")),
                         ("slice_seconds", [])):
            with self.subTest(key=key):
                self.assertIsNone(run.finite_metrics(
                    run.end_to_end, dict(good, **{key: bad})))

    def test_failed_check_fails_the_run(self):
        good = {"failed": 0, "checks": [{"name": "x", "ok": True}]}
        self.assertTrue(run.checks_ok(0, good))
        self.assertFalse(run.checks_ok(1, good))
        self.assertFalse(run.checks_ok(0, None))
        self.assertFalse(run.checks_ok(0, dict(good, failed=1)))
        self.assertFalse(run.checks_ok(
            0, dict(good, checks=[{"name": "x", "ok": False}])))


if __name__ == "__main__":
    if not run.build(BUILD_DIR):
        sys.exit(1)
    unittest.main()
