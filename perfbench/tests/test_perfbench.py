"""Tests of the xres benchmark itself (not of xres).

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark executable through perfbench/run.py on first use.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def bench_exe(*args):
    out = subprocess.run([run.BINARY, *args], stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.bench = load_benchmark()

    def test_metric_names_and_counts(self):
        end_to_end = self.bench["end_to_end"]
        per_layer = self.bench["per_layer"]
        self.assertLessEqual(len(end_to_end), 16)
        self.assertLessEqual(len(per_layer), 128)
        names = [m["name"] for m in end_to_end + per_layer]
        self.assertEqual(len(names), len(set(names)), "metric names must be unique")
        for name in names + [w["name"] for w in self.bench["workloads"]]:
            self.assertRegex(name, NAME)
        self.assertIn("setup_s", [m["name"] for m in end_to_end])

    def test_executable_catalog_matches_benchmark_json(self):
        catalog = last_json(bench_exe("--list-metrics"))
        for key in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.bench[key]]
            built = [(m["name"], m["unit"]) for m in catalog[key]]
            self.assertEqual(declared, built, key)

    def test_input_digest_follows_the_seed(self):
        def digest(name, seed):
            lines = bench_exe("--workload", name, "--seed", str(seed), "--work-dir", run.WORK_DIR,
                           "--inputs-digest")
            return last_json(lines)["input_digest"]

        for workload in self.bench["workloads"]:
            name = workload["name"]
            self.assertEqual(digest(name, 7), digest(name, 7), name)
            self.assertNotEqual(digest(name, 7), digest(name, 8), name)

    def run_benchmark(self, workload, trace):
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=False)
        self.assertEqual(out.returncode, 0, out.stdout)
        result = last_json(out.stdout.strip().splitlines())
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_measured_run_reports_every_end_to_end_metric(self):
        metrics = self.run_benchmark("workload_fattree_storm", 0)
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        for name, metric in metrics.items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        metrics = self.run_benchmark("single_app_journaled", 1)
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertEqual(metrics["recovery.journal_records"]["value"], 16000)

    def test_refuses_without_the_program_sources(self):
        bare = os.path.join(run.ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCHMARK_JSON, bare)
        try:
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "workload_selection", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, timeout=180,
                                 check=False)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
