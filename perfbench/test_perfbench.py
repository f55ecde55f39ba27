#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py          # all three workloads (~2 min)
    PERFBENCH_QUICK=1 python3 perfbench/test_perfbench.py   # million-flow only

They build the benchmark like `run.py` does and write only under
`.bench_out/`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the harness under test)

# The layer self times that, with `trace.unattributed_s`, partition the
# traced wall time.
LAYER_SELF_TIMES = [
    "cli.parse_s", "spec.build_s", "shard.plan_s", "engine.run_s", "checkpoint.take_s",
    "checkpoint.fork_s", "experiment.self_s", "runner.self_s", "oracle.check_s",
    "detect.equivalence_s", "fuzz.gen_s", "fuzz.topology_s", "cli.report_s",
]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["million-flow"] if os.environ.get("PERFBENCH_QUICK") else sorted(run.WORKLOADS)
OUT = os.path.join(ROOT, ".bench_out", "selftest")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def harness(workload, trace, extra=(), cwd=ROOT):
    """Runs run.py for one second on the workload's default seed, whose
    outputs are pinned; returns (exit code, stdout lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", "1", "--trace", str(trace), *extra]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return res.returncode, res.stdout.strip().splitlines()


class BenchmarkJson(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        bench = bench_json()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(max(m["bound"] for m in bench["end_to_end"]), setup[0]["bound"])

    def test_workloads_match_the_harness(self):
        self.assertEqual(sorted(w["name"] for w in bench_json()["workloads"]),
                         sorted(run.WORKLOADS))


class CheckerAccounting(unittest.TestCase):
    """The output checks on canned job results; no binary needed."""

    FIRST = {"ops": 96, "ops_ok": 96, "digest": "0x1", "samples": {"0": "0x2"},
             "warmups": 4, "forked_runs": 100, "params": {"seed": 123}}

    def checker(self):
        return run.Checker("fig06-sweep", {"fig06-sweep": {"ops": 96, "digests": {}}})

    def test_identical_jobs_pass(self):
        check = self.checker()
        for _ in range(2):
            self.assertTrue(check.job({"status": 0, "result": dict(self.FIRST)}))
        self.assertEqual((check.attempted, check.failed), (192, 0))

    def test_a_traced_copy_with_other_warm_start_counts_fails(self):
        for key, value in (("warmups", 96), ("forked_runs", 0)):
            with self.subTest(key=key):
                check = self.checker()
                check.job({"status": 0, "result": dict(self.FIRST)})
                traced = dict(self.FIRST, **{key: value})
                self.assertFalse(check.job({"status": 0, "result": traced}))
                self.assertEqual((check.attempted, check.failed), (192, 96))

    def test_a_million_flow_output_off_its_pin_is_named(self):
        pins = {"delivered": 10, "acked": 5}
        check = run.Checker("million-flow", {"million-flow": {"ops": 1, "outputs": pins}})
        res = {"ops": 1, "ops_ok": 1, "outputs": {"delivered": 10, "acked": 6}, "params": {}}
        self.assertFalse(check.job({"status": 0, "result": res}))
        self.assertEqual(check.failed, 1)
        self.assertIn("acked 6 != pinned 5", check.notes[0])

    def test_a_dead_process_fails_the_expected_operations(self):
        check = self.checker()
        self.assertFalse(check.job({"status": 2, "result": None}))
        self.assertEqual((check.attempted, check.failed), (96, 96))


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(OUT, exist_ok=True)
        cls.binary = run.build()
        assert cls.binary, "the benchmark must build"

    def check_result(self, lines, specs):
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in specs))
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"])
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_printed_metrics_match_benchmark_json(self):
        bench = bench_json()
        for workload in WORKLOADS:
            for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = harness(workload, trace)
                    self.assertEqual(code, 0)
                    result = self.check_result(lines, specs)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    if trace == 1:
                        m = result["metrics"]
                        total = sum(m[name]["value"] for name in LAYER_SELF_TIMES)
                        total += m["trace.unattributed_s"]["value"]
                        self.assertAlmostEqual(total, m["trace.wall_s"]["value"], places=6)

    def test_traced_outputs_equal_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for mode in ("job", "trace"):
                    out = os.path.join(OUT, f"{workload}.{mode}.json")
                    results.append(run.spawn(self.binary, mode, workload, ["--out", out],
                                             OUT)["result"])
                    with open(out, "rb") as f:
                        results[-1]["report"] = f.read()
                job, traced = results
                for key in run.AGREE + ("params",):
                    self.assertEqual(job.get(key), traced.get(key), key)
                self.assertEqual(job["ops"], traced["ops"] - (workload == "million-flow"))
                if workload != "fig06-sweep":
                    # The fuzz report and the million-flow outputs carry no
                    # timing, so the two files are byte-identical.
                    self.assertEqual(job["report"], traced["report"])
                if workload == "million-flow":
                    self.assertEqual(traced["outputs"], traced["sequential_outputs"])

    def test_corrupted_digest_fails_operations_without_panicking(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        for entry in expected.values():
            for seed in entry.get("digests", {}):
                entry["digests"][seed] = "0xdeadbeefdeadbeef"
            if "outputs" in entry:
                entry["outputs"]["delivered"] += 1
        corrupted = os.path.join(OUT, "expected-corrupted.json")
        with open(corrupted, "w") as f:
            json.dump(expected, f)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = harness(workload, 0, ["--expected", corrupted])
                self.assertEqual(code, 0)
                result = self.check_result(lines, bench_json()["end_to_end"])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_fails_cleanly_without_the_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = harness("million-flow", 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
