#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_benchmark.py [-v]

Each check test breaks one correctness check on purpose (--break) and
asserts that the benchmark rejects the run: exit status 1, "correct":
false on the result line, and the failed check named on stdout. Clean
runs of every workload must pass, the storm verdict fingerprint must
repeat across runs, the traced run must reconcile, the result line must
carry exactly the metrics BENCHMARK.json names, and compare.py must
classify and refuse as documented. Runs are short (--seconds 1); the
first one builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)
sys.path.insert(0, PKG)
import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def run(workload, *extra, trace=0, seed=3, seconds=1):
    cmd = [sys.executable, os.path.join(PKG, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout


class CleanRuns(unittest.TestCase):
    def test_every_workload_passes_and_reports_every_metric(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for w in [x["name"] for x in BENCH["workloads"]]:
            with self.subTest(workload=w):
                rc, result, out = run(w)
                self.assertEqual(rc, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    e2e)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_reconcile_and_report_every_layer(self):
        layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in [x["name"] for x in BENCH["workloads"]]:
            with self.subTest(workload=w):
                rc, result, out = run(w, trace=1)
                self.assertEqual(rc, 0, out)
                self.assertIn("reconcile:", out)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    layers)
                self.assertLessEqual(
                    abs(result["metrics"]["bench.reconcile_gap_pct"]
                        ["value"]), 3.0)

    def test_storm_fingerprint_repeats_across_runs(self):
        rc, _, out = run("storm")
        self.assertEqual(rc, 0, out)
        fp = [l.split()[-1] for l in out.splitlines()
              if l.startswith("storm run fingerprint")][0]
        rc, result, out = run("storm", "--expect-fingerprint", fp)
        self.assertEqual(rc, 0, out)
        rc, result, out = run("storm", "--expect-fingerprint", fp,
                              "--break", "fingerprint-drift")
        self.assertEqual(rc, 1, out)
        self.assertFalse(result["correct"])


class BrokenChecks(unittest.TestCase):
    def assertRejected(self, workload, check, expect, trace=0):
        rc, result, out = run(workload, "--break", check, trace=trace)
        self.assertEqual(rc, 1, out)
        self.assertFalse(result["correct"])
        self.assertIn("CHECK FAILED", out)
        self.assertIn(expect, out)

    def test_storm_corrupt_verdict(self):
        self.assertRejected("storm", "corrupt-verdict", "got no verdict")

    def test_storm_miscounted_distances(self):
        self.assertRejected("storm", "miscount-distance", "m(m-1)/2")

    def test_stream_dropped_span(self):
        self.assertRejected("stream-storm", "drop-span", "!= sent")

    def test_stream_recovery_drift(self):
        self.assertRejected("stream-storm", "recovery-drift",
                            "recovered serving fingerprint")

    def test_stream_storm_incident_mismatch(self):
        self.assertRejected("stream-storm", "incident-mismatch",
                            "differ from a batch analysis")

    def test_ingest_wire_skipped_defect(self):
        self.assertRejected("ingest-wire", "skip-defect", "want")

    def test_ingest_wire_query_mismatch(self):
        self.assertRejected("ingest-wire", "query-mismatch",
                            "brute-force filter")

    def test_lost_span_fails_reconciliation(self):
        for w in [x["name"] for x in BENCH["workloads"]]:
            with self.subTest(workload=w):
                self.assertRejected(w, "lose-span",
                                    "not covered by their spans", trace=1)


class Launcher(unittest.TestCase):
    def test_refuses_without_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PKG, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "storm",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Compare(unittest.TestCase):
    def test_verdicts(self):
        base = {s: 100.0 + s % 3 for s in range(10)}
        faster = {s: v * 0.8 for s, v in base.items()}
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1)[0],
                         "better")
        slower = {s: v * 1.2 for s, v in base.items()}
        self.assertEqual(compare.verdict(base, slower, "lower", 0.1)[0],
                         "worse")
        same = {s: v * 1.001 for s, v in base.items()}
        self.assertEqual(compare.verdict(base, same, "lower", 0.1)[0],
                         "unchanged")
        noisy = {s: 100.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)[0],
                         "unresolved")

    def refuses(self, field, base_value, head_value):
        out = os.path.join(ROOT, ".bench_out", "cmp-%d" % os.getpid())
        shutil.rmtree(out, ignore_errors=True)
        try:
            for side, value in (("base", base_value), ("head", head_value)):
                os.makedirs(os.path.join(out, side))
                host = {"nproc": 4, "avx2_compiled": True,
                        "avx2_active": True, "compiler": "GNU",
                        "build_type": "Release", "aslr": False,
                        "commit": side}
                host[field] = value
                rec = {"workload": "storm", "seed": 1, "trace": 0,
                       "host": host,
                       "end_to_end": {m["name"]: {"value": 1.0,
                                                  "unit": m["unit"]}
                                      for m in BENCH["end_to_end"]}}
                with open(os.path.join(out, side,
                                       "result-storm-s1-t0.json"), "w") as f:
                    json.dump(rec, f)
            return compare.main(["compare", os.path.join(out, "base"),
                                 os.path.join(out, "head")])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def test_refuses_other_hosts(self):
        self.assertEqual(self.refuses("nproc", 4, 8), 2)

    def test_refuses_mixed_address_randomization(self):
        self.assertEqual(self.refuses("aslr", False, True), 2)

    def test_compares_same_host(self):
        self.assertEqual(self.refuses("commit", "a", "b"), 0)

if __name__ == "__main__":
    unittest.main()
