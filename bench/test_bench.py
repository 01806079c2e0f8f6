"""Tests of the benchmark itself: output checks, tracing and the run contract.

    python3 bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Workload, expect_equal, gaussian_binomial  # noqa: E402


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.lib = run.import_library()
        self.f2 = self.lib.gf.make_field(2)
        blocks = tuple(self.lib.grassmann.iter_subspaces(4, 2, self.f2))
        self.trivial = self.lib.verifier.DesignCandidate(field=self.f2, n=4, k=2, blocks=blocks)

    def verify_job(self, lam):
        expected = (True, lam, True, True, ((lam, 15),), None)
        return Job(f"lambda {lam}",
                   lambda: self.lib.verifier.verify_design(self.trivial, 1),
                   workloads._report_outcome,
                   expect_equal(lambda: expected))

    def test_wrong_expected_value_counts_as_failure(self):
        right = gaussian_binomial(3, 1, 2)  # [n-t k-t]_q = 7
        records = []
        workload = Workload([self.verify_job(right), self.verify_job(right + 1)])
        run.run_pass(workload, records)
        failures = run.check_records(records, workload)
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith(f"lambda {right + 1}:"))

    def test_raising_job_counts_as_failure(self):
        job = Job("raises", lambda: self.lib.verifier.verify_design(self.trivial, 3),
                  workloads._report_outcome, expect_equal(lambda: None))
        records = []
        workload = Workload([job])
        run.run_pass(workload, records)
        self.assertIn("raised DimensionMismatch", run.check_records(records, workload)[0])

    def test_vector_set_oracle_agrees_on_a_failing_candidate(self):
        blocks = self.trivial.blocks[:20]
        cand = self.lib.verifier.DesignCandidate(field=self.f2, n=4, k=2, blocks=blocks)
        got = workloads._report_outcome(self.lib.verifier.verify_design(cand, 1))
        self.assertFalse(got[0])
        self.assertEqual(got, workloads._mask_report(self.lib, 2, 4, 2, 1, blocks))

    def test_search_check_needs_the_pinned_digest(self):
        result = self.lib.search.search_design(2, 4, 2, 1, 1)
        outcome = workloads._search_outcome(2, 4, 2)(result)
        good = workloads._check_search(self.lib, 2, 4, 2, 1, 1, outcome[1])
        bad = workloads._check_search(self.lib, 2, 4, 2, 1, 1, "0" * 64)
        self.assertIsNone(good(outcome))
        self.assertIn("differs from pinned", bad(outcome))
        # a non-design under the pinned digest still fails the vector-set check
        tampered = ("design", outcome[1], outcome[2][:-1] + outcome[2][:1])
        fresh = workloads._check_search(self.lib, 2, 4, 2, 1, 1, outcome[1])
        self.assertIn("vector-set", fresh(tampered))

    def test_klp_check_rejects_a_wrong_root(self):
        q, n, k, t = 2, 3000, 75, 1
        r = self.lib.klp.klp_report(q, n, k, t)
        fields = (r.c1_bound, r.c3_bound, r.A_upper, r.B_lower, r.A_exact, r.B_exact,
                  r.block_budget, r.rhs_final, r.feasible)
        check = workloads._check_klp(q, n, k, t)
        self.assertIsNone(check(fields))
        off_by_one = r.rhs_final + r.c1_bound * r.A_upper.bit_length() ** 8 * q ** (24 * k * 4 // 5)
        self.assertIsNotNone(check(fields[:7] + (off_by_one, r.feasible)))


class Tracing(unittest.TestCase):
    def setUp(self):
        self.lib = run.import_library()
        self.tracer = spans.Tracer()

    def test_wrappers_reach_every_namespace_and_are_removed(self):
        gf, grassmann = self.lib.gf, self.lib.grassmann
        originals = (gf.mat_mul, self.lib.verifier.mat_mul,
                     grassmann.SubspaceBasis.__dict__["vector_mask"])
        installation = spans.install(self.tracer)
        try:
            for module in (gf, self.lib.verifier, self.lib.incidence, self.lib.localdecode):
                self.assertIsNot(module.mat_mul, originals[0], module.__name__)
            self.assertIs(self.lib.verifier.mat_mul, gf.mat_mul)
        finally:
            installation.uninstall()
        self.assertIs(gf.mat_mul, originals[0])
        self.assertIs(self.lib.verifier.mat_mul, originals[1])
        self.assertIs(grassmann.SubspaceBasis.__dict__["vector_mask"], originals[2])

    def test_self_time_excludes_child_spans(self):
        inner = self.tracer.span("inner", lambda: time.sleep(0.02))

        def body():
            time.sleep(0.01)
            inner()
            inner()

        self.tracer.span("outer", body)()
        outer, child = self.tracer.spans["outer"], self.tracer.spans["inner"]
        self.assertEqual(child.calls, 2)
        self.assertAlmostEqual(outer.self_s, outer.total_s - child.total_s, places=9)
        self.assertLess(outer.self_s, 0.02)

    def test_counts_from_a_traced_verify(self):
        f2 = self.lib.gf.make_field(2)
        installation = spans.install(self.tracer)
        try:
            blocks = tuple(self.lib.grassmann.iter_subspaces(4, 2, f2))
            cand = self.lib.verifier.DesignCandidate(field=f2, n=4, k=2, blocks=blocks)
            self.lib.verifier.verify_design(cand, 1)
            _ = blocks[0].vector_mask, blocks[0].vector_mask
        finally:
            installation.uninstall()
        layer = run.per_layer_metrics(self.tracer)
        # 35 blocks, then 15 points and 3 patterns inside verify_design
        self.assertEqual(layer["grassmann.iter_subspaces.yielded"], 35 + 15 + 3)
        self.assertEqual(layer["verifier.patterns_pushed"], 35 * 3)
        self.assertEqual(layer["gf.mat_mul.calls"], 35 * 3)
        self.assertEqual(layer["grassmann.vector_mask.computed"], 1)
        self.assertGreater(layer["verifier.verify_design.self_s"], 0)


class SpeedCorrection(unittest.TestCase):
    def test_probe_times_a_call_and_restores_the_timer(self):
        before = signal.getsignal(signal.SIGALRM)
        result, seconds, speed_ = speed.SpeedProbe().time(lambda: time.sleep(0.05) or 7)
        self.assertEqual(result, 7)
        self.assertGreater(seconds, 0.04)
        self.assertGreater(speed_, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_raising_call_is_returned(self):
        with tempfile.TemporaryDirectory() as tmp:
            for probe in (speed.SpeedProbe(), speed.ChildProbe(sys.executable, tmp, None)):
                result, _, speed_ = probe.time(lambda: 1 / 0)
                self.assertIsInstance(result, ZeroDivisionError)
                self.assertGreater(speed_, 0)

    def test_a_known_sensitivity_is_taken_out(self):
        for sensitivity in (1.0, 0.25):
            samples = [(2.0 * f**sensitivity, f, sensitivity) for f in (0.7, 1.0, 1.4)]
            for value in speed.correct(samples):
                self.assertAlmostEqual(value, 2.0)

    def test_a_slower_program_reads_slower(self):
        # the same machine-speed history, the program 20% slower throughout
        speeds = (0.7, 1.4, 1.0, 0.8, 1.3)
        base = statistics.median(speed.correct([(f, f, 1.0) for f in speeds]))
        slower = statistics.median(speed.correct([(1.2 * f, f, 1.0) for f in speeds]))
        self.assertAlmostEqual(slower / base, 1.2, places=6)


class RunContract(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        p, value, beyond = run.tail_percentile([float(i) for i in range(25)])
        self.assertEqual((p, value, beyond), (60, 14.0, 10))

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = run.end_to_end_metrics([1.0], [1.0] * 20, [1.0], 1.0, 20, 0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: unit for k, (_, unit) in e2e.items()})
        layer = {**run.per_layer_metrics(spans.Tracer()), **run.cli_layer({}),
                 "trace.overhead_s": 0.0}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: run._unit(k) for k in layer})

    def test_transcripts_parse(self):
        text = (ROOT / "docs" / "worked_examples.md").read_text(encoding="utf-8")
        commands = [c for block in workloads.parse_transcripts(text) for c in block]
        self.assertGreaterEqual(len(commands), 12)
        self.assertEqual(commands[0], ("qbinom --q 2 --n 4 --k 2", "35\n"))

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            if (ROOT / "BENCHMARK.json").is_file():
                shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
