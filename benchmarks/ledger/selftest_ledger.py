"""Self-tests of the ledger harness (``run.py --selftest``, under 30 s).

They check the instrument, not the program: the percentile rule, the
self-time arithmetic, that instrumentation restores what it replaced,
that a seed fixes the generated inputs, the comparison verdicts, and —
with tiny ``--quick`` sizes — that the names the harness prints and the
names ``BENCHMARK.json`` declares are the same set.
"""

from __future__ import annotations

import re
import unittest
from concurrent.futures import ThreadPoolExecutor

import compare
import inputs
import run as ledger
import spans
from repro.serve.oracle import active_cells_estimate


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, want in ((5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0),
                        (45, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0),
                        (10000, 99.9)):
            pct, _ = spans.tail_percentile(list(range(n)))
            self.assertEqual(pct, want, f"n={n}")

    def test_value_is_nearest_rank(self):
        pct, value = spans.tail_percentile([float(i) for i in range(1, 101)])
        self.assertEqual((pct, value), (90.0, 90.0))
        self.assertEqual(spans.tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0))

    def test_quartiles_are_the_statistics_module_ones(self):
        import statistics
        values = [0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.36, 0.32, 0.34, 0.27]
        self.assertEqual(spans.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))


class SelfTime(unittest.TestCase):
    def tree(self):
        clock = FakeClock()
        log = spans.SpanLog(clock)
        with log.span("operation", op="op0"):          # [0, 10]
            clock.now = 1.0
            with log.span("layer.a"):                   # [1, 4]
                clock.now = 2.0
                with log.span("kernel"):                # [2, 3]
                    clock.now = 3.0
                clock.now = 4.0
            clock.now = 6.0
            with log.span("layer.b"):                   # [6, 9]
                clock.now = 9.0
            clock.now = 10.0
        return log

    def test_self_time_is_duration_minus_children(self):
        log = self.tree()
        by_name = {s.name: s for s in log.spans}
        self_t = spans.self_times(log.spans)
        self.assertAlmostEqual(self_t[by_name["operation"].id], 10 - 3 - 3)
        self.assertAlmostEqual(self_t[by_name["layer.a"].id], 3 - 1)
        self.assertAlmostEqual(self_t[by_name["kernel"].id], 1)
        self.assertAlmostEqual(sum(self_t.values()), by_name["operation"].dur)
        self.assertTrue(all(s.op == "op0" for s in log.spans))

    def test_overlapping_and_overhanging_children_count_once(self):
        mk = lambda i, a, b, p: spans.Span(id=i, name=str(i), start=a, end=b, parent=p)
        tree = [mk(1, 0.0, 10.0, None), mk(2, 1.0, 5.0, 1), mk(3, 4.0, 7.0, 1),
                mk(4, 9.0, 12.0, 1)]          # 3 overlaps 2; 4 overhangs 1
        self.assertAlmostEqual(spans.self_times(tree)[1], 10 - (6 + 1))

    def test_totals_by_op(self):
        log = self.tree()
        self.assertEqual(spans.totals_by_op(log.spans, "layer.a"), [3.0])


class Instrumentation(unittest.TestCase):
    def test_restores_functions_and_classmethods(self):
        class Target:
            @classmethod
            def make(cls, x):
                return (cls.__name__, x)

            def method(self, x):
                return x + 1

        raw_make, raw_method = vars(Target)["make"], vars(Target)["method"]
        log = spans.SpanLog()
        self.assertTrue(log.instrument(Target, "make", "t.make"))
        self.assertTrue(log.instrument(Target, "method", "t.method"))
        self.assertFalse(log.instrument(Target, "absent", "t.absent"))
        self.assertEqual(Target.make(1), ("Target", 1))
        self.assertEqual(Target().method(1), 2)
        self.assertEqual(sorted(s.name for s in log.spans), ["t.make", "t.method"])
        log.uninstrument()
        self.assertIs(vars(Target)["make"], raw_make)
        self.assertIs(vars(Target)["method"], raw_method)


class GeneratedInputs(unittest.TestCase):
    def generate(self, seed):
        q = inputs.QUICK
        return {
            "cavity3d-steady": inputs.steady_input("cavity3d-steady", seed, q),
            "sphere-kbc-unfused": inputs.steady_input("sphere-kbc-unfused", seed, q),
            "coldstart-mix": inputs.coldstart_inputs(seed, q, 6),
            "serve-flood": inputs.serve_jobs(seed, q, 3, 2)[0],
        }

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        a, b, c = self.generate(7), self.generate(7), self.generate(8)
        for name in a:
            self.assertEqual(inputs.input_digest(a[name]),
                             inputs.input_digest(b[name]), name)
            self.assertNotEqual(inputs.input_digest(a[name]),
                                inputs.input_digest(c[name]), name)

    def test_seed_leaves_the_amount_of_work_alone(self):
        for name in ("cavity3d-steady", "sphere-kbc-unfused"):
            a, c = self.generate(7)[name], self.generate(8)[name]
            self.assertEqual(active_cells_estimate(a.spec),
                             active_cells_estimate(c.spec))
        jobs = self.generate(7)["serve-flood"]
        shapes = [sorted((j.spec.base_shape, j.steps) for j in batch)
                  for tenant in jobs for batch in tenant]
        self.assertTrue(all(s == shapes[0] for s in shapes))

    def test_half_the_served_jobs_repeat_a_spec(self):
        _, meta = inputs.serve_jobs(7, inputs.QUICK, 3, 4)
        repeats = sum(1 for _, rep in meta.values() if rep)
        self.assertAlmostEqual(repeats / len(meta), 0.5, delta=0.1)


class Verdicts(unittest.TestCase):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]

    def test_gain_regression_same_unresolved(self):
        faster = [p * 0.8 for p in self.parent]
        slower = [p * 1.2 for p in self.parent]
        v = compare.verdict
        self.assertEqual(v(self.parent, faster, "lower", 0.1)["verdict"], "gain")
        self.assertEqual(v(self.parent, slower, "lower", 0.1)["verdict"], "regression")
        self.assertEqual(v(self.parent, faster, "higher", 0.1)["verdict"], "regression")
        self.assertEqual(v(self.parent, list(reversed(self.parent)), "lower",
                           0.1)["verdict"], "same")
        noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0, 1.6, 0.5, 1.3, 0.8]
        self.assertEqual(v(noisy, list(reversed(noisy)), "lower", 0.1)["verdict"],
                         "unresolved")

    def test_ties_count_for_neither_side(self):
        r = compare.verdict(self.parent, list(self.parent), "lower", 0.1)
        self.assertEqual((r["wins"], r["losses"]), (0, 0))


class Names(unittest.TestCase):
    """What the harness prints and what BENCHMARK.json declares, both ways."""

    @classmethod
    def setUpClass(cls):
        cls.bench = ledger.load_benchmark()
        names = [w["name"] for w in cls.bench["workloads"]]
        jobs = [(n, t) for t in (1, 0) for n in names]
        with ThreadPoolExecutor(max_workers=2) as pool:  # not a measurement
            records = list(pool.map(
                lambda j: ledger.run_child(j[0], 3, 0.5, j[1], quick=True), jobs))
        cls.records = dict(zip(jobs, records))

    def test_benchmark_json_obeys_the_contract(self):
        b = self.bench
        self.assertEqual(sorted(b), sorted(["command", "paths", "run_seconds",
                                            "workloads", "end_to_end", "per_layer"]))
        name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
        unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
        seen = set()
        for entry in b["workloads"] + b["end_to_end"] + b["per_layer"]:
            self.assertRegex(entry["name"], name_re)
            self.assertNotIn(entry["name"], seen)
            seen.add(entry["name"])
        for w in b["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], unit_re)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup], [("s", "lower")])
        self.assertEqual(max(m["bound"] for m in b["end_to_end"]), setup[0]["bound"])
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(len(b["per_layer"]) <= 128 and len(b["end_to_end"]) <= 16)

    def test_every_run_is_correct(self):
        for job, rec in self.records.items():
            self.assertEqual(rec["failed"], 0, (job, rec["failures"]))
            self.assertGreaterEqual(rec["attempted"], 1)

    def test_end_to_end_names_match_and_are_never_zero(self):
        declared = {m["name"] for m in self.bench["end_to_end"]}
        for (name, trace), rec in self.records.items():
            if not trace:
                self.assertEqual(set(rec["end_to_end"]), declared, name)
                for metric, value in rec["end_to_end"].items():
                    self.assertGreater(value, 0, (name, metric))

    def test_per_layer_names_match_both_ways(self):
        declared = {m["name"] for m in self.bench["per_layer"]}
        produced = set()
        for (name, trace), rec in self.records.items():
            if trace:
                self.assertLessEqual(set(rec["per_layer"]), declared, name)
                produced |= set(rec["per_layer"])
                printed = ledger.contract_metrics(rec, self.bench)
                self.assertEqual(set(printed), declared, name)
                self.assertLess(rec["self_time_residual"], 0.05, name)
        self.assertEqual(produced, declared)

    def test_counts_repeat_exactly(self):
        again = ledger.run_child("cavity3d-steady", 3, 0.5, 1, quick=True)
        first = self.records[("cavity3d-steady", 1)]
        for metric in ("grid.active_cells", "backend.kernels_per_step",
                       "gpu.bytes_per_step", "gpu.atomic_bytes_per_step",
                       "gpu.model_mlups", "gpu.model_memory_bytes"):
            self.assertEqual(again["per_layer"][metric],
                             first["per_layer"][metric], metric)
        self.assertEqual(again["inputs_digest"], first["inputs_digest"])

    def test_an_undeclared_metric_is_refused(self):
        rec = dict(self.records[("serve-flood", 1)])
        rec["per_layer"] = {**rec["per_layer"], "serve.made_up": 1.0}
        with self.assertRaises(RuntimeError):
            ledger.contract_metrics(rec, self.bench)


if __name__ == "__main__":
    unittest.main()
