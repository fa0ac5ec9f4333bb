"""Self-tests of the benchmark's own arithmetic, contract and seeding.

Run from the repository root::

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: these tests exercise the
benchmark, not the program, and stay out of the program's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from percentiles import MIN_BEYOND, dumps_strict, percentile, valid_name  # noqa: E402
from repro.loadgen import WorkloadSpec  # noqa: E402
from repro.loadgen.workload import zipf_weights  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(list(range(1, 1000)), 0.99), (None, 999, 9))
        self.assertEqual(percentile(list(range(1, 1001)), 0.99), (990, 1000, MIN_BEYOND))

    def test_median_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(list(range(19)), 0.5), (None, 19, 9))
        self.assertEqual(percentile(list(range(20, 0, -1)), 0.5), (10, 20, 10))

    def test_no_samples(self):
        self.assertEqual(percentile([], 0.5), (None, 0, 0))


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        self.assertEqual(spans.covered([(1, 3), (2, 5), (8, 12)], 0, 10), 6)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(spans.covered([(-5, 2), (9, 20)], 0, 10), 3)

    def test_span_minus_covered_children(self):
        parent = spans.Span(1, "parent", "a", None)
        parent.start, parent.end = 0, 100
        first = spans.Span(2, "first", "b", parent)
        first.start, first.end = 10, 40
        second = spans.Span(3, "second", "b", parent)
        second.start, second.end = 30, 60
        self.assertEqual(spans.self_times([parent, first, second]), {1: 50, 2: 30, 3: 30})
        self.assertEqual(second.request, 1)

    def test_wrapped_layers_add_up_to_the_root(self):
        class Inner:
            def work(self, channel):
                return sum(range(20000))

        class Outer:
            def __init__(self):
                self.inner = Inner()

            def call(self, channel):
                sum(range(20000))
                return self.inner.work(channel)

        tracer = spans.Tracer(
            [(Outer, ("call",), "outer_ms", None), (Inner, ("work",), "inner_ms", None)], "outer_ms"
        )
        original = Outer.__dict__["call"]
        outer = Outer()
        with tracer.installed():
            self.assertIsNot(Outer.__dict__["call"], original)
            for _ in range(3):
                with tracer.root("op"):
                    outer.call("channel-1")
        self.assertIs(Outer.__dict__["call"], original)
        totals = tracer.layer_totals()
        self.assertEqual(totals["outer_ms"]["calls"], 3)
        self.assertEqual(totals["inner_ms"]["calls"], 3)
        shares = sum(entry["share"] for entry in totals.values())
        self.assertAlmostEqual(shares, 1.0, places=9)
        requests = {span.request for span in tracer.spans}
        self.assertEqual(len(requests), 3)


class Contract(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        for entry in self.spec["workloads"]:
            self.assertEqual(entry["why"], WORKLOADS[entry["name"]].why)

    def test_end_to_end_names_and_units_match(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END
        )
        self.assertIn("setup_s", run.END_TO_END)

    def test_per_layer_names_and_units_match(self):
        expected = {layers.share_name(name): "ratio" for name in layers.LAYER_TIMES}
        expected.update(run.COUNTS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, expected)

    def test_names_use_the_allowed_charset(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_name(name), name)
        self.assertFalse(valid_name("bad name"))
        self.assertFalse(valid_name("_leading"))

    def test_results_refuse_nan(self):
        with self.assertRaises(ValueError):
            dumps_strict({"metrics": {"x": {"value": float("nan"), "unit": "ms"}}})
        with self.assertRaises(ValueError):
            dumps_strict({"value": float("inf")})


class Traffic(unittest.TestCase):
    def test_audiences_follow_zipf_by_chat_rate(self):
        spec = WorkloadSpec(channels=4, viewers=100, duration=900.0, zipf_exponent=1.0)
        fleet = workloads.balanced_fleet(spec, 3, (653.0, 3259.0))
        busiest_first = sorted(fleet.plans, key=workloads.chat_rate, reverse=True)
        self.assertEqual(
            [plan.viewers for plan in busiest_first],
            [max(1, int(round(100 * float(w)))) for w in zipf_weights(4, 1.0)],
        )
        self.assertTrue(all(plan.plays for plan in fleet.plans))

    def test_open_loop_rate_counts_busy_time(self):
        result = workloads.RoundResult(
            traced=False, setup_s=0.1, wall_s=10.0, busy_s=1.0, events=100, samples={},
            attempted=100, failures=[], fingerprints={}, gateway={},
        )
        self.assertEqual(WORKLOADS["soak-live"].events_per_s(result), 10.0)
        self.assertEqual(
            WORKLOADS["recorded-reads"].events_per_s(result), 100 / (1.0 / workloads.CLIENTS)
        )


class Seeds(unittest.TestCase):
    def test_second_seed_changes_inputs_and_still_passes(self):
        workload = WORKLOADS["durable-wire"]
        first, second = workload.synthesize(run.DEFAULT_SEED), workload.synthesize(run.DEFAULT_SEED + 1)
        self.assertNotEqual(
            [batch.events for batch in first.batches], [batch.events for batch in second.batches]
        )
        again = workload.synthesize(run.DEFAULT_SEED)
        self.assertEqual(
            [batch.events for batch in first.batches], [batch.events for batch in again.batches]
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(
                ["--workload", "durable-wire", "--seed", str(run.DEFAULT_SEED + 1), "--seconds", "1"]
            )
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
