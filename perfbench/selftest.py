"""Self-tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Covers the percentile rule, due-time latency under an injected stall,
span self time through nested wrappers, and the served-answer comparator.
"""

from __future__ import annotations

import os
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402

require_program()

import numpy as np  # noqa: E402

from layers import LayerTrace  # noqa: E402
from loadgen import (  # noqa: E402
    Outcome,
    Request,
    apportion,
    make_stream,
    run_open_loop,
)
from stats import median, tail  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 1001)]
        value, pct = tail(values, 99.0)
        self.assertEqual((value, pct), (990.0, 99.0))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_small_sample_lowers_the_percentile(self):
        values = [float(v) for v in np.random.default_rng(3).permutation(500)]
        value, pct = tail(values, 99.0)
        self.assertIn(value, values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 98.0)

    def test_tiny_sample_reports_its_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0], 99.0), (3.0, 100.0))

    def test_median_is_observed(self):
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.0)


class DueTimeLatency(unittest.TestCase):
    def test_stall_delays_later_requests(self):
        stall_at, stall = 3, 0.3
        requests = list(range(8))

        def send(request):
            if request == stall_at:
                time.sleep(stall)
            return 200, {}

        due = [0.02 * i for i in requests]
        outcomes = run_open_loop(due, requests, send, connections=1)
        after = outcomes[stall_at + 1]
        # Due 20 ms after the stalled request, sent once it returned.
        self.assertGreater(after.latency, stall - 0.05)
        self.assertGreater(after.late, stall - 0.05)
        self.assertLess(after.service, 0.05)
        self.assertLess(outcomes[0].latency, 0.05)

    def test_refuses_more_connections_than_processors(self):
        with self.assertRaises(ValueError):
            run_open_loop([0.0], [0], lambda r: (200, {}),
                          connections=(os.cpu_count() or 1) + 1)

    def test_stream_is_a_function_of_the_seed(self):
        first = make_stream(7, 30.0, 5.0, 100)
        self.assertEqual(first, make_stream(7, 30.0, 5.0, 100))
        self.assertNotEqual(first, make_stream(8, 30.0, 5.0, 100))
        self.assertEqual(len(first[0]), 150)

    def test_kind_counts_add_up(self):
        for count in range(1, 1200):
            self.assertEqual(sum(apportion(count).values()), count)

    def test_every_seed_sends_the_same_selects_and_min_targets(self):
        def fresh(seed):
            _, requests = make_stream(seed, 14.0, 28.0, 100)
            return {r for r in requests if r.kind in ("select", "min_targets")}

        self.assertEqual(fresh(7), fresh(8))


class NestedSpans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        trace = LayerTrace()

        def inner():
            time.sleep(0.10)

        wrapped_inner = trace.wrap(inner, "inner", None)

        def outer():
            time.sleep(0.05)
            wrapped_inner()
            wrapped_inner()

        trace.wrap(outer, "outer", None)()
        spans = trace.phase()["spans"]
        self.assertEqual(spans["inner"]["calls"], 2)
        self.assertEqual(spans["outer"]["calls"], 1)
        self.assertAlmostEqual(spans["inner"]["self_s"], 0.20, delta=0.03)
        self.assertAlmostEqual(spans["outer"]["self_s"], 0.05, delta=0.03)
        self.assertAlmostEqual(spans["outer"]["wall_s"], 0.25, delta=0.04)
        self.assertEqual(trace.phase()["spans"], {})


class ServedComparator(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.core.approx_fast import approx_greedy_fast
        from repro.core.coverage import min_targets_for_coverage
        from repro.graphs.generators import power_law_graph
        from repro.serve.schemas import encode_response
        from repro.walks.index import FlatWalkIndex

        cls.graph = power_law_graph(200, 800, seed=5)
        cls.index = FlatWalkIndex.build(cls.graph, 4, 20, seed=6)
        select = approx_greedy_fast(
            cls.graph, 7, 4, index=cls.index, objective="f2"
        )
        targets = (3, 17, 42)
        cls.pairs = [
            (Request("select", (("k", 7), ("objective", "f2"))),
             encode_response("select", select)),
            (Request("metrics", (("targets", targets),)),
             encode_response("metrics", cls.index.selection_metrics(targets))),
            (Request("min_targets", (("fraction", 0.3),)),
             encode_response("min_targets", min_targets_for_coverage(
                 cls.graph, 0.3, 4, index=cls.index))),
        ]

    def _failed(self, pairs):
        from workloads import compare_served

        outcomes = [(r, Outcome(status=200, body=b)) for r, b in pairs]
        return compare_served(outcomes, self.graph, self.index, 4)[0]

    def test_accepts_library_answers(self):
        self.assertEqual(self._failed(self.pairs), 0)

    def test_rejects_a_perturbed_gain(self):
        request, body = self.pairs[0]
        body = dict(body, gains=list(body["gains"]))
        body["gains"][-1] = float(np.nextafter(body["gains"][-1], np.inf))
        self.assertEqual(self._failed([(request, body)] + self.pairs[1:]), 1)

    def test_rejects_a_perturbed_metric(self):
        request, body = self.pairs[1]
        metrics = dict(body["metrics"])
        metrics["aht"] = float(np.nextafter(metrics["aht"], 0.0))
        pairs = [self.pairs[0], (request, {"metrics": metrics}), self.pairs[2]]
        self.assertEqual(self._failed(pairs), 1)

    def test_rejects_an_error_status(self):
        from workloads import compare_served

        outcomes = [(self.pairs[0][0], Outcome(status=503, body={}))]
        self.assertEqual(
            compare_served(outcomes, self.graph, self.index, 4)[0], 1
        )


if __name__ == "__main__":
    unittest.main()
