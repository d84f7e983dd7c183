"""Tests for the Algorithm 2 Monte-Carlo estimators."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import complete_graph, path_graph
from repro.hitting.exact import hit_probability_vector, hitting_time_vector
from repro.core.objectives import F1Objective, F2Objective
from repro.walks.backends import get_engine
from repro.walks.rng import resolve_rng
from repro.walks.estimators import (
    estimate_f1,
    estimate_f2,
    estimate_hit_probability,
    estimate_hitting_time,
    estimate_objectives,
    estimate_pairwise_hitting_time,
)


class TestHittingTimeEstimator:
    def test_source_in_targets_is_zero(self, small_power_law):
        assert estimate_hitting_time(small_power_law, 3, {3}, 5, 50, seed=1) == 0.0

    def test_deterministic_graph_exact(self):
        # On a path's endpoint with target = its only neighbor the walk hits
        # at hop 1 with certainty.
        g = path_graph(4)
        assert estimate_hitting_time(g, 0, {1}, 3, 25, seed=2) == 1.0

    def test_converges_to_dp(self, small_power_law):
        targets = {0, 7}
        length = 6
        exact = hitting_time_vector(small_power_law, targets, length)
        est = estimate_hitting_time(
            small_power_law, 12, targets, length, 20_000, seed=3
        )
        assert est == pytest.approx(exact[12], abs=0.1)

    def test_miss_counts_as_length(self):
        # Disconnected source can never hit: estimator must return L.
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert estimate_hitting_time(g, 2, {0}, 7, 40, seed=4) == 7.0

    def test_pairwise_special_case(self, small_power_law):
        a = estimate_pairwise_hitting_time(small_power_law, 2, 5, 4, 500, seed=9)
        b = estimate_hitting_time(small_power_law, 2, {5}, 4, 500, seed=9)
        assert a == b


class TestHitProbabilityEstimator:
    def test_in_targets(self, small_power_law):
        assert estimate_hit_probability(small_power_law, 1, {1}, 4, 30, seed=1) == 1.0

    def test_unreachable(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert estimate_hit_probability(g, 2, {0}, 9, 30, seed=1) == 0.0

    def test_converges_to_dp(self, small_power_law):
        targets = {4}
        exact = hit_probability_vector(small_power_law, targets, 5)
        est = estimate_hit_probability(
            small_power_law, 20, targets, 5, 20_000, seed=5
        )
        assert est == pytest.approx(exact[20], abs=0.02)

    def test_range(self, small_power_law):
        est = estimate_hit_probability(small_power_law, 0, {9}, 5, 100, seed=6)
        assert 0.0 <= est <= 1.0


class TestObjectiveEstimators:
    def test_f1_converges(self, small_power_law):
        S = {0, 9, 21}
        exact = F1Objective(small_power_law, 5).value(S)
        est = estimate_f1(small_power_law, S, 5, 3_000, seed=7)
        assert est == pytest.approx(exact, rel=0.05)

    def test_f2_converges(self, small_power_law):
        S = {0, 9, 21}
        exact = F2Objective(small_power_law, 5).value(S)
        est = estimate_f2(small_power_law, S, 5, 3_000, seed=8)
        assert est == pytest.approx(exact, rel=0.05)

    def test_empty_set(self, small_power_law):
        est = estimate_objectives(small_power_law, set(), 5, 20, seed=1)
        assert est.f1 == 0.0
        assert est.f2 == 0.0

    def test_full_set(self, small_power_law):
        n = small_power_law.num_nodes
        est = estimate_objectives(small_power_law, set(range(n)), 5, 20, seed=1)
        assert est.f1 == n * 5
        assert est.f2 == n

    def test_f2_includes_members(self, small_power_law):
        # F2 >= |S| always: members hit at hop 0.
        est = estimate_f2(small_power_law, {1, 2, 3}, 4, 50, seed=2)
        assert est >= 3.0

    def test_complete_graph_closed_form(self):
        n, length = 8, 5
        g = complete_graph(n)
        q = 1 / (n - 1)
        h = sum((1 - q) ** (i - 1) for i in range(1, length + 1))
        est = estimate_objectives(g, {0}, length, 30_000, seed=3)
        assert est.f1 == pytest.approx(n * length - (n - 1) * h, rel=0.02)

    def test_aggregation_matches_walk_oracle(self, small_power_law):
        # Algorithm 2's totals recomputed from the very walks the estimator
        # draws: same engine, same stream, one chunk.
        targets, length, reps = {3, 11}, 4, 30
        n = small_power_law.num_nodes
        mask = np.zeros(n, dtype=bool)
        mask[sorted(targets)] = True
        outside = np.flatnonzero(~mask)
        hits = get_engine(None).walk_first_hits(
            small_power_law, np.repeat(outside, reps), length, mask,
            seed=resolve_rng(13),
        )
        hit_count = sum(1 for h in hits.tolist() if h >= 0)
        hop_total = sum(h for h in hits.tolist() if h >= 0)
        misses = outside.size * reps - hit_count
        est = estimate_objectives(
            small_power_law, targets, length, reps, seed=13
        )
        assert est.f1 == n * length - (hop_total + misses * length) / reps
        assert est.f2 == hit_count / reps + len(targets)

    def test_unbiasedness_across_seeds(self, small_power_law):
        # Mean of many independent small-R estimates approaches the exact
        # value (Lemma 3.1/3.2 say each is unbiased).
        S = {3, 14}
        exact = F1Objective(small_power_law, 4).value(S)
        estimates = [
            estimate_f1(small_power_law, S, 4, 10, seed=seed)
            for seed in range(60)
        ]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.05)


class TestValidation:
    def test_bad_length(self, small_power_law):
        with pytest.raises(ParameterError):
            estimate_f1(small_power_law, {0}, -1, 10)

    def test_bad_samples(self, small_power_law):
        with pytest.raises(ParameterError):
            estimate_f1(small_power_law, {0}, 3, 0)

    def test_bad_targets(self, small_power_law):
        with pytest.raises(ParameterError):
            estimate_f1(small_power_law, {10**6}, 3, 10)
