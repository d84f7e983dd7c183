"""Empirical validation of the Hoeffding sample-size bounds (Lemmas 3.3/3.4).

The lemmas promise: with ``R >= log((n - |S|)/delta) / (2 eps^2)`` walks
per node, ``Pr[|F1_hat - F1| >= eps (n - |S|) L] <= delta`` (and the
analogue for F2).  These tests measure the deviation across many
independent estimator runs against the exact DP values and check the
violation rate.  Hoeffding is loose in practice, so a clean pass is
expected with large margin; a failure here means either the estimator or
the bound inversion regressed.

The production path gets the same check: ``FastApproxEngine`` over a
``FlatWalkIndex`` built on the default engine, whose marginal gains must
lie within 2 eps of the exact DP's after each of up to three greedy picks
(one pinned case in the fast lane, a hypothesis property in the slow
lane).  eps is taken at delta = 1e-6, so a correct program essentially
never fails; a failure is a bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_fast import FastApproxEngine
from repro.graphs.generators import power_law_graph
from repro.hitting.bounds import (
    epsilon_for_sample_size,
    sample_size_f1,
    sample_size_f2,
)
from repro.hitting.exact import hit_probability_vector, hitting_time_vector
from repro.walks.estimators import estimate_f1, estimate_f2
from repro.walks.index import FlatWalkIndex

EPSILON = 0.1
DELTA = 0.1
TRIALS = 40


@pytest.fixture(scope="module")
def instance():
    graph = power_law_graph(40, 120, seed=5)
    targets = {0, 7, 19}
    length = 5
    return graph, targets, length


class TestF1Concentration:
    def test_bound_holds_empirically(self, instance):
        graph, targets, length = instance
        n_out = graph.num_nodes - len(targets)
        replicates = sample_size_f1(
            graph.num_nodes, len(targets), EPSILON, DELTA
        )
        exact = graph.num_nodes * length - float(
            hitting_time_vector(graph, targets, length).sum()
        )
        budget = EPSILON * n_out * length
        violations = 0
        for trial in range(TRIALS):
            estimate = estimate_f1(
                graph, targets, length, replicates, seed=1000 + trial
            )
            if abs(estimate - exact) >= budget:
                violations += 1
        assert violations / TRIALS <= DELTA

    def test_estimates_center_on_truth(self, instance):
        """Unbiasedness (Lemma 3.1): the mean estimate converges to F1."""
        graph, targets, length = instance
        exact = graph.num_nodes * length - float(
            hitting_time_vector(graph, targets, length).sum()
        )
        estimates = [
            estimate_f1(graph, targets, length, 50, seed=2000 + t)
            for t in range(TRIALS)
        ]
        margin = 0.02 * graph.num_nodes * length
        assert abs(np.mean(estimates) - exact) < margin


class TestF2Concentration:
    def test_bound_holds_empirically(self, instance):
        graph, targets, length = instance
        replicates = sample_size_f2(graph.num_nodes, EPSILON, DELTA)
        exact = float(hit_probability_vector(graph, targets, length).sum())
        budget = EPSILON * graph.num_nodes
        violations = 0
        for trial in range(TRIALS):
            estimate = estimate_f2(
                graph, targets, length, replicates, seed=3000 + trial
            )
            if abs(estimate - exact) >= budget:
                violations += 1
        assert violations / TRIALS <= DELTA

    def test_estimates_center_on_truth(self, instance):
        """Unbiasedness (Lemma 3.2)."""
        graph, targets, length = instance
        exact = float(hit_probability_vector(graph, targets, length).sum())
        estimates = [
            estimate_f2(graph, targets, length, 50, seed=4000 + t)
            for t in range(TRIALS)
        ]
        assert abs(np.mean(estimates) - exact) < 0.02 * graph.num_nodes

    def test_error_shrinks_with_r(self, instance):
        """Monte-Carlo 1/sqrt(R): quadrupling R should roughly halve the
        spread of the estimates."""
        graph, targets, length = instance
        exact = float(hit_probability_vector(graph, targets, length).sum())

        def spread(replicates: int) -> float:
            errors = [
                abs(
                    estimate_f2(
                        graph, targets, length, replicates, seed=5000 + t
                    )
                    - exact
                )
                for t in range(TRIALS)
            ]
            return float(np.mean(errors))

        loose = spread(8)
        tight = spread(128)
        assert tight < loose


# ----------------------------------------------------------------------
# The production gain engine against the exact DP, along a greedy run.
# ----------------------------------------------------------------------
GAIN_REPLICATES = 400
GAIN_DELTA = 1e-6


def _exact_objective(graph, targets, length, objective):
    if objective == "f1":
        return graph.num_nodes * length - float(
            hitting_time_vector(graph, targets, length).sum()
        )
    return float(hit_probability_vector(graph, targets, length).sum())


def _check_sampled_gains(num_nodes, num_edges, length, picks, graph_seed,
                         walk_seed, objective):
    """After each of ``picks`` greedy picks (and before the first), every
    node's ``gains_all() / R`` on the default engine's index lies within
    2 eps of its exact marginal gain, eps at delta = 1e-6 (Lemmas 3.3 and
    3.4: the scale is ``(n - |S|) L`` for f1 and ``n`` for f2)."""
    graph = power_law_graph(num_nodes, num_edges, seed=graph_seed)
    index = FlatWalkIndex.build(
        graph, length, GAIN_REPLICATES, seed=walk_seed
    )
    engine = FastApproxEngine(index, objective=objective)
    eps = epsilon_for_sample_size(num_nodes, GAIN_REPLICATES, GAIN_DELTA)
    selected: list[int] = []
    for step in range(picks + 1):
        sampled = engine.gains_all() / GAIN_REPLICATES
        base = _exact_objective(graph, selected, length, objective)
        exact = np.array([
            _exact_objective(graph, selected + [v], length, objective) - base
            for v in range(num_nodes)
        ])
        scale = (
            (num_nodes - len(selected)) * length if objective == "f1"
            else num_nodes
        )
        error = np.abs(sampled - exact)
        assert error.max() <= 2 * eps * scale, (
            f"node {int(error.argmax())}: sampled {sampled[error.argmax()]}"
            f", exact {exact[error.argmax()]}, bound {2 * eps * scale} "
            f"(S={selected})"
        )
        if step == picks:
            return
        sampled[selected] = -np.inf
        node = int(np.argmax(sampled))
        engine.select(node)
        selected.append(node)


@pytest.mark.parametrize("objective", ["f1", "f2"])
def test_sampled_gains_match_exact_dp(objective):
    _check_sampled_gains(12, 30, 5, 3, graph_seed=0, walk_seed=1,
                         objective=objective)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=12),
    density=st.floats(min_value=0.0, max_value=1.0),
    length=st.integers(min_value=1, max_value=5),
    picks=st.integers(min_value=0, max_value=3),
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    walk_seed=st.integers(min_value=0, max_value=2**32 - 1),
    objective=st.sampled_from(["f1", "f2"]),
)
def test_sampled_gains_match_exact_dp_property(
    num_nodes, density, length, picks, graph_seed, walk_seed, objective
):
    max_edges = num_nodes * (num_nodes - 1) // 2
    num_edges = max(1, round(density * max_edges))
    _check_sampled_gains(
        num_nodes, num_edges, length, min(picks, num_nodes - 1), graph_seed,
        walk_seed, objective,
    )
