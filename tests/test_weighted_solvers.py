"""Tests for the weighted/directed domination solvers."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph
from repro.graphs.weighted import WeightedDiGraph
from repro.core.approx_fast import approx_greedy_fast
from repro.core.dp_greedy import dpf1, dpf2
from repro.core.weighted import (
    WeightedF1Objective,
    WeightedF2Objective,
    build_weighted_index,
    weighted_approx_greedy,
    weighted_dpf1,
    weighted_dpf2,
)
from repro.walks.alias import weighted_batch_walks
from repro.walks.index import FlatWalkIndex, walker_major_starts


@pytest.fixture(scope="module")
def unit_digraph():
    """A unit-weight lift of a small undirected graph."""
    return WeightedDiGraph.from_undirected(power_law_graph(60, 180, seed=17))


class TestWeightedObjectives:
    def test_match_unweighted_on_unit_lift(self, unit_digraph, small_power_law):
        from repro.core.objectives import F1Objective, F2Objective

        wf1 = WeightedF1Objective(unit_digraph, 4)
        wf2 = WeightedF2Objective(unit_digraph, 4)
        f1 = F1Objective(small_power_law, 4)
        f2 = F2Objective(small_power_law, 4)
        for targets in ({0}, {1, 5}, {2, 9, 20}):
            assert wf1.value(targets) == pytest.approx(f1.value(targets))
            assert wf2.value(targets) == pytest.approx(f2.value(targets))

    def test_negative_length(self, unit_digraph):
        with pytest.raises(ParameterError):
            WeightedF1Objective(unit_digraph, -1)


class TestWeightedDpGreedy:
    def test_matches_unweighted_dp_on_unit_lift(self, unit_digraph, small_power_law):
        assert weighted_dpf1(unit_digraph, 4, 4).selected == dpf1(
            small_power_law, 4, 4
        ).selected
        assert weighted_dpf2(unit_digraph, 4, 4).selected == dpf2(
            small_power_law, 4, 4
        ).selected

    def test_weights_change_selection(self):
        # Directed star variants: node 0 points at 1..5; every other node
        # points at node 1 with huge weight, so walks funnel into 1.
        edges = [(0, i, 1.0) for i in range(1, 6)]
        edges += [(i, 1, 50.0) for i in range(2, 6)]
        edges += [(i, 0, 1.0) for i in range(2, 6)]
        g = WeightedDiGraph.from_edges(edges)
        result = weighted_dpf2(g, 1, 2)
        assert result.selected == (1,)


class TestWeightedApproxGreedy:
    def test_runs_and_distinct(self, unit_digraph):
        result = weighted_approx_greedy(
            unit_digraph, 6, 4, num_replicates=20, seed=1, objective="f2"
        )
        assert len(set(result.selected)) == 6
        assert result.params["weighted"] is True

    def test_unit_lift_close_to_unweighted(self, unit_digraph, small_power_law):
        # Same estimator, same graph distribution: objective values of the
        # two selections should be near-identical.
        from repro.core.objectives import F2Objective

        weighted = weighted_approx_greedy(
            unit_digraph, 5, 4, num_replicates=150, seed=5, objective="f2"
        )
        unweighted = approx_greedy_fast(
            small_power_law, 5, 4, num_replicates=150, seed=5, objective="f2"
        )
        objective = F2Objective(small_power_law, 4)
        assert objective.value(set(weighted.selected)) >= 0.95 * objective.value(
            set(unweighted.selected)
        )

    def test_lazy_matches_full(self, unit_digraph):
        index = build_weighted_index(unit_digraph, 4, 20, seed=3)
        lazy = weighted_approx_greedy(
            unit_digraph, 6, 4, index=index, objective="f1", lazy=True
        )
        full = weighted_approx_greedy(
            unit_digraph, 6, 4, index=index, objective="f1", lazy=False
        )
        assert lazy.selected == full.selected

    def test_k_validation(self, unit_digraph):
        with pytest.raises(ParameterError):
            weighted_approx_greedy(unit_digraph, -2, 3)

    def test_index_mismatch(self, unit_digraph):
        other = WeightedDiGraph.from_edges([(0, 1, 1.0)])
        index = build_weighted_index(other, 3, 5, seed=1)
        with pytest.raises(ParameterError):
            weighted_approx_greedy(unit_digraph, 2, 3, index=index)


class TestWeightedIndex:
    def test_entries_respect_direction(self):
        # Only arc 0 -> 1 exists: node 1's entries may only name walker 0.
        g = WeightedDiGraph.from_edges([(0, 1, 1.0)])
        index = build_weighted_index(g, 3, 10, seed=2)
        records = index.entry_records(1)
        assert records
        assert all(walker == 0 for _, walker, _ in records)
        assert index.entry_records(0) == []

    def test_arrays_equal_from_walks_on_same_walks(self, unit_digraph):
        # The builder's first-visit extraction is the shared one: its
        # arrays equal the reference builder's on the very same walks.
        length, reps, seed = 5, 4, 21
        index = build_weighted_index(unit_digraph, length, reps, seed=seed)
        n = unit_digraph.num_nodes
        walks = weighted_batch_walks(
            unit_digraph, walker_major_starts(n, reps), length,
            seed=np.random.default_rng(seed),
        )
        ref = FlatWalkIndex.from_walks(walks, n, reps)
        assert index.total_entries > 0
        np.testing.assert_array_equal(index.indptr, ref.indptr)
        np.testing.assert_array_equal(index.state, ref.state)
        np.testing.assert_array_equal(index.hop, ref.hop)
        assert index.state.dtype == ref.state.dtype
        assert index.hop.dtype == ref.hop.dtype == np.int16

    def test_param_validation(self):
        g = WeightedDiGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(ParameterError):
            build_weighted_index(g, -1, 5)
        with pytest.raises(ParameterError):
            build_weighted_index(g, 3, 0)
