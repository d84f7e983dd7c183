"""Tests for the vectorized Algorithm 6 engine.

The binding contract: on the same walks, the fast engine must agree with the
paper-faithful reference implementation — same gains, same D state, same
selections — for both problems, and its lazy mode must match its full mode.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.generators import paper_example_graph, power_law_graph
from repro.walks.engine import batch_walks
from repro.walks.index import FlatWalkIndex, InvertedIndex, walker_major_starts
from repro.core import approx_fast
from repro.core.approx_fast import FastApproxEngine, approx_greedy_fast
from repro.core.approx_greedy import (
    approx_gain,
    approx_greedy,
    initial_distances,
    update_distances,
)
from tests.conftest import EXAMPLE31_ROUND1_GAINS


def shared_indices(graph, replicates, length, seed):
    starts = walker_major_starts(graph.num_nodes, replicates)
    walks = batch_walks(graph, starts, length, seed=seed)
    ref = InvertedIndex.from_walks(walks, graph.num_nodes, replicates)
    flat = FlatWalkIndex.from_walks(walks, graph.num_nodes, replicates)
    return ref, flat


def _empty_ends_index(graph):
    """Nodes 0 and 5 only start their own walks, so they hold no entries."""
    walks = [
        [0, 1, 2, 1], [1, 2, 3, 4], [2, 3, 2, 1],
        [3, 4, 3, 2], [4, 3, 4, 1], [5, 4, 3, 2],
    ]
    flat = FlatWalkIndex.from_walks(walks, 6, 1)
    counts = np.diff(flat.indptr)
    assert counts[0] == counts[-1] == 0
    return flat


def _hop_past_length_index(graph):
    """Hand-built, with one hop (4) above L=2 and an empty node between
    two full ones: ``load_index`` checks structure, not hop values."""
    return FlatWalkIndex(
        indptr=np.array([0, 1, 3, 3, 4, 4], dtype=np.int64),
        state=np.array([1, 0, 3, 2], dtype=np.int32),
        hop=np.array([1, 2, 4, 1], dtype=np.int16),
        num_nodes=5, length=2, num_replicates=1,
    )


#: Edge-case index builders for the gain-agreement test, by case name.
EDGE_INDEXES = {
    "empty_ends": _empty_ends_index,
    "length_zero": lambda graph: FlatWalkIndex.build(graph, 0, 4, seed=8),
    "hop_past_length": _hop_past_length_index,
}


def _assert_gains_agree(flat, monkeypatch):
    """``gain_of`` equals ``gains_all`` on every node of an f1 engine.

    The fresh sweep is the closed form (checked at the default block
    size and at blocks of 3 entries, which hold one segment or several
    and give a segment longer than a block its own); the sweep after
    ``select(3)`` walks the entries.  Returns the fresh sweep.
    """
    nodes = range(flat.num_nodes)
    engine = FastApproxEngine(flat, "f1")
    fresh = engine.gains_all()
    assert fresh.dtype == np.int64
    assert fresh.tolist() == [engine.gain_of(u) for u in nodes]
    monkeypatch.setattr(approx_fast, "_SWEEP_BLOCK", 3)
    assert engine.gains_all().tolist() == fresh.tolist()
    engine.select(3)
    sweep = engine.gains_all()
    assert sweep.tolist() == [engine.gain_of(u) for u in nodes]
    return fresh


class TestExample31:
    def test_gains_match_paper(self, example_walks):
        flat = FlatWalkIndex.from_walks(example_walks, 8, 1)
        engine = FastApproxEngine(flat, "f1")
        assert engine.gains_all().tolist() == EXAMPLE31_ROUND1_GAINS

    def test_selects_v2_v7(self, example_walks):
        graph = paper_example_graph()
        flat = FlatWalkIndex.from_walks(example_walks, 8, 1)
        result = approx_greedy_fast(graph, 2, 2, index=flat, objective="f1")
        assert result.selected == (1, 6)


class TestAgreesWithReference:
    @pytest.mark.parametrize("objective", ["f1", "f2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_and_gains(self, objective, seed):
        graph = power_law_graph(40, 120, seed=seed)
        ref_idx, flat_idx = shared_indices(graph, 4, 5, seed)
        ref = approx_greedy(graph, 6, 5, index=ref_idx, objective=objective)
        fast = approx_greedy_fast(
            graph, 6, 5, index=flat_idx, objective=objective, lazy=False
        )
        assert fast.selected == ref.selected
        assert np.allclose(fast.gains, ref.gains)

    @pytest.mark.parametrize("objective", ["f1", "f2"])
    def test_distance_state_matches(self, objective):
        graph = power_law_graph(30, 90, seed=5)
        replicates = 3
        ref_idx, flat_idx = shared_indices(graph, replicates, 4, 5)
        engine = FastApproxEngine(flat_idx, objective)
        distances = initial_distances(ref_idx, objective)
        for node in (2, 11, 17):
            engine.select(node)
            update_distances(ref_idx, distances, node, objective)
            assert engine.distance_matrix().tolist() == distances

    @pytest.mark.parametrize("objective", ["f1", "f2"])
    def test_gains_all_match_reference_gains(self, objective):
        graph = power_law_graph(30, 90, seed=6)
        replicates = 3
        ref_idx, flat_idx = shared_indices(graph, replicates, 4, 6)
        engine = FastApproxEngine(flat_idx, objective)
        engine.select(7)
        distances = initial_distances(ref_idx, objective)
        update_distances(ref_idx, distances, 7, objective)
        fast_gains = engine.gains_all() / replicates
        for u in range(graph.num_nodes):
            if u == 7:
                continue
            assert fast_gains[u] == pytest.approx(
                approx_gain(ref_idx, distances, u, objective), abs=1e-9
            )

    def test_gain_of_matches_gains_all(self, small_power_law, monkeypatch):
        flat = FlatWalkIndex.build(small_power_law, 5, 4, seed=8)
        _assert_gains_agree(flat, monkeypatch)

    @pytest.mark.parametrize("case", sorted(EDGE_INDEXES))
    def test_gain_of_matches_gains_all_on_edge_indexes(
        self, small_power_law, case, monkeypatch
    ):
        flat = EDGE_INDEXES[case](small_power_law)
        fresh = _assert_gains_agree(flat, monkeypatch)
        if case == "length_zero":
            assert flat.total_entries == 0 and not fresh.any()


class TestSharedWalks:
    @pytest.mark.parametrize("objective", ["f1", "f2"])
    def test_injected_walks_agree(self, objective):
        # On injected walks, CELF, the full sweep and the reference
        # implementation give the same selection and exactly equal gains.
        graph = power_law_graph(30, 90, seed=4)
        ref_idx, flat = shared_indices(graph, 3, 4, 44)
        full = approx_greedy_fast(
            graph, 6, 4, index=flat, objective=objective, lazy=False
        )
        lazy = approx_greedy_fast(
            graph, 6, 4, index=flat, objective=objective, lazy=True
        )
        ref = approx_greedy(graph, 6, 4, index=ref_idx, objective=objective)
        assert lazy.selected == full.selected == ref.selected
        assert lazy.gains == full.gains
        assert np.allclose(full.gains, ref.gains)


class TestLazyMode:
    @pytest.mark.parametrize("objective", ["f1", "f2"])
    def test_lazy_equals_full(self, objective, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 6, 8, seed=3)
        lazy = approx_greedy_fast(
            small_power_law, 10, 6, index=flat, objective=objective, lazy=True
        )
        full = approx_greedy_fast(
            small_power_law, 10, 6, index=flat, objective=objective, lazy=False
        )
        assert lazy.selected == full.selected
        assert np.allclose(lazy.gains, full.gains)

    def test_lazy_cheaper(self, medium_power_law):
        flat = FlatWalkIndex.build(medium_power_law, 6, 10, seed=4)
        lazy = approx_greedy_fast(
            medium_power_law, 12, 6, index=flat, objective="f1", lazy=True
        )
        full = approx_greedy_fast(
            medium_power_law, 12, 6, index=flat, objective="f1", lazy=False
        )
        assert lazy.num_gain_evaluations < full.num_gain_evaluations


class TestEngineGuards:
    def test_double_select_rejected(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 4, 2, seed=1)
        engine = FastApproxEngine(flat, "f1")
        engine.select(0)
        with pytest.raises(ParameterError):
            engine.select(0)

    def test_bad_objective(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 4, 2, seed=1)
        with pytest.raises(ParameterError):
            FastApproxEngine(flat, "f9")

    def test_gain_of_range_checked(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 4, 2, seed=1)
        engine = FastApproxEngine(flat, "f1")
        with pytest.raises(ParameterError):
            engine.gain_of(10**6)

    @pytest.mark.parametrize("node", [-1, 60])
    @pytest.mark.parametrize("objective", ["f1", "f2"])
    def test_select_range_checked_before_state(
        self, small_power_law, objective, node
    ):
        # select(-1) on the f2 entries path used to mark the last state of
        # every replicate covered before the index lookup raised.
        flat = FlatWalkIndex.build(small_power_law, 4, 6, seed=1)
        engine = FastApproxEngine(flat, objective)
        engine.select(3)
        distances, gains = engine.distance_matrix(), engine.gains_all()
        with pytest.raises(ParameterError, match="out of range"):
            engine.select(node)
        np.testing.assert_array_equal(engine.distance_matrix(), distances)
        np.testing.assert_array_equal(engine.gains_all(), gains)
        assert engine.selected == [3]

    def test_run_k_validation(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 4, 2, seed=1)
        engine = FastApproxEngine(flat, "f1")
        with pytest.raises(ParameterError):
            engine.run(small_power_law.num_nodes + 1)

    def test_index_graph_mismatch(self, small_power_law, example_walks):
        flat = FlatWalkIndex.from_walks(example_walks, 8, 1)
        with pytest.raises(ParameterError):
            approx_greedy_fast(small_power_law, 2, 2, index=flat)

    def test_initial_distance_values(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 7, 2, seed=1)
        f1_engine = FastApproxEngine(flat, "f1")
        assert (f1_engine.distance_matrix() == 7).all()
        f2_engine = FastApproxEngine(flat, "f2")
        assert (f2_engine.distance_matrix() == 0).all()


class TestResultMetadata:
    def test_params(self, small_power_law):
        result = approx_greedy_fast(
            small_power_law, 3, 4, num_replicates=6, seed=2, objective="f2"
        )
        assert result.params["R"] == 6
        assert result.params["engine"] == "vectorized"
        assert result.algorithm == "ApproxF2"

    def test_k_zero(self, small_power_law):
        result = approx_greedy_fast(small_power_law, 0, 3, num_replicates=2, seed=1)
        assert result.selected == ()
