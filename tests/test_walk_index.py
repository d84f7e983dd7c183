"""Tests for the inverted walk index (Algorithm 3), both representations.

The strongest oracle here is the paper itself: Table 1 prints the exact
inverted index produced by the Example 3.1 walks, and we assert our builders
reproduce it entry-for-entry.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph
from repro.walks.backends import NumpyWalkEngine
from repro.walks.engine import batch_walks
from repro.walks.index import (
    FlatWalkIndex,
    InvertedIndex,
    walker_major_starts,
)

#: Table 1 of the paper, 0-based: hit node -> [(walker, hop), ...].
PAPER_TABLE1 = {
    0: [],
    1: [(0, 1), (2, 1), (4, 1)],
    2: [(0, 2), (1, 1)],
    3: [(7, 2)],
    4: [(1, 2), (2, 2), (3, 2), (5, 2), (6, 1)],
    5: [(4, 2)],
    6: [(3, 1), (5, 1), (7, 1)],
    7: [],
}


class TestPaperTable1:
    def test_reference_index_matches_paper(self, example_walks):
        index = InvertedIndex.from_walks(example_walks, num_nodes=8, num_replicates=1)
        for node, expected in PAPER_TABLE1.items():
            got = sorted((e.walker, e.hop) for e in index.entries(0, node))
            assert got == sorted(expected), f"node v{node + 1}"

    def test_flat_index_matches_paper(self, example_walks):
        index = FlatWalkIndex.from_walks(example_walks, num_nodes=8, num_replicates=1)
        for node, expected in PAPER_TABLE1.items():
            got = [(walker, hop) for _, walker, hop in index.entry_records(node)]
            assert sorted(got) == sorted(expected), f"node v{node + 1}"

    def test_repeated_node_not_double_indexed(self, example_walks):
        # Walk (v7, v5, v7): v7 revisits itself; no entry may appear for it.
        index = InvertedIndex.from_walks(example_walks, num_nodes=8, num_replicates=1)
        walkers_into_6 = [e.walker for e in index.entries(0, 6)]
        assert 6 not in walkers_into_6


class TestReferenceBuilder:
    def test_build_first_visits_only(self, small_power_law):
        index = InvertedIndex.build(small_power_law, length=6, num_replicates=3, seed=1)
        for i in range(3):
            for v in range(small_power_law.num_nodes):
                walkers = [e.walker for e in index.entries(i, v)]
                assert len(walkers) == len(set(walkers)), "duplicate walker entry"

    def test_hops_in_range(self, small_power_law):
        index = InvertedIndex.build(small_power_law, length=5, num_replicates=2, seed=2)
        for i in range(2):
            for v in range(small_power_law.num_nodes):
                for entry in index.entries(i, v):
                    assert 1 <= entry.hop <= 5

    def test_start_node_never_indexes_itself(self, small_power_law):
        index = InvertedIndex.build(small_power_law, length=6, num_replicates=2, seed=3)
        for i in range(2):
            for v in range(small_power_law.num_nodes):
                assert all(e.walker != v for e in index.entries(i, v))

    def test_zero_length_walks_empty_index(self, small_power_law):
        index = InvertedIndex.build(small_power_law, length=0, num_replicates=2, seed=4)
        assert index.total_entries == 0

    def test_from_walks_validation(self):
        with pytest.raises(ParameterError):
            InvertedIndex.from_walks([[0, 1]], num_nodes=2, num_replicates=2)
        with pytest.raises(ParameterError):
            # wrong start node for walker-major layout
            InvertedIndex.from_walks([[1, 0], [1, 0]], num_nodes=2, num_replicates=1)
        with pytest.raises(ParameterError):
            # inconsistent lengths
            InvertedIndex.from_walks(
                [[0, 1], [1, 0, 1]], num_nodes=2, num_replicates=1
            )

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            InvertedIndex(num_nodes=2, length=-1, num_replicates=1)
        with pytest.raises(ParameterError):
            InvertedIndex(num_nodes=2, length=1, num_replicates=0)


class TestFlatEqualsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_entries_on_shared_walks(self, seed):
        graph = power_law_graph(40, 120, seed=seed)
        replicates = 4
        starts = walker_major_starts(graph.num_nodes, replicates)
        walks = batch_walks(graph, starts, 5, seed=seed)
        ref = InvertedIndex.from_walks(walks, graph.num_nodes, replicates)
        flat = FlatWalkIndex.from_walks(walks, graph.num_nodes, replicates)
        assert ref.total_entries == flat.total_entries
        for v in range(graph.num_nodes):
            ref_records = sorted(
                (i, e.walker, e.hop)
                for i in range(replicates)
                for e in ref.entries(i, v)
            )
            assert flat.entry_records(v) == ref_records

    def test_to_flat_round_trip(self, example_walks):
        ref = InvertedIndex.from_walks(example_walks, num_nodes=8, num_replicates=1)
        flat = ref.to_flat()
        for v in range(8):
            assert flat.entry_records(v) == sorted(
                (0, e.walker, e.hop) for e in ref.entries(0, v)
            )


class TestFlatBuilder:
    def test_chunked_build_deterministic(self):
        # Same seed and chunking -> identical index.  (Different chunk sizes
        # legitimately consume the RNG stream differently.)
        graph = power_law_graph(50, 150, seed=7)
        a = FlatWalkIndex.build(graph, 4, 3, seed=11, chunk_rows=8)
        b = FlatWalkIndex.build(graph, 4, 3, seed=11, chunk_rows=8)
        assert a.total_entries == b.total_entries
        for v in range(graph.num_nodes):
            assert a.entry_records(v) == b.entry_records(v)

    def test_chunked_build_invariants(self):
        # Tiny chunks must still yield a well-formed index: hops in range,
        # one entry per (replicate, walker) per hit node, no self entries.
        graph = power_law_graph(40, 100, seed=8)
        flat = FlatWalkIndex.build(graph, 5, 3, seed=12, chunk_rows=7)
        for v in range(graph.num_nodes):
            records = flat.entry_records(v)
            pairs = [(rep, walker) for rep, walker, _ in records]
            assert len(pairs) == len(set(pairs))
            assert all(walker != v for _, walker, _ in records)
            assert all(1 <= hop <= 5 for _, _, hop in records)

    def test_indptr_shape(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 5, 2, seed=1)
        assert flat.indptr.size == small_power_law.num_nodes + 1
        assert flat.indptr[-1] == flat.total_entries

    def test_entries_for_out_of_range(self, small_power_law):
        flat = FlatWalkIndex.build(small_power_law, 3, 1, seed=1)
        with pytest.raises(ParameterError):
            flat.entries_for(small_power_law.num_nodes)

    def test_entry_bound(self, small_power_law):
        # At most one entry per (walker, replicate, hop-distinct node):
        # total <= n * R * L.
        flat = FlatWalkIndex.build(small_power_law, 5, 2, seed=2)
        assert flat.total_entries <= small_power_law.num_nodes * 2 * 5

    def test_state_encoding(self, example_walks):
        flat = FlatWalkIndex.from_walks(example_walks, num_nodes=8, num_replicates=1)
        state, hop = flat.entries_for(1)
        # replicate 0 -> state == walker id
        assert sorted(state.tolist()) == [0, 2, 4]
        assert hop.tolist() == [1, 1, 1]


class TestWalkLengthCap:
    """Hops are stored as int16: a walk longer than 32767 hops must be
    refused up front, not narrowed (hop 40000 would read back -25536)."""

    class _FarHopEngine(NumpyWalkEngine):
        # One record at hop L, without walking L hops.
        def iter_walk_records(self, graph, starts, length, states, packer,
                              seed=None, chunk_rows=1 << 19):
            yield (
                packer.pack(np.array([1]), np.array([0]), np.array([length])),
                np.bincount([1], minlength=graph.num_nodes),
            )

    def test_build_rejects_length_past_int16(self):
        graph = power_law_graph(10, 20, seed=1)
        with pytest.raises(ParameterError, match="32767"):
            FlatWalkIndex.build(graph, 40_000, 1, engine=self._FarHopEngine())

    def test_from_records_rejects_length_past_int16(self):
        with pytest.raises(ParameterError, match="32767"):
            FlatWalkIndex._from_records(
                np.array([1]), np.array([0]), np.array([40_000]),
                num_nodes=3, length=40_000, num_replicates=1,
            )

    def test_every_builder_validates(self):
        from repro.core.weighted import build_weighted_index
        from repro.dynamic.index import DynamicWalkIndex
        from repro.graphs.weighted import WeightedDiGraph

        graph = power_law_graph(10, 20, seed=1)
        with pytest.raises(ParameterError, match="32767"):
            DynamicWalkIndex.build(graph, 40_000, 1, seed=0)
        with pytest.raises(ParameterError, match="32767"):
            build_weighted_index(
                WeightedDiGraph.from_undirected(graph), 40_000, 1, seed=0
            )


class TestWalkerMajorStarts:
    def test_layout(self):
        starts = walker_major_starts(3, 2)
        assert starts.tolist() == [0, 0, 1, 1, 2, 2]


class TestCanonicalRecordKey:
    """The sort key must be immune to int32 record arrays (NEP 50).

    ``hits * num_states + states`` with int32 inputs stays int32 under
    both numpy 1.26 value-based casting and 2.x weak scalars whenever
    ``num_states`` fits int32 — wrapping the product silently once
    ``hit * num_states`` crosses 2^31 and scrambling the sort.  The key
    helper forces int64 before multiplying; these tests pin that on the
    1.26/2.x CI matrix.
    """

    def test_int32_inputs_do_not_wrap(self):
        from repro.walks.records import canonical_record_key

        num_states = 70_000  # fits int32, so the product would stay int32
        hits = np.array([40_000, 40_001], dtype=np.int32)
        states = np.array([5, 3], dtype=np.int32)
        keys = canonical_record_key(hits, states, num_states)
        assert keys.dtype == np.int64
        # 40_000 * 70_000 = 2.8e9 > 2^31: would be negative if wrapped.
        assert keys[0] == 40_000 * 70_000 + 5
        assert (keys >= 0).all()
        assert keys[0] < keys[1]

    def test_from_records_orders_past_int32_range(self):
        # End-to-end: records for high node ids in a state space whose
        # key range exceeds int32 must land in their indptr slices in
        # ascending state order.
        num_nodes, reps = 70_000, 1
        hits = np.array([60_000, 40_000, 60_000], dtype=np.int32)
        states = np.array([9, 2, 4], dtype=np.int32)
        hops = np.array([1, 2, 3], dtype=np.int32)
        flat = FlatWalkIndex._from_records(
            hits, states, hops, num_nodes=num_nodes, length=3,
            num_replicates=reps,
        )
        s, h = flat.entries_for(40_000)
        assert s.tolist() == [2] and h.tolist() == [2]
        s, h = flat.entries_for(60_000)
        assert s.tolist() == [4, 9] and h.tolist() == [3, 1]


def _prebuilt_index_solves():
    """Every solver that takes a prebuilt index, by name, as a
    ``(build, solve)`` pair: ``build(graph, L)`` makes the index that
    ``solve(graph, L, index)`` takes."""
    from repro.core.approx_fast import approx_greedy_fast
    from repro.core.approx_greedy import approx_greedy
    from repro.core.combined import approx_combined
    from repro.core.coverage import min_targets_for_coverage
    from repro.core.edge_domination import EdgeWalkIndex, edge_domination_greedy
    from repro.core.stochastic import stochastic_approx_greedy
    from repro.core.weighted import build_weighted_index, weighted_approx_greedy
    from repro.dynamic import DynamicWalkIndex, min_breaking_edges, robust_greedy
    from repro.graphs.weighted import WeightedDiGraph

    flat = lambda g, L: FlatWalkIndex.build(g, L, 4, seed=1)  # noqa: E731
    dyn = lambda g, L: DynamicWalkIndex.build(g, L, 4, seed=1)  # noqa: E731
    lift = WeightedDiGraph.from_undirected
    return {
        "approx_greedy_fast": (
            flat, lambda g, L, i: approx_greedy_fast(g, 3, L, index=i)
        ),
        "approx_greedy": (
            lambda g, L: InvertedIndex.build(g, L, 4, seed=1),
            lambda g, L, i: approx_greedy(g, 3, L, index=i),
        ),
        "min_targets_for_coverage": (
            flat, lambda g, L, i: min_targets_for_coverage(g, 0.2, L, index=i)
        ),
        "stochastic_approx_greedy": (
            flat, lambda g, L, i: stochastic_approx_greedy(g, 3, L, index=i)
        ),
        "weighted_approx_greedy": (
            lambda g, L: build_weighted_index(lift(g), L, 4, seed=1),
            lambda g, L, i: weighted_approx_greedy(lift(g), 3, L, index=i),
        ),
        "approx_combined": (
            flat, lambda g, L, i: approx_combined(g, 3, L, 0.5, 0.5, index=i)
        ),
        "edge_domination_greedy": (
            lambda g, L: EdgeWalkIndex.build(g, L, 4, seed=1),
            lambda g, L, i: edge_domination_greedy(g, 3, L, index=i),
        ),
        "robust_greedy": (
            dyn, lambda g, L, i: robust_greedy(g, 3, L, index=i)
        ),
        "min_breaking_edges": (
            dyn, lambda g, L, i: min_breaking_edges(g, [0, 1], L, index=i)
        ),
    }


class TestPrebuiltIndexFits:
    """A prebuilt index built for another graph size or L is refused by
    every solver that accepts one, instead of answering at its own L."""

    @pytest.mark.parametrize("solver", sorted(_prebuilt_index_solves()))
    def test_other_length_refused(self, solver):
        build, solve = _prebuilt_index_solves()[solver]
        graph = power_law_graph(30, 90, seed=3)
        index = build(graph, 5)
        solve(graph, 5, index)
        with pytest.raises(ParameterError, match="L=5, not L=3"):
            solve(graph, 3, index)

    @pytest.mark.parametrize("solver", sorted(_prebuilt_index_solves()))
    def test_other_graph_size_refused(self, solver):
        build, solve = _prebuilt_index_solves()[solver]
        index = build(power_law_graph(30, 90, seed=3), 4)
        with pytest.raises(ParameterError, match="different graph size"):
            solve(power_law_graph(31, 93, seed=3), 4, index)
