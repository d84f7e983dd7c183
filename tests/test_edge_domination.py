"""Edge domination (future-work Problem F3): index, engine, greedy, metrics."""

import numpy as np
import pytest

import repro
from repro.core import edge_domination
from repro.core.edge_domination import (
    EdgeDominationEngine,
    EdgeWalkIndex,
    edge_domination_greedy,
    estimate_f3,
    expected_edges_traversed,
    prefix_edge_counts,
)
from repro.errors import ParameterError
from repro.graphs.generators import (
    complete_graph,
    paper_example_graph,
    path_graph,
    power_law_graph,
    ring_graph,
    star_graph,
)
from repro.walks.engine import batch_walks
from repro.walks.index import walker_major_starts


def reference_prefix_counts(walks):
    """Straightforward set-based oracle for prefix_edge_counts."""
    walks = np.asarray(walks)
    batch, width = walks.shape
    counts = np.zeros((batch, width), dtype=np.int64)
    for b in range(batch):
        seen = set()
        for t in range(1, width):
            u, v = int(walks[b, t - 1]), int(walks[b, t])
            if u != v:
                seen.add((min(u, v), max(u, v)))
            counts[b, t] = len(seen)
    return counts


def reference_f3(walks, num_nodes, num_replicates, targets, length):
    """Oracle F3: traffic saved per walk, averaged over replicates."""
    counts = reference_prefix_counts(walks)
    target_set = set(targets)
    total = 0
    for b, walk in enumerate(np.asarray(walks)):
        stop = length
        for t, node in enumerate(walk):
            if int(node) in target_set:
                stop = t
                break
        total += counts[b, length] - counts[b, stop]
    return total / num_replicates


class TestPrefixEdgeCounts:
    def test_matches_reference_on_random_walks(self):
        graph = power_law_graph(60, 180, seed=3)
        walks = batch_walks(graph, np.arange(60).repeat(5), 8, seed=11)
        np.testing.assert_array_equal(
            prefix_edge_counts(walks), reference_prefix_counts(walks)
        )

    def test_simple_path_walk(self):
        # 0-1-2-3: every hop is a fresh edge.
        walks = np.array([[0, 1, 2, 3]])
        np.testing.assert_array_equal(
            prefix_edge_counts(walks), [[0, 1, 2, 3]]
        )

    def test_backtracking_reuses_edge(self):
        # 0-1-0-1: edge {0,1} traversed three times but counted once.
        walks = np.array([[0, 1, 0, 1]])
        np.testing.assert_array_equal(
            prefix_edge_counts(walks), [[0, 1, 1, 1]]
        )

    def test_stay_put_hops_count_nothing(self):
        walks = np.array([[4, 4, 4]])
        np.testing.assert_array_equal(prefix_edge_counts(walks), [[0, 0, 0]])

    def test_zero_length_walks(self):
        walks = np.array([[0], [1]])
        np.testing.assert_array_equal(prefix_edge_counts(walks), [[0], [0]])

    def test_rejects_non_matrix(self):
        with pytest.raises(ParameterError):
            prefix_edge_counts(np.array([0, 1, 2]))

    def test_directionality_is_ignored(self):
        # Traversing u->v and later v->u is the same undirected edge.
        walks = np.array([[0, 1, 2, 1, 0]])
        np.testing.assert_array_equal(
            prefix_edge_counts(walks), [[0, 1, 2, 2, 2]]
        )


class TestEdgeWalkIndex:
    def test_build_shapes(self):
        graph = ring_graph(10)
        index = EdgeWalkIndex.build(graph, length=4, num_replicates=3, seed=1)
        assert index.num_nodes == 10
        assert index.length == 4
        assert index.num_replicates == 3
        assert index.prefix.shape == (30, 5)
        assert index.indptr.size == 11

    def test_from_walks_round_trip(self):
        walks = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 1, 0],
            [2, 0, 1],
        ]
        index = EdgeWalkIndex.from_walks(walks, num_nodes=3, num_replicates=2)
        # Walk 0 (walker 0, rep 0) visits 1 at hop 1, 2 at hop 2.
        state, hop = index.entries_for(1)
        records = sorted(zip(state.tolist(), hop.tolist()))
        # states: rep * 3 + walker
        assert (0 * 3 + 0, 1) in records  # walk 0 hits node 1 at hop 1
        assert (0 * 3 + 2, 1) in records  # walker 2 rep 0 hits 1 at hop 1

    def test_from_walks_rejects_wrong_count(self):
        with pytest.raises(ParameterError):
            EdgeWalkIndex.from_walks([[0, 1]], num_nodes=2, num_replicates=1)

    def test_from_walks_rejects_wrong_start(self):
        with pytest.raises(ParameterError):
            EdgeWalkIndex.from_walks(
                [[1, 0], [1, 0]], num_nodes=2, num_replicates=1
            )

    def test_entries_for_out_of_range(self):
        graph = ring_graph(5)
        index = EdgeWalkIndex.build(graph, 2, 1, seed=0)
        with pytest.raises(ParameterError):
            index.entries_for(5)

    def test_rejects_bad_params(self):
        graph = ring_graph(5)
        with pytest.raises(ParameterError):
            EdgeWalkIndex.build(graph, length=-1, num_replicates=1)
        with pytest.raises(ParameterError):
            EdgeWalkIndex.build(graph, length=2, num_replicates=0)


class TestEdgeDominationEngine:
    def _engine_from_walks(self, walks, num_nodes, num_replicates):
        index = EdgeWalkIndex.from_walks(walks, num_nodes, num_replicates)
        return EdgeDominationEngine(index), walks

    def test_objective_starts_at_zero(self):
        graph = ring_graph(8)
        index = EdgeWalkIndex.build(graph, 3, 2, seed=5)
        engine = EdgeDominationEngine(index)
        assert engine.objective_value() == 0.0

    def test_gain_matches_objective_delta(self):
        """gain_of(u) / R must equal F3(S + u) - F3(S) on the same walks."""
        graph = power_law_graph(40, 120, seed=9)
        length, reps = 5, 4
        starts = walker_major_starts(40, reps)
        walks = batch_walks(graph, starts, length, seed=2)
        index = EdgeWalkIndex.from_walks(walks, 40, reps)
        engine = EdgeDominationEngine(index)
        for u in (0, 7, 23):
            before = engine.objective_value()
            expected_after = reference_f3(walks, 40, reps, {u}, length)
            gain = engine.gain_of(u) / reps
            assert gain == pytest.approx(expected_after - before)

    def test_gains_all_matches_gain_of(self):
        graph = power_law_graph(30, 90, seed=4)
        index = EdgeWalkIndex.build(graph, 4, 3, seed=8)
        engine = EdgeDominationEngine(index)
        sweep = engine.gains_all()
        singles = np.array([engine.gain_of(u) for u in range(30)])
        np.testing.assert_array_equal(sweep, singles)

    def test_gains_all_after_selection(self):
        graph = power_law_graph(30, 90, seed=4)
        index = EdgeWalkIndex.build(graph, 4, 3, seed=8)
        engine = EdgeDominationEngine(index)
        engine.select(5)
        sweep = engine.gains_all()
        singles = np.array([engine.gain_of(u) for u in range(30)])
        np.testing.assert_array_equal(sweep, singles)

    def test_objective_tracks_reference_after_selections(self):
        graph = power_law_graph(25, 70, seed=13)
        length, reps = 4, 5
        starts = walker_major_starts(25, reps)
        walks = batch_walks(graph, starts, length, seed=21)
        index = EdgeWalkIndex.from_walks(walks, 25, reps)
        engine = EdgeDominationEngine(index)
        chosen: set[int] = set()
        for u in (3, 11, 19):
            engine.select(u)
            chosen.add(u)
            expected = reference_f3(walks, 25, reps, chosen, length)
            assert engine.objective_value() == pytest.approx(expected)

    def test_select_twice_raises(self):
        graph = ring_graph(6)
        index = EdgeWalkIndex.build(graph, 2, 1, seed=0)
        engine = EdgeDominationEngine(index)
        engine.select(2)
        with pytest.raises(ParameterError):
            engine.select(2)

    @pytest.mark.parametrize("node", [-1, 30])
    def test_select_range_checked_before_state(self, node):
        graph = power_law_graph(30, 90, seed=4)
        index = EdgeWalkIndex.build(graph, 4, 3, seed=8)
        engine = EdgeDominationEngine(index)
        engine.select(5)
        stops, gains = engine.d.copy(), engine.gains_all()
        with pytest.raises(ParameterError, match="out of range"):
            engine.select(node)
        np.testing.assert_array_equal(engine.d, stops)
        np.testing.assert_array_equal(engine.gains_all(), gains)
        assert engine.selected == [5]

    def test_lazy_matches_full(self):
        graph = power_law_graph(50, 150, seed=6)
        index = EdgeWalkIndex.build(graph, 5, 3, seed=17)
        full = EdgeDominationEngine(index)
        full.run(8, lazy=False)
        lazy = EdgeDominationEngine(index)
        lazy.run(8, lazy=True)
        assert full.selected == lazy.selected
        assert full.gains == pytest.approx(lazy.gains)
        # CELF must not evaluate more often than the full sweep.
        assert lazy.num_gain_evaluations <= full.num_gain_evaluations

    def test_gains_are_monotone_nonincreasing(self):
        """Greedy gain trace must decrease — empirical submodularity."""
        graph = power_law_graph(60, 200, seed=2)
        result = edge_domination_greedy(graph, 10, 5, num_replicates=10, seed=3)
        gains = list(result.gains)
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))


class TestEdgeDominationGreedy:
    def test_basic_run(self):
        graph = power_law_graph(80, 240, seed=5)
        result = edge_domination_greedy(graph, 6, 4, num_replicates=8, seed=9)
        assert result.algorithm == "ApproxF3"
        assert len(result.selected) == 6
        assert len(set(result.selected)) == 6
        assert result.params["objective"] == "f3"

    def test_k_zero(self):
        graph = ring_graph(5)
        result = edge_domination_greedy(graph, 0, 3, num_replicates=2, seed=1)
        assert result.selected == ()

    def test_k_out_of_range(self):
        graph = ring_graph(5)
        with pytest.raises(ParameterError):
            edge_domination_greedy(graph, 6, 3, num_replicates=2)

    def test_reuses_prebuilt_index(self):
        graph = ring_graph(12)
        index = EdgeWalkIndex.build(graph, 3, 4, seed=7)
        a = edge_domination_greedy(graph, 3, 3, index=index)
        b = edge_domination_greedy(graph, 3, 3, index=index)
        assert a.selected == b.selected

    def test_index_size_mismatch(self):
        index = EdgeWalkIndex.build(ring_graph(12), 3, 2, seed=7)
        with pytest.raises(ParameterError):
            edge_domination_greedy(ring_graph(10), 2, 3, index=index)

    def test_star_center_wins_first(self):
        """On a star every walk's first hop crosses to/through the center."""
        graph = star_graph(20)
        result = edge_domination_greedy(graph, 1, 4, num_replicates=20, seed=3)
        assert result.selected[0] == 0

    def test_greedy_beats_random_on_saved_traffic(self):
        graph = power_law_graph(150, 500, seed=8)
        k, length = 8, 5
        greedy = edge_domination_greedy(
            graph, k, length, num_replicates=30, seed=4
        )
        rng = np.random.default_rng(12)
        random_set = rng.choice(150, size=k, replace=False)
        f3_greedy = estimate_f3(graph, greedy.selected, length, seed=99)
        f3_random = estimate_f3(graph, random_set, length, seed=99)
        assert f3_greedy > f3_random

    def test_exposed_at_top_level(self):
        assert repro.edge_domination_greedy is edge_domination_greedy
        assert repro.estimate_f3 is estimate_f3


class TestEdgeMetrics:
    def test_estimators_are_consistent(self):
        """estimate_f3 + expected_edges_traversed = baseline traffic."""
        graph = power_law_graph(60, 180, seed=10)
        targets = [0, 5, 9]
        length = 5
        saved = estimate_f3(graph, targets, length, num_replicates=200, seed=31)
        spent = expected_edges_traversed(
            graph, targets, length, num_replicates=200, seed=31
        )
        nothing = expected_edges_traversed(
            graph, (), length, num_replicates=200, seed=31
        )
        assert saved + spent == pytest.approx(nothing)

    def test_empty_targets_save_nothing(self):
        graph = ring_graph(10)
        assert estimate_f3(graph, (), 4, num_replicates=20, seed=1) == 0.0

    def test_full_target_set_saves_everything(self):
        graph = ring_graph(10)
        all_nodes = range(10)
        assert expected_edges_traversed(
            graph, all_nodes, 4, num_replicates=20, seed=1
        ) == 0.0

    def test_matches_reference_oracle(self):
        graph = paper_example_graph()
        length, reps = 4, 50
        starts = walker_major_starts(graph.num_nodes, reps)
        walks = batch_walks(graph, starts, length, seed=77)
        targets = {1, 6}
        expected = reference_f3(walks, graph.num_nodes, reps, targets, length)
        # Same seed -> same walks inside estimate_f3.
        measured = estimate_f3(
            graph, targets, length, num_replicates=reps, seed=77
        )
        assert measured == pytest.approx(expected)

    def test_rejects_bad_targets(self):
        graph = ring_graph(5)
        with pytest.raises(ParameterError):
            estimate_f3(graph, [7], 3)
        with pytest.raises(ParameterError):
            expected_edges_traversed(graph, [-1], 3)

    def test_rejects_bad_length(self):
        graph = ring_graph(5)
        with pytest.raises(ParameterError):
            estimate_f3(graph, [0], -1)

    def test_path_graph_traffic_bounded_by_length(self):
        graph = path_graph(20)
        traffic = expected_edges_traversed(
            graph, [0], 6, num_replicates=50, seed=5
        )
        # Each of the 20 walks traverses at most 6 distinct edges.
        assert 0 <= traffic <= 20 * 6

    def test_complete_graph_quick_domination(self):
        """On K_n one hub absorbs a 1/n fraction of first hops."""
        graph = complete_graph(12)
        with_hub = expected_edges_traversed(
            graph, [0], 6, num_replicates=200, seed=6
        )
        without = expected_edges_traversed(
            graph, (), 6, num_replicates=200, seed=6
        )
        assert with_hub < without


class TestWalkLengthCap:
    """Hops and prefix edge counts are int16, so every entry point rejects
    ``L`` beyond ``MAX_WALK_LENGTH`` before it walks or allocates."""

    LENGTH = 40_000

    @pytest.fixture
    def no_walks(self, monkeypatch):
        # Past the cap the real functions would not fail: they spin in
        # the O(B L^2) dedup loop.  Stubs make reaching them fail fast.
        def refuse(*args, **kwargs):
            raise AssertionError("walks or prefix counts were computed")

        monkeypatch.setattr(edge_domination, "batch_walks", refuse)
        monkeypatch.setattr(edge_domination, "prefix_edge_counts", refuse)

    def test_build(self, no_walks):
        with pytest.raises(ParameterError, match="exceeds"):
            EdgeWalkIndex.build(ring_graph(5), self.LENGTH, 2, seed=1)

    def test_greedy(self, no_walks):
        with pytest.raises(ParameterError, match="exceeds"):
            edge_domination_greedy(
                ring_graph(5), 1, self.LENGTH, num_replicates=2, seed=1
            )

    def test_from_walks(self, no_walks):
        walks = np.zeros((1, self.LENGTH + 1), dtype=np.int64)
        with pytest.raises(ParameterError, match="exceeds"):
            EdgeWalkIndex.from_walks(walks, 1, 1)

    @pytest.mark.parametrize("metric", [expected_edges_traversed, estimate_f3])
    def test_metrics(self, no_walks, metric):
        with pytest.raises(ParameterError, match="exceeds"):
            metric(ring_graph(5), [0], self.LENGTH, num_replicates=2, seed=1)

    def test_prefix_edge_counts_width(self):
        walks = np.zeros((0, self.LENGTH + 1), dtype=np.int64)
        with pytest.raises(ParameterError, match="exceeds"):
            prefix_edge_counts(walks)


class TestSubmodularityOfF3:
    """Empirical monotonicity + submodularity of F3 on fixed walks."""

    def _f3_on_walks(self, walks, num_nodes, reps, targets, length):
        return reference_f3(walks, num_nodes, reps, targets, length)

    def test_monotone_and_submodular(self):
        graph = power_law_graph(20, 60, seed=15)
        length, reps = 4, 6
        starts = walker_major_starts(20, reps)
        walks = batch_walks(graph, starts, length, seed=3)
        rng = np.random.default_rng(44)
        for _ in range(25):
            base = set(rng.choice(20, size=3, replace=False).tolist())
            extra = int(rng.integers(0, 20))
            candidate = int(rng.integers(0, 20))
            bigger = base | {extra}
            if candidate in bigger:
                continue
            f = lambda s: self._f3_on_walks(walks, 20, reps, s, length)
            # Monotone: adding a node never hurts.
            assert f(bigger) >= f(base) - 1e-9
            # Submodular: gain shrinks on the superset.
            gain_small = f(base | {candidate}) - f(base)
            gain_large = f(bigger | {candidate}) - f(bigger)
            assert gain_small >= gain_large - 1e-9
