"""The greedy driver: one CELF loop and one full sweep behind every selector.

:func:`repro.core.greedy.run_greedy` runs every greedy selection in the
package.  These tests pin its contract: CELF and the full sweep select the
same nodes with the same gains on every engine (tie-heavy graphs
included), target mode stops where the coverage solver needs it to, and
the engine calls happen in the documented order.
"""

import numpy as np
import pytest

from repro.core.approx_fast import FastApproxEngine, approx_greedy_fast
from repro.core.combined import approx_combined, combined_greedy
from repro.core.coverage import min_targets_for_coverage
from repro.core.dp_greedy import dpf1, dpf2
from repro.core.edge_domination import EdgeDominationEngine, EdgeWalkIndex
from repro.core.greedy import run_greedy
from repro.graphs.adjacency import Graph
from repro.graphs.generators import (
    complete_graph,
    path_graph,
    power_law_graph,
    star_graph,
)
from repro.walks.index import FlatWalkIndex


def two_cliques(size):
    """Two disjoint complete graphs on ``size`` nodes each."""
    edges = [
        (base + i, base + j)
        for base in (0, size)
        for i in range(size)
        for j in range(i + 1, size)
    ]
    return Graph.from_edges(edges, num_nodes=2 * size)


TIE_HEAVY = {
    "star": lambda: star_graph(12),
    "complete": lambda: complete_graph(10),
    "path": lambda: path_graph(16),
    "two_cliques": lambda: two_cliques(6),
}
GRAPHS = {
    **TIE_HEAVY,
    "power_law_80": lambda: power_law_graph(80, 240, seed=3),
    "power_law_150": lambda: power_law_graph(150, 600, seed=8),
}


def _run_engine(make, k, lazy):
    engine = make()
    engine.run(k, lazy=lazy)
    return engine


class TestLazyEqualsFull:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("objective", ["f1", "f2"])
    def test_fast_engine(self, graph_name, objective):
        graph = GRAPHS[graph_name]()
        index = FlatWalkIndex.build(graph, 4, 8, seed=2)

        def make():
            return FastApproxEngine(index, objective)

        k = min(graph.num_nodes, 40)
        lazy = _run_engine(make, k, lazy=True)
        full = _run_engine(make, k, lazy=False)
        assert lazy.selected == full.selected
        assert lazy.gains == full.gains

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_edge_engine(self, graph_name):
        graph = GRAPHS[graph_name]()
        index = EdgeWalkIndex.build(graph, 4, 6, seed=5)

        def make():
            return EdgeDominationEngine(index)

        k = min(graph.num_nodes, 40)
        lazy = _run_engine(make, k, lazy=True)
        full = _run_engine(make, k, lazy=False)
        assert lazy.selected == full.selected
        assert lazy.gains == full.gains

    @pytest.mark.parametrize(
        "graph_name", sorted(TIE_HEAVY) + ["power_law"]
    )
    @pytest.mark.parametrize("solver", ["dpf1", "dpf2", "combined"])
    def test_dp_objectives(self, graph_name, solver, request):
        if (solver, graph_name) == ("dpf2", "two_cliques"):
            # The DP sums symmetric nodes' hit probabilities in different
            # orders, so their exactly tied F2 gains differ by ~1e-15 and
            # are not submodular in floating point: CELF and the full
            # sweep break the tie differently.  The cause is the float
            # gains, not the driver's loops.
            request.applymarker(pytest.mark.xfail(
                strict=True,
                reason="float DP gains break exact ties inconsistently",
            ))
        graph = (
            power_law_graph(40, 120, seed=6)
            if graph_name == "power_law"
            else TIE_HEAVY[graph_name]()
        )
        solve = {
            "dpf1": lambda lazy: dpf1(graph, 5, 3, lazy=lazy),
            "dpf2": lambda lazy: dpf2(graph, 5, 3, lazy=lazy),
            "combined": lambda lazy: combined_greedy(
                graph, 5, 3, 0.25, 0.75, lazy=lazy
            ),
        }[solver]
        lazy, full = solve(True), solve(False)
        assert lazy.selected == full.selected
        assert lazy.gains == full.gains
        assert lazy.num_gain_evaluations <= full.num_gain_evaluations


class TestCoverageOnCelf:
    @pytest.fixture(scope="class")
    def instance(self):
        graph = power_law_graph(200, 800, seed=23)
        return graph, FlatWalkIndex.build(graph, 5, 20, seed=4)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 0.5, 0.8])
    def test_matches_full_sweep_prefix(self, instance, alpha):
        graph, index = instance
        result = min_targets_for_coverage(graph, alpha, 5, index=index)
        m = len(result.selected)
        prefix = approx_greedy_fast(
            graph, m, 5, index=index, objective="f2", lazy=False,
        )
        assert result.selected == prefix.selected
        assert result.gains == prefix.gains
        # Gains telescope: the estimate is their sum (up to float rounding
        # of the per-pick division by R).
        assert result.params["achieved_estimate"] == pytest.approx(
            sum(result.gains), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_one_sweep_not_one_per_pick(self, instance, alpha):
        # One opening sweep of n gains plus the stale heap tops CELF
        # re-evaluates, where the full sweep made n per pick.
        graph, index = instance
        result = min_targets_for_coverage(graph, alpha, 5, index=index)
        assert len(result.selected) >= 2
        assert result.num_gain_evaluations < 2 * graph.num_nodes


def _combined_full_sweep(index, k, weight_f1, weight_f2):
    """The blended full-sweep loop ``approx_combined`` used to run."""
    engine_f1 = FastApproxEngine(index, "f1")
    engine_f2 = FastApproxEngine(index, "f2")
    selected, gains = [], []
    chosen = np.zeros(index.num_nodes, dtype=bool)
    for _ in range(k):
        blended = weight_f1 * engine_f1.gains_all().astype(np.float64) + (
            weight_f2 * engine_f2.gains_all().astype(np.float64)
        )
        blended[chosen] = -np.inf
        best = int(blended.argmax())
        selected.append(best)
        gains.append(float(blended[best]) / index.num_replicates)
        chosen[best] = True
        engine_f1.select(best)
        engine_f2.select(best)
    return tuple(selected), tuple(gains)


class TestCombinedOnCelf:
    @pytest.mark.parametrize(
        "weights", [(0.3, 0.7), (0.2, 0.5), (1.0, 1.0), (0.05, 2.0)]
    )
    def test_matches_full_sweep(self, weights):
        graph = power_law_graph(150, 600, seed=8)
        index = FlatWalkIndex.build(graph, 5, 10, seed=6)
        k = 12
        result = approx_combined(graph, k, 5, *weights, index=index)
        expected = _combined_full_sweep(index, k, *weights)
        assert (result.selected, result.gains) == expected
        assert result.num_gain_evaluations < 2 * k * graph.num_nodes


class SetCover:
    """Max coverage over fixed item sets, logging every driver call."""

    def __init__(self, sets, num_items):
        self.sets = [np.asarray(sorted(s), dtype=np.int64) for s in sets]
        self.covered = np.zeros(num_items, dtype=bool)
        self.calls = []
        self.selected = []

    def _gain(self, node):
        return int(np.count_nonzero(~self.covered[self.sets[node]]))

    def gains_all(self):
        self.calls.append("gains_all")
        return np.array(
            [self._gain(u) for u in range(len(self.sets))], dtype=np.int64
        )

    def gain_of(self, node):
        self.calls.append(("gain_of", node))
        return self._gain(node)

    def select(self, node, gain):
        assert gain == self._gain(node)
        self.calls.append(("select", node))
        self.covered[self.sets[node]] = True
        self.selected.append(node)


SETS = [{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}, {6}, {0, 1, 2}, set()]


class TestDriverContract:
    @pytest.mark.parametrize("lazy", [True, False])
    def test_zero_budget_makes_no_calls(self, lazy):
        engine = SetCover(SETS, 7)
        assert run_greedy(engine, 0, lazy=lazy) == 0
        assert engine.calls == []

    def test_celf_sweeps_once_and_opening_gains_are_fresh(self):
        engine = SetCover(SETS, 7)
        run_greedy(engine, 3, lazy=True)
        assert engine.calls.count("gains_all") == 1
        # Round 1 selects straight from the opening sweep, with no
        # re-evaluation of the heap top.
        assert engine.calls[:2] == ["gains_all", ("select", 0)]

    def test_full_sweep_sweeps_every_round(self):
        engine = SetCover(SETS, 7)
        run_greedy(engine, 4, lazy=False)
        assert engine.calls.count("gains_all") == 4
        assert all(call == "gains_all" or call[0] == "select"
                   for call in engine.calls)

    @pytest.mark.parametrize("lazy", [True, False])
    def test_ties_go_to_the_smaller_id(self, lazy):
        engine = SetCover(SETS, 7)
        run_greedy(engine, len(SETS), lazy=lazy)
        # Sets 0 and 5 tie at 3 items and 0 wins.  Once every item is
        # covered, budget mode still selects the zero-gain sets 1, 3, 5
        # and 6, in id order.
        assert engine.selected == [0, 2, 4, 1, 3, 5, 6]

    def test_celf_order_does_not_depend_on_budget(self):
        short, long = SetCover(SETS, 7), SetCover(SETS, 7)
        run_greedy(short, 3, lazy=True)
        run_greedy(long, 6, lazy=True)
        assert long.calls[: len(short.calls)] == short.calls

    @pytest.mark.parametrize("lazy", [True, False])
    def test_target_stops_once_reached(self, lazy):
        engine = SetCover(SETS, 7)
        total = run_greedy(engine, len(SETS), lazy=lazy, target=5)
        assert engine.selected == [0, 2]
        assert total == 6

    @pytest.mark.parametrize("lazy", [True, False])
    def test_target_stops_without_selecting_a_useless_node(self, lazy):
        engine = SetCover(SETS, 7)
        total = run_greedy(engine, len(SETS), lazy=lazy, target=100)
        assert engine.selected == [0, 2, 4]  # then every gain is 0
        assert total == 7

    @pytest.mark.parametrize("lazy", [True, False])
    def test_target_already_met_makes_no_calls(self, lazy):
        engine = SetCover(SETS, 7)
        assert run_greedy(engine, 3, lazy=lazy, target=0) == 0
        assert engine.calls == []

    @pytest.mark.parametrize("lazy", [True, False])
    def test_excluded_nodes_are_never_offered(self, lazy):
        engine = SetCover(SETS, 7)
        exclude = np.zeros(len(SETS), dtype=bool)
        exclude[[0, 2]] = True
        run_greedy(engine, 3, lazy=lazy, exclude=exclude)
        assert engine.selected == [5, 1, 3]
        assert exclude.sum() == 2  # the caller's mask is not modified
