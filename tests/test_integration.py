"""End-to-end integration tests across the whole stack.

These exercise the workflows a user of the library actually runs: load or
generate a graph, select targets with several algorithms, evaluate with the
paper's metrics, and compare — asserting the *relationships* the paper's
evaluation establishes (greedy beats baselines; the approximate greedy
tracks the DP greedy; metrics move the right way).
"""

import pytest

from repro import (
    FlatWalkIndex,
    Problem1,
    Problem2,
    approx_greedy_fast,
    average_hitting_time,
    degree_baseline,
    dominate_baseline,
    dpf1,
    dpf2,
    expected_hit_nodes,
    load_dataset,
    min_targets_for_coverage,
    power_law_graph,
    random_baseline,
    read_edge_list,
    solve,
    write_edge_list,
)


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(300, 1500, seed=99)


class TestQualityOrdering:
    """The who-wins structure of Figs. 6-7 on a small instance."""

    K, L, R = 12, 5, 150

    @pytest.fixture(scope="class")
    def selections(self, graph):
        index = FlatWalkIndex.build(graph, self.L, self.R, seed=7)
        return {
            "ApproxF1": approx_greedy_fast(
                graph, self.K, self.L, index=index, objective="f1"
            ),
            "ApproxF2": approx_greedy_fast(
                graph, self.K, self.L, index=index, objective="f2"
            ),
            "Degree": degree_baseline(graph, self.K),
            "Dominate": dominate_baseline(graph, self.K),
            "Random": random_baseline(graph, self.K, seed=5),
        }

    def test_greedy_beats_random_on_aht(self, graph, selections):
        aht = {
            name: average_hitting_time(graph, res.selected, self.L)
            for name, res in selections.items()
        }
        assert aht["ApproxF1"] < aht["Random"]

    def test_greedy_beats_or_ties_baselines_on_ehn(self, graph, selections):
        ehn = {
            name: expected_hit_nodes(graph, res.selected, self.L)
            for name, res in selections.items()
        }
        assert ehn["ApproxF2"] >= ehn["Degree"] - 1e-6
        assert ehn["ApproxF2"] >= ehn["Random"]

    def test_specialists_win_their_metric(self, graph, selections):
        """ApproxF1 optimizes AHT, ApproxF2 optimizes EHN (paper §4.2)."""
        aht_f1 = average_hitting_time(
            graph, selections["ApproxF1"].selected, self.L
        )
        aht_f2 = average_hitting_time(
            graph, selections["ApproxF2"].selected, self.L
        )
        ehn_f1 = expected_hit_nodes(graph, selections["ApproxF1"].selected, self.L)
        ehn_f2 = expected_hit_nodes(graph, selections["ApproxF2"].selected, self.L)
        # Allow tiny slack: both optimize estimates of related quantities.
        assert aht_f1 <= aht_f2 + 0.1
        assert ehn_f2 >= ehn_f1 - 1.0


class TestApproxTracksDp:
    def test_f1_objective_close(self):
        graph = power_law_graph(120, 500, seed=3)
        k, length = 6, 4
        dp = dpf1(graph, k, length)
        approx = approx_greedy_fast(
            graph, k, length, num_replicates=200, seed=11, objective="f1"
        )
        dp_aht = average_hitting_time(graph, dp.selected, length)
        ap_aht = average_hitting_time(graph, approx.selected, length)
        assert ap_aht <= dp_aht * 1.05

    def test_f2_objective_close(self):
        graph = power_law_graph(120, 500, seed=4)
        k, length = 6, 4
        dp = dpf2(graph, k, length)
        approx = approx_greedy_fast(
            graph, k, length, num_replicates=200, seed=12, objective="f2"
        )
        dp_ehn = expected_hit_nodes(graph, dp.selected, length)
        ap_ehn = expected_hit_nodes(graph, approx.selected, length)
        assert ap_ehn >= dp_ehn * 0.95


class TestSolveApi:
    def test_problem1_pipeline(self, graph):
        result = solve(
            Problem1(graph, 8, 5), method="approx-fast",
            num_replicates=50, seed=2,
        )
        aht = average_hitting_time(graph, result.selected, 5)
        assert 0 < aht < 5

    def test_problem2_pipeline(self, graph):
        result = solve(
            Problem2(graph, 8, 5), method="approx-fast",
            num_replicates=50, seed=2,
        )
        ehn = expected_hit_nodes(graph, result.selected, 5)
        assert ehn > 8  # dominates more than just itself


class TestDatasetRoundTrip:
    def test_replica_to_disk_and_back(self, tmp_path):
        graph = load_dataset("CAGrQc", scale=0.02)
        path = tmp_path / "replica.txt"
        write_edge_list(graph, path, header="CAGrQc replica")
        loaded = read_edge_list(path, relabel=False)
        assert loaded == graph

    def test_selection_on_dataset(self):
        graph = load_dataset("CAGrQc", scale=0.05)
        result = approx_greedy_fast(
            graph, 10, 6, num_replicates=30, seed=1, objective="f2"
        )
        assert len(result.selected) == 10
        assert expected_hit_nodes(graph, result.selected, 6) > 10


class TestCoveragePipeline:
    def test_coverage_threshold_pipeline(self, graph):
        result = min_targets_for_coverage(
            graph, 0.5, 5, num_replicates=100, seed=8
        )
        achieved = expected_hit_nodes(graph, result.selected, 5)
        assert achieved >= 0.4 * graph.num_nodes
        assert len(result.selected) < graph.num_nodes


class TestWalkLengthEffect:
    def test_metrics_grow_with_length(self, graph):
        """Fig. 10's direction: both AHT and EHN increase with L."""
        selection = degree_baseline(graph, 10).selected
        aht = [average_hitting_time(graph, selection, length) for length in (2, 5, 8)]
        ehn = [expected_hit_nodes(graph, selection, length) for length in (2, 5, 8)]
        assert aht[0] <= aht[1] <= aht[2]
        assert ehn[0] <= ehn[1] <= ehn[2]


class TestEndToEndWorkflows:
    """Full user journeys across subsystems, including the new extensions."""

    def test_file_based_pipeline(self, tmp_path):
        """generate -> serialize -> reload -> index -> persist -> select ->
        evaluate -> simulate, all through public APIs."""
        from repro.graphs.generators import power_law_graph
        from repro.graphs.io import read_edge_list, write_edge_list
        from repro.core.approx_fast import approx_greedy_fast
        from repro.metrics.evaluation import evaluate_selection
        from repro.simulate import simulate_social_browsing
        from repro.walks.index import FlatWalkIndex
        from repro.walks.persistence import load_index, save_index

        graph = power_law_graph(120, 360, seed=3)
        edge_path = tmp_path / "net.txt"
        write_edge_list(graph, edge_path, header="workflow test")
        reloaded = read_edge_list(edge_path, relabel=False)
        assert reloaded == graph

        index = FlatWalkIndex.build(reloaded, 5, 20, seed=4)
        index_path = tmp_path / "walks.idx3"
        save_index(index, index_path)
        result = approx_greedy_fast(
            reloaded, 8, 5, index=load_index(index_path), objective="f2"
        )
        metrics = evaluate_selection(reloaded, result.selected, 5)
        assert metrics["ehn"] >= 8  # at least the selected nodes themselves
        report = simulate_social_browsing(
            reloaded, result.selected, 2000, 5, seed=5
        )
        assert report.discovery_rate > 0

    def test_objective_consistency_across_all_solvers(self):
        """Every solver's answer, scored by the exact objectives, falls
        between the random floor and the DP-greedy reference."""
        from repro.core.objectives import F2Objective
        from repro.core.problems import Problem2, solve
        from repro.core.dp_greedy import dpf2
        from repro.core.baselines import random_baseline
        from repro.graphs.generators import power_law_graph

        graph = power_law_graph(60, 180, seed=9)
        k, length = 5, 4
        objective = F2Objective(graph, length)
        reference = objective.value(dpf2(graph, k, length).selected)
        floor = objective.value(
            random_baseline(graph, k, seed=1).selected
        )
        for method in ("sampling", "approx", "approx-fast", "degree",
                       "dominate"):
            options = {}
            if method in ("sampling", "approx", "approx-fast"):
                options = {"num_replicates": 60, "seed": 2}
            result = solve(Problem2(graph, k, length), method=method,
                           **options)
            score = objective.value(result.selected)
            assert score <= reference + 1e-9
            assert score >= 0.5 * floor

    def test_extension_objectives_agree_on_structure(self):
        """F1/F2/F3 greedy all prefer the hub of a star."""
        from repro.core.approx_fast import approx_greedy_fast
        from repro.core.edge_domination import edge_domination_greedy
        from repro.graphs.generators import star_graph

        graph = star_graph(25)
        f1 = approx_greedy_fast(graph, 1, 4, num_replicates=30,
                                objective="f1", seed=3)
        f2 = approx_greedy_fast(graph, 1, 4, num_replicates=30,
                                objective="f2", seed=3)
        f3 = edge_domination_greedy(graph, 1, 4, num_replicates=30, seed=3)
        assert f1.selected == f2.selected == f3.selected == (0,)

    def test_weighted_and_unweighted_agree_on_lifted_graph(self):
        """Unit-weight lifting preserves the greedy selection."""
        from repro.core.weighted import weighted_dpf2
        from repro.core.dp_greedy import dpf2
        from repro.graphs.generators import power_law_graph
        from repro.graphs.weighted import WeightedDiGraph

        graph = power_law_graph(30, 90, seed=11)
        lifted = WeightedDiGraph.from_undirected(graph)
        plain = dpf2(graph, 3, 4)
        weighted = weighted_dpf2(lifted, 3, 4)
        assert plain.selected == weighted.selected
