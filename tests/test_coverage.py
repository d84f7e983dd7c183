"""Tests for the coverage-target extension (future-work problem 3)."""

import pytest

from repro.errors import ParameterError
from repro.graphs.generators import complete_graph, star_graph
from repro.metrics.evaluation import expected_hit_nodes
from repro.core.coverage import (
    min_targets_for_coverage,
    min_targets_for_coverage_exact,
)


class TestFastCoverage:
    def test_alpha_zero_selects_nothing(self, small_power_law):
        result = min_targets_for_coverage(
            small_power_law, 0.0, 4, num_replicates=20, seed=1
        )
        assert result.selected == ()

    def test_star_needs_one_node(self):
        g = star_graph(9)
        result = min_targets_for_coverage(g, 0.99, 2, num_replicates=50, seed=2)
        assert result.selected == (0,)

    def test_threshold_reached(self, small_power_law):
        alpha = 0.6
        result = min_targets_for_coverage(
            small_power_law, alpha, 5, num_replicates=100, seed=3
        )
        achieved = expected_hit_nodes(small_power_law, result.selected, 5)
        # Estimated coverage met the threshold; the exact value should be in
        # the same neighbourhood.
        assert achieved >= alpha * small_power_law.num_nodes * 0.85

    def test_greedy_is_frugal(self, small_power_law):
        # Needing more coverage can never need fewer nodes.
        low = min_targets_for_coverage(
            small_power_law, 0.3, 5, num_replicates=60, seed=4
        )
        high = min_targets_for_coverage(
            small_power_law, 0.8, 5, num_replicates=60, seed=4
        )
        assert len(high.selected) >= len(low.selected)

    def test_max_size_cap_with_reachable_target(self, small_power_law):
        result = min_targets_for_coverage(
            small_power_law, 0.3, 5, num_replicates=60, seed=5, max_size=30
        )
        assert len(result.selected) <= 30

    def test_unreachable_target_raises(self, small_power_law):
        # Regression: alpha * n beyond what max_size selections can cover
        # used to return an under-covering set silently.
        with pytest.raises(ParameterError, match="unreachable"):
            min_targets_for_coverage(
                small_power_law, 1.0, 1, num_replicates=10, seed=5, max_size=3
            )

    def test_negative_max_size_rejected(self, small_power_law):
        # At alpha = 0 a negative budget used to return an empty answer.
        with pytest.raises(ParameterError, match="max_size"):
            min_targets_for_coverage(
                small_power_law, 0.0, 4, num_replicates=10, seed=1,
                max_size=-3,
            )

    def test_mismatched_index_rejected(self, small_power_law):
        # Regression: an index for a different graph used to drive the
        # greedy into nonsense (wrong candidate universe) instead of
        # failing loudly.
        from repro.graphs.generators import power_law_graph
        from repro.walks.index import FlatWalkIndex

        other = power_law_graph(20, 60, seed=3)
        index = FlatWalkIndex.build(other, 3, 5, seed=4)
        with pytest.raises(ParameterError, match="different graph"):
            min_targets_for_coverage(small_power_law, 0.5, 3, index=index)

    def test_alpha_validated(self, small_power_law):
        with pytest.raises(ParameterError):
            min_targets_for_coverage(small_power_law, 1.5, 3)

    def test_params_recorded(self, small_power_law):
        result = min_targets_for_coverage(
            small_power_law, 0.5, 4, num_replicates=30, seed=6
        )
        assert result.params["alpha"] == 0.5
        assert result.params["achieved_estimate"] > 0


class TestExactCoverage:
    def test_complete_graph_single_node(self):
        # In K_6 with L=3 one target dominates ~1 + 5(1-(4/5)^3) > 3 nodes.
        g = complete_graph(6)
        result = min_targets_for_coverage_exact(g, 0.5, 3)
        assert len(result.selected) == 1

    def test_agrees_with_fast_on_small_graph(self, small_power_law):
        exact = min_targets_for_coverage_exact(small_power_law, 0.5, 4)
        fast = min_targets_for_coverage(
            small_power_law, 0.5, 4, num_replicates=300, seed=7
        )
        assert abs(len(exact.selected) - len(fast.selected)) <= 1

    def test_threshold_met_exactly(self, small_power_law):
        alpha = 0.55
        result = min_targets_for_coverage_exact(small_power_law, alpha, 4)
        value = expected_hit_nodes(small_power_law, result.selected, 4)
        assert value >= alpha * small_power_law.num_nodes - 1e-9

    def test_alpha_validated(self, small_power_law):
        with pytest.raises(ParameterError):
            min_targets_for_coverage_exact(small_power_law, -0.1, 3)

    def test_unreachable_target_raises(self, small_power_law):
        with pytest.raises(ParameterError, match="unreachable"):
            min_targets_for_coverage_exact(
                small_power_law, 0.9, 2, max_size=1
            )

    def test_negative_max_size_rejected(self, small_power_law):
        with pytest.raises(ParameterError, match="max_size"):
            min_targets_for_coverage_exact(small_power_law, 0.0, 3, max_size=-3)
