"""The paper's contribution: objectives, greedy solvers, baselines."""

from repro.core.approx_fast import FastApproxEngine, approx_greedy_fast
from repro.core.approx_greedy import (
    approx_gain,
    approx_greedy,
    initial_distances,
    update_distances,
)
from repro.core.baselines import degree_baseline, dominate_baseline, random_baseline
from repro.core.combined import (
    CombinedObjective,
    approx_combined,
    balanced_weights,
    combined_greedy,
)
from repro.core.coverage import (
    min_targets_for_coverage,
    min_targets_for_coverage_exact,
)
from repro.core.dp_greedy import dpf1, dpf2
from repro.core.edge_domination import (
    EdgeDominationEngine,
    EdgeWalkIndex,
    edge_domination_greedy,
    estimate_f3,
    expected_edges_traversed,
    prefix_edge_counts,
)
from repro.core.exact_optimal import optimal_select, optimal_value
from repro.core.greedy import greedy_select
from repro.core.objectives import (
    F1Objective,
    F2Objective,
    SampledF1,
    SampledF2,
    SetObjective,
)
from repro.core.problems import SOLVER_NAMES, Problem1, Problem2, solve
from repro.core.result import SelectionResult
from repro.core.weighted import (
    WeightedF1Objective,
    WeightedF2Objective,
    build_weighted_index,
    weighted_approx_greedy,
    weighted_dpf1,
    weighted_dpf2,
)
from repro.core.sampling_greedy import sampling_greedy_f1, sampling_greedy_f2
from repro.core.stochastic import (
    sample_size_per_round,
    stochastic_approx_greedy,
    stochastic_greedy_select,
)

__all__ = [
    "FastApproxEngine",
    "approx_greedy_fast",
    "approx_gain",
    "approx_greedy",
    "initial_distances",
    "update_distances",
    "degree_baseline",
    "dominate_baseline",
    "random_baseline",
    "CombinedObjective",
    "approx_combined",
    "balanced_weights",
    "combined_greedy",
    "min_targets_for_coverage",
    "min_targets_for_coverage_exact",
    "dpf1",
    "dpf2",
    "EdgeDominationEngine",
    "EdgeWalkIndex",
    "edge_domination_greedy",
    "estimate_f3",
    "expected_edges_traversed",
    "prefix_edge_counts",
    "optimal_select",
    "optimal_value",
    "greedy_select",
    "sample_size_per_round",
    "stochastic_approx_greedy",
    "stochastic_greedy_select",
    "F1Objective",
    "F2Objective",
    "SampledF1",
    "SampledF2",
    "SetObjective",
    "SOLVER_NAMES",
    "Problem1",
    "Problem2",
    "solve",
    "SelectionResult",
    "sampling_greedy_f1",
    "sampling_greedy_f2",
    "WeightedF1Objective",
    "WeightedF2Objective",
    "build_weighted_index",
    "weighted_approx_greedy",
    "weighted_dpf1",
    "weighted_dpf2",
]
