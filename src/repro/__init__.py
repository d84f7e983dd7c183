"""repro — Random-walk domination in large graphs (ICDE 2014), reproduced.

Select ``k`` target nodes in a graph so that L-length random walks from the
remaining nodes hit them quickly (Problem 1) or so that as many nodes as
possible hit them at all (Problem 2).

Quickstart::

    import repro

    graph = repro.power_law_graph(1_000, 10_000, seed=7)
    result = repro.approx_greedy_fast(
        graph, k=20, length=6, num_replicates=100, objective="f2", seed=7
    )
    print(result.selected)
    print(repro.expected_hit_nodes(graph, result.selected, length=6))

See README.md for install and the CLI reference, DESIGN.md §2 for the full
system inventory (and §3 for the pluggable walk-engine backends), and
EXPERIMENTS.md for how each benchmark script maps to the paper's tables and
figures.
"""

from repro.errors import DatasetError, GraphFormatError, ParameterError, RwdomError
from repro.version import __version__

# Substrate
from repro.graphs import (
    Graph,
    WeightedDiGraph,
    GraphBuilder,
    DatasetSpec,
    TABLE2_DATASETS,
    barabasi_albert_graph,
    bfs_distances,
    chung_lu_graph,
    complete_graph,
    connected_components,
    dataset_names,
    dataset_spec,
    degree_summary,
    density,
    erdos_renyi_graph,
    grid_graph,
    is_connected,
    largest_component,
    load_dataset,
    paper_example_graph,
    paper_synthetic_graph,
    path_graph,
    power_law_graph,
    read_edge_list,
    ring_graph,
    scalability_graph,
    star_graph,
    two_cluster_graph,
    write_edge_list,
)
from repro.hitting import (
    hit_probability_horizons,
    hit_probability_vector,
    hitting_time_horizons,
    hitting_time_matrix,
    hitting_time_vector,
    pairwise_hitting_time,
    sample_size_f1,
    sample_size_f2,
    transition_matrix,
)
from repro.walks import (
    FlatWalkIndex,
    InvertedIndex,
    WalkEngine,
    available_engines,
    batch_walks,
    estimate_f1,
    estimate_f2,
    estimate_hit_probability,
    estimate_hitting_time,
    estimate_objectives,
    get_engine,
    random_walk,
    register_engine,
)

# Core contribution
from repro.core import (
    F1Objective,
    F2Objective,
    FastApproxEngine,
    Problem1,
    Problem2,
    SampledF1,
    SampledF2,
    SelectionResult,
    SOLVER_NAMES,
    approx_combined,
    approx_greedy,
    approx_greedy_fast,
    balanced_weights,
    combined_greedy,
    degree_baseline,
    dominate_baseline,
    dpf1,
    dpf2,
    greedy_select,
    min_targets_for_coverage,
    min_targets_for_coverage_exact,
    random_baseline,
    sampling_greedy_f1,
    sampling_greedy_f2,
    solve,
    WeightedF1Objective,
    WeightedF2Objective,
    build_weighted_index,
    weighted_approx_greedy,
    weighted_dpf1,
    weighted_dpf2,
    EdgeWalkIndex,
    edge_domination_greedy,
    estimate_f3,
    expected_edges_traversed,
    optimal_select,
    optimal_value,
    stochastic_approx_greedy,
    stochastic_greedy_select,
)

# Metrics
from repro.metrics import (
    average_hitting_time,
    compare_placements,
    evaluate_selection,
    expected_hit_nodes,
)

__all__ = [
    "__version__",
    # errors
    "RwdomError",
    "ParameterError",
    "GraphFormatError",
    "DatasetError",
    # graphs
    "Graph",
    "WeightedDiGraph",
    "GraphBuilder",
    "DatasetSpec",
    "TABLE2_DATASETS",
    "barabasi_albert_graph",
    "bfs_distances",
    "chung_lu_graph",
    "complete_graph",
    "connected_components",
    "dataset_names",
    "dataset_spec",
    "degree_summary",
    "density",
    "erdos_renyi_graph",
    "grid_graph",
    "is_connected",
    "largest_component",
    "load_dataset",
    "paper_example_graph",
    "paper_synthetic_graph",
    "path_graph",
    "power_law_graph",
    "read_edge_list",
    "ring_graph",
    "scalability_graph",
    "star_graph",
    "two_cluster_graph",
    "write_edge_list",
    # hitting
    "hit_probability_horizons",
    "hit_probability_vector",
    "hitting_time_horizons",
    "hitting_time_matrix",
    "hitting_time_vector",
    "pairwise_hitting_time",
    "sample_size_f1",
    "sample_size_f2",
    "transition_matrix",
    # walks
    "FlatWalkIndex",
    "InvertedIndex",
    "WalkEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "batch_walks",
    "estimate_f1",
    "estimate_f2",
    "estimate_hit_probability",
    "estimate_hitting_time",
    "estimate_objectives",
    "random_walk",
    # core
    "F1Objective",
    "F2Objective",
    "FastApproxEngine",
    "Problem1",
    "Problem2",
    "SampledF1",
    "SampledF2",
    "SelectionResult",
    "SOLVER_NAMES",
    "approx_combined",
    "approx_greedy",
    "approx_greedy_fast",
    "balanced_weights",
    "combined_greedy",
    "degree_baseline",
    "dominate_baseline",
    "dpf1",
    "dpf2",
    "greedy_select",
    "min_targets_for_coverage",
    "min_targets_for_coverage_exact",
    "random_baseline",
    "sampling_greedy_f1",
    "sampling_greedy_f2",
    "solve",
    "WeightedF1Objective",
    "WeightedF2Objective",
    "build_weighted_index",
    "weighted_approx_greedy",
    "weighted_dpf1",
    "weighted_dpf2",
    "EdgeWalkIndex",
    "edge_domination_greedy",
    "estimate_f3",
    "expected_edges_traversed",
    "optimal_select",
    "optimal_value",
    "stochastic_approx_greedy",
    "stochastic_greedy_select",
    # metrics
    "average_hitting_time",
    "compare_placements",
    "evaluate_selection",
    "expected_hit_nodes",
]
