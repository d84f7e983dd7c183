"""Sampling-based greedy — Algorithm 1 with Algorithm 2 marginal gains.

The paper's intermediate algorithm (Section 3.1, "Approximate marginal gain
computation"): still a fresh Monte-Carlo estimate per candidate per round
(``O(k n^2 R L)`` walks overall), which is why the paper supersedes it with
the materialized-index Algorithm 6.  It is implemented here both for
completeness and because the engine ablation benchmarks quantify exactly how
much the sample-materialization idea buys.

Lazy evaluation is off by default: CELF's correctness argument needs the
evaluated gains to be consistent across rounds, which fresh noisy estimates
are not.  (It can be forced on; the paper itself notes the combination is
used in practice.)
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import Graph
from repro.core.greedy import greedy_select
from repro.walks.backends import WalkEngine, get_engine
from repro.core.objectives import SampledF1, SampledF2
from repro.core.result import SelectionResult

__all__ = ["sampling_greedy_f1", "sampling_greedy_f2"]


def sampling_greedy_f1(
    graph: Graph,
    k: int,
    length: int,
    num_replicates: int = 100,
    seed: "int | np.random.Generator | None" = None,
    lazy: bool = False,
    engine: "str | WalkEngine | None" = None,
) -> SelectionResult:
    """Greedy for Problem 1 with Eq. 9 estimated gains.

    ``engine`` picks the walk backend (:mod:`repro.walks.backends`) the
    Algorithm 2 estimator samples with.
    """
    walk_engine = get_engine(engine)
    objective = SampledF1(
        graph, length, num_replicates, seed=seed, engine=walk_engine
    )
    result = greedy_select(objective, k, lazy=lazy, algorithm_name="SamplingF1")
    result.params.update(
        {"L": length, "R": num_replicates, "method": "sampling",
         "objective": "f1", "walk_engine": walk_engine.name}
    )
    return result


def sampling_greedy_f2(
    graph: Graph,
    k: int,
    length: int,
    num_replicates: int = 100,
    seed: "int | np.random.Generator | None" = None,
    lazy: bool = False,
    engine: "str | WalkEngine | None" = None,
) -> SelectionResult:
    """Greedy for Problem 2 with Eq. 10 estimated gains.

    ``engine`` picks the walk backend (:mod:`repro.walks.backends`) the
    Algorithm 2 estimator samples with.
    """
    walk_engine = get_engine(engine)
    objective = SampledF2(
        graph, length, num_replicates, seed=seed, engine=walk_engine
    )
    result = greedy_select(objective, k, lazy=lazy, algorithm_name="SamplingF2")
    result.params.update(
        {"L": length, "R": num_replicates, "method": "sampling",
         "objective": "f2", "walk_engine": walk_engine.name}
    )
    return result
