"""Coverage-target selection — the paper's third future-work problem.

Section 5 of the paper proposes the complementary problem: *given
``alpha in [0, 1]``, find the minimum number of targeted nodes that
dominates at least ``alpha * n`` nodes in expectation.*  This is a
submodular cover instance, so the greedy that adds the best Problem-2 node
until the coverage threshold is met carries the classic ``1 + ln(n /
epsilon)``-style guarantee.

Two backends:

* :func:`min_targets_for_coverage` — index-based (Algorithm 6 machinery):
  scalable, coverage measured by the Monte-Carlo estimator.
* :func:`min_targets_for_coverage_exact` — DP-based: exact ``F2`` after
  every addition, for small graphs and for validating the fast path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.approx_fast import FastApproxEngine
from repro.core.greedy import _ObjectiveEngine, run_greedy
from repro.core.objectives import F2Objective
from repro.core.result import SelectionResult
from repro.walks.index import FlatWalkIndex, check_index_fits

__all__ = ["min_targets_for_coverage", "min_targets_for_coverage_exact"]


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError("alpha must lie in [0, 1]")


def _check_max_size(max_size: "int | None") -> None:
    if max_size is not None and max_size < 0:
        raise ParameterError(f"max_size must be >= 0, got {max_size}")


def _unreachable(threshold: float, achieved: float, budget: int) -> ParameterError:
    return ParameterError(
        f"coverage target alpha*n = {threshold:.6g} is unreachable: the "
        f"greedy achieved {achieved:.6g} with its full budget of {budget} "
        "selections; lower alpha or raise max_size"
    )


def min_targets_for_coverage(
    graph: Graph,
    alpha: float,
    length: int,
    num_replicates: int = 100,
    seed: "int | np.random.Generator | None" = None,
    index: FlatWalkIndex | None = None,
    max_size: int | None = None,
) -> SelectionResult:
    """Smallest greedy set whose estimated ``F2`` reaches ``alpha * n``.

    Stops as soon as the index-estimated expected number of dominated nodes
    reaches the threshold (or after ``max_size`` additions, default ``n``).
    The estimated coverage after each addition is ``(sum of raw gains) / R``
    because ``F2(emptyset) = 0`` and gains telescope.

    Raises :class:`ParameterError` when the target is unreachable — the
    selection budget (``max_size``, or every node) is exhausted, or no
    remaining candidate adds coverage, while the estimate is still below
    ``alpha * n`` — instead of silently returning an under-covering set.
    """
    _check_alpha(alpha)
    _check_max_size(max_size)
    started = time.perf_counter()
    if index is None:
        index = FlatWalkIndex.build(graph, length, num_replicates, seed=seed)
    else:
        check_index_fits(index, graph, length)
    engine = FastApproxEngine(index, objective="f2")
    threshold = alpha * graph.num_nodes
    limit = graph.num_nodes if max_size is None else min(max_size, graph.num_nodes)
    target = threshold * index.num_replicates  # raw gains are F2 times R
    covered_raw = run_greedy(engine, limit, target=target)
    if covered_raw < target:
        raise _unreachable(threshold, covered_raw / index.num_replicates, limit)
    elapsed = time.perf_counter() - started
    achieved = covered_raw / index.num_replicates
    return SelectionResult(
        algorithm="CoverageGreedy",
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=engine.num_gain_evaluations,
        params={
            "alpha": alpha,
            "L": index.length,
            "R": index.num_replicates,
            "threshold": threshold,
            "achieved_estimate": achieved,
            "objective": "f2",
        },
    )


def min_targets_for_coverage_exact(
    graph: Graph,
    alpha: float,
    length: int,
    max_size: int | None = None,
) -> SelectionResult:
    """DP-backed variant: exact ``F2`` checked after every greedy addition.

    Like :func:`min_targets_for_coverage`, raises :class:`ParameterError`
    when the threshold is unreachable within the selection budget (with a
    small absolute tolerance for float accumulation at ``alpha = 1``).
    """
    _check_alpha(alpha)
    _check_max_size(max_size)
    started = time.perf_counter()
    threshold = alpha * graph.num_nodes
    limit = graph.num_nodes if max_size is None else min(max_size, graph.num_nodes)
    engine = _ObjectiveEngine(F2Objective(graph, length), range(graph.num_nodes))
    value = float(run_greedy(engine, limit, lazy=False, target=threshold - 1e-9))
    if value < threshold - 1e-9:
        raise _unreachable(threshold, value, limit)
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm="CoverageGreedyExact",
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=engine.evaluations,
        params={
            "alpha": alpha,
            "L": length,
            "threshold": threshold,
            "achieved_estimate": value,
            "objective": "f2",
        },
    )
