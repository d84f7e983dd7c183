"""Stochastic greedy ("lazier than lazy greedy", Mirzasoleiman et al. 2015).

A modern accelerant the paper predates but whose guarantee slots directly
into its framework: instead of scanning all ``n - |S|`` candidates per
round, evaluate a uniform random subset of size ``ceil((n / k) ln(1 / eps))``
and take its best member.  For a nondecreasing submodular objective the
expected approximation factor is ``1 - 1/e - eps`` — the same form the
paper proves for its sampling-based greedy — while the total number of
marginal-gain evaluations drops from ``O(n k)`` to ``O(n ln(1 / eps))``,
independent of ``k``.

Two drivers are provided:

* :func:`stochastic_greedy_select` — works on any
  :class:`~repro.core.objectives.SetObjective` (exact DP or sampled), the
  stochastic counterpart of :func:`repro.core.greedy.greedy_select`;
* :func:`stochastic_approx_greedy` — runs the same candidate-sampling loop
  on the vectorized :class:`~repro.core.approx_fast.FastApproxEngine`, i.e.
  Algorithm 6 with stochastic rounds, the cheapest solver in the package.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.errors import ParameterError
from repro.core.approx_fast import FastApproxEngine
from repro.core.objectives import SetObjective
from repro.core.result import SelectionResult
from repro.graphs.adjacency import Graph
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.index import FlatWalkIndex, check_index_fits
from repro.walks.rng import resolve_rng

__all__ = [
    "sample_size_per_round",
    "stochastic_greedy_select",
    "stochastic_approx_greedy",
]


def sample_size_per_round(num_candidates: int, k: int, epsilon: float) -> int:
    """Candidates to evaluate per round: ``ceil((n / k) ln(1 / eps))``.

    Clamped to ``[1, num_candidates]``.  ``epsilon`` is the additive slack
    in the ``1 - 1/e - eps`` guarantee.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if k < 1:
        raise ParameterError("k must be >= 1 to size stochastic rounds")
    if num_candidates < 1:
        raise ParameterError("num_candidates must be >= 1")
    raw = math.ceil(num_candidates / k * math.log(1.0 / epsilon))
    return max(1, min(num_candidates, raw))


def stochastic_greedy_select(
    objective: SetObjective,
    k: int,
    epsilon: float = 0.1,
    seed: "int | np.random.Generator | None" = None,
    algorithm_name: str = "stochastic-greedy",
) -> SelectionResult:
    """Select ``k`` nodes by stochastic greedy over ``objective``.

    Each round draws a fresh uniform sample of unselected candidates (size
    per :func:`sample_size_per_round`) and commits the best of the sample.
    """
    n = objective.num_nodes
    if not 0 <= k <= n:
        raise ParameterError(f"k={k} must lie in [0, n={n}]")
    rng = resolve_rng(seed)
    started = time.perf_counter()
    selected: list[int] = []
    gains: list[float] = []
    chosen: set[int] = set()
    evaluations = 0
    remaining = np.arange(n, dtype=np.int64)
    for _ in range(k):
        batch = sample_size_per_round(remaining.size, k, epsilon)
        sample = rng.choice(remaining, size=batch, replace=False)
        best_node = -1
        best_gain = -float("inf")
        for u in sorted(int(v) for v in sample):
            gain = objective.marginal_gain(chosen, u)
            evaluations += 1
            if gain > best_gain:  # strict: ties keep the smaller id
                best_gain = gain
                best_node = u
        selected.append(best_node)
        gains.append(best_gain)
        chosen.add(best_node)
        remaining = remaining[remaining != best_node]
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm=algorithm_name,
        selected=tuple(selected),
        gains=tuple(gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=evaluations,
        params={"k": k, "epsilon": epsilon, "strategy": "stochastic"},
    )


def stochastic_approx_greedy(
    graph: Graph,
    k: int,
    length: int,
    num_replicates: int = 100,
    objective: str = "f1",
    epsilon: float = 0.1,
    seed: "int | np.random.Generator | None" = None,
    index: FlatWalkIndex | None = None,
    engine: "str | WalkEngine | None" = None,
) -> SelectionResult:
    """Algorithm 6 with stochastic-greedy rounds.

    Builds (or reuses) the walk index exactly like
    :func:`~repro.core.approx_fast.approx_greedy_fast`, then per round
    evaluates only a random candidate subset via the engine's single-node
    gain query.  Useful when even one full gain sweep per round is too much
    (very large ``n`` with large ``k``).
    """
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    rng = resolve_rng(seed)
    walk_engine = get_engine(engine)
    started = time.perf_counter()
    if index is None:
        index = FlatWalkIndex.build(
            graph, length, num_replicates, seed=rng, engine=walk_engine
        )
    else:
        check_index_fits(index, graph, length)
    engine = FastApproxEngine(index, objective=objective)
    remaining = np.arange(graph.num_nodes, dtype=np.int64)
    for _ in range(k):
        batch = sample_size_per_round(remaining.size, max(k, 1), epsilon)
        sample = rng.choice(remaining, size=batch, replace=False)
        best_node = -1
        best_gain = -(1 << 62)
        for u in sorted(int(v) for v in sample):
            gain = engine.gain_of(u)
            if gain > best_gain:
                best_gain = gain
                best_node = u
        engine.select(best_node, gain=float(best_gain))
        remaining = remaining[remaining != best_node]
    elapsed = time.perf_counter() - started
    name = "StochasticApproxF1" if objective == "f1" else "StochasticApproxF2"
    return SelectionResult(
        algorithm=name,
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=engine.num_gain_evaluations,
        params={
            "k": k,
            "L": index.length,
            "R": index.num_replicates,
            "objective": objective,
            "epsilon": epsilon,
            "strategy": "stochastic",
            "walk_engine": walk_engine.name,
        },
    )
