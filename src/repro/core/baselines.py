"""Baseline selection algorithms from the paper's evaluation (Section 4.1).

* :func:`degree_baseline` — the ``Degree`` algorithm: take the ``k``
  highest-degree nodes (high-degree nodes are the easiest to reach by a
  random walk, so this is the natural heuristic).
* :func:`dominate_baseline` — the ``Dominate`` algorithm: the classic
  dominating-set greedy under a budget.  In each round pick
  ``v = argmax_{u not in S} |N({u}) - N(S)|`` where ``N(S)`` is the set of
  immediate neighbors of ``S``, then add it to ``S``.  The rounds run on
  the greedy driver (:mod:`repro.core.greedy`) with CELF.
* :func:`random_baseline` — uniform random ``k``-subset; not in the paper
  but a useful sanity floor for tests and ablations.

Ties break toward the smaller node id so runs are deterministic.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.greedy import run_greedy
from repro.core.result import SelectionResult
from repro.walks.rng import resolve_rng

__all__ = ["degree_baseline", "dominate_baseline", "random_baseline"]


def _check_budget(graph: Graph, k: int) -> None:
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")


def degree_baseline(graph: Graph, k: int) -> SelectionResult:
    """Top-``k`` nodes by degree (``Degree`` in the paper's figures)."""
    _check_budget(graph, k)
    started = time.perf_counter()
    degrees = graph.degrees
    # Sort by (-degree, id): highest degree first, smaller id on ties.
    order = np.lexsort((np.arange(graph.num_nodes), -degrees))
    selected = order[:k]
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm="Degree",
        selected=tuple(int(v) for v in selected),
        gains=tuple(float(degrees[v]) for v in selected),
        elapsed_seconds=elapsed,
        num_gain_evaluations=0,
        params={"k": k},
    )


class _UncoveredNeighbours:
    """Gain of ``u`` = its neighbors not yet in ``N(S)``; only shrinks."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.covered = np.zeros(graph.num_nodes, dtype=bool)  # N(S)
        self.selected: list[int] = []
        self.gains: list[float] = []

    def gains_all(self) -> np.ndarray:
        running = np.cumsum(~self.covered[self.graph.indices], dtype=np.int64)
        return np.diff(np.concatenate(([0], running))[self.graph.indptr])

    def gain_of(self, node: int) -> int:
        return int(np.count_nonzero(~self.covered[self.graph.neighbors(node)]))

    def select(self, node: int, gain: int) -> None:
        self.covered[self.graph.neighbors(node)] = True
        self.selected.append(node)
        self.gains.append(float(gain))


def dominate_baseline(graph: Graph, k: int) -> SelectionResult:
    """Budgeted dominating-set greedy (``Dominate`` in the paper).

    Implements the round rule of Section 4.1 verbatim: the gain of a
    candidate ``u`` is the number of its neighbors not yet neighbors of
    ``S``.  Runs in ``O(k)`` rounds with CELF — gains only shrink as
    ``N(S)`` grows, so stale upper bounds are safe.
    """
    _check_budget(graph, k)
    started = time.perf_counter()
    engine = _UncoveredNeighbours(graph)
    run_greedy(engine, k)
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm="Dominate",
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=0,
        params={"k": k},
    )


def random_baseline(
    graph: Graph, k: int, seed: "int | np.random.Generator | None" = None
) -> SelectionResult:
    """Uniform random ``k``-subset (sanity floor, not from the paper)."""
    _check_budget(graph, k)
    started = time.perf_counter()
    rng = resolve_rng(seed)
    selected = rng.choice(graph.num_nodes, size=k, replace=False)
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm="Random",
        selected=tuple(int(v) for v in selected),
        elapsed_seconds=elapsed,
        params={"k": k},
    )
