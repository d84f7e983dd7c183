"""Approximate greedy — Algorithms 3-6, paper-faithful implementation.

This module transcribes the pseudocode of Section 3.2 as directly as Python
allows, down to the ``D[1:R][1:n]`` array and the per-entry comparisons of
Algorithms 4 and 5.  It is the readable reference implementation: the
vectorized engine in :mod:`repro.core.approx_fast` must agree with it
entry-for-entry (tests enforce this on shared walks), and the worked
Example 3.1 of the paper runs verbatim against this code in the test suite.

Semantics recap (Problem 1; Problem 2 variants in comments, as in the
paper's pseudocode):

* ``D[i][u]`` estimates ``h^L_uS`` using replicate ``i``'s walks
  (initialized to ``L`` for ``S = empty``).
* ``Approx_Gain`` (Alg. 4): ``sigma_u = sum_i (D[i][u] +
  sum_{<v, w> in I[i][u], w < D[i][v]} (D[i][v] - w)) / R``; the constant
  ``-L`` of the true marginal gain is dropped, as the paper notes, because
  it does not affect the argmax.
* ``Update`` (Alg. 5): after selecting ``u``, set ``D[i][u] = 0`` and relax
  ``D[i][v] = min(D[i][v], w)`` for every entry ``<v, w>`` of ``I[i][u]``.

For Problem 2, ``D[i][u]`` estimates the *hit indicator*: initialized to 0,
set to 1 when replicate ``i``'s walk from ``u`` hits the current ``S``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.result import SelectionResult
from repro.walks.index import InvertedIndex, check_index_fits

__all__ = ["approx_gain", "update_distances", "approx_greedy", "initial_distances"]

_OBJECTIVES = ("f1", "f2")


def _check_objective(objective: str) -> None:
    if objective not in _OBJECTIVES:
        raise ParameterError(f"objective must be one of {_OBJECTIVES}")


def initial_distances(index: InvertedIndex, objective: str) -> list[list[int]]:
    """The ``D[1:R][1:n]`` array for ``S = empty`` (Alg. 6 line 3).

    ``L`` everywhere for Problem 1 (``h^L_u∅ = L``), ``0`` for Problem 2
    (no walk hits the empty set).
    """
    _check_objective(objective)
    fill = index.length if objective == "f1" else 0
    return [
        [fill] * index.num_nodes for _ in range(index.num_replicates)
    ]


def approx_gain(
    index: InvertedIndex,
    distances: list[list[int]],
    candidate: int,
    objective: str = "f1",
) -> float:
    """Algorithm 4 (``Approx_Gain``): estimated marginal gain of one node."""
    _check_objective(objective)
    sigma = 0.0
    for i in range(index.num_replicates):
        row = distances[i]
        if objective == "f1":
            sigma += row[candidate]
            for entry in index.entries(i, candidate):
                if entry.hop < row[entry.walker]:
                    sigma += row[entry.walker] - entry.hop
        else:
            sigma += 1 - row[candidate]
            for entry in index.entries(i, candidate):
                # Problem-2 entries carry weight 1 in the paper; any recorded
                # hit counts iff the walker does not already hit S.
                if row[entry.walker] == 0:
                    sigma += 1
    return sigma / index.num_replicates


def update_distances(
    index: InvertedIndex,
    distances: list[list[int]],
    selected: int,
    objective: str = "f1",
) -> None:
    """Algorithm 5 (``Update``): fold one selection into ``D`` in place."""
    _check_objective(objective)
    for i in range(index.num_replicates):
        row = distances[i]
        if objective == "f1":
            row[selected] = 0
            for entry in index.entries(i, selected):
                if entry.hop < row[entry.walker]:
                    row[entry.walker] = entry.hop
        else:
            row[selected] = 1
            for entry in index.entries(i, selected):
                if row[entry.walker] == 0:
                    row[entry.walker] = 1


def approx_greedy(
    graph: Graph,
    k: int,
    length: int,
    num_replicates: int = 100,
    objective: str = "f1",
    seed: "int | np.random.Generator | None" = None,
    index: InvertedIndex | None = None,
) -> SelectionResult:
    """Algorithm 6: the approximate greedy algorithm (reference version).

    Parameters mirror the paper: budget ``k``, walk length ``L``, replicate
    count ``R``.  A prebuilt ``index`` can be supplied to reuse walks across
    runs (e.g. to solve both problems from the same samples, or to inject
    deterministic walks in tests); otherwise Algorithm 3 builds one.

    Ties in the argmax break toward the smaller node id (the paper breaks
    them randomly; a deterministic rule makes runs reproducible).
    """
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    _check_objective(objective)
    started = time.perf_counter()
    if index is None:
        index = InvertedIndex.build(graph, length, num_replicates, seed=seed)
    else:
        check_index_fits(index, graph, length)
    distances = initial_distances(index, objective)
    selected: list[int] = []
    gains: list[float] = []
    chosen = [False] * graph.num_nodes
    evaluations = 0
    for _ in range(k):
        best_node = -1
        best_gain = -float("inf")
        for u in range(graph.num_nodes):
            if chosen[u]:
                continue
            gain = approx_gain(index, distances, u, objective)
            evaluations += 1
            if gain > best_gain:
                best_gain = gain
                best_node = u
        selected.append(best_node)
        gains.append(best_gain)
        chosen[best_node] = True
        update_distances(index, distances, best_node, objective)
    elapsed = time.perf_counter() - started
    name = "ApproxF1" if objective == "f1" else "ApproxF2"
    return SelectionResult(
        algorithm=name,
        selected=tuple(selected),
        gains=tuple(gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=evaluations,
        params={
            "k": k,
            "L": index.length,
            "R": index.num_replicates,
            "method": "approx",
            "objective": objective,
            "engine": "reference",
        },
    )
