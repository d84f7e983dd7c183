"""Random-walk domination on directed, weighted graphs.

The paper's closing claim of Section 2 — the techniques extend to directed
and weighted graphs — realized end to end:

* the walk index is materialized with weighted (alias-method) walks, after
  which Algorithm 6's machinery is *unchanged* (the index never looks at
  the graph again);
* the DP-based greedy runs the same Theorem 2.2/2.3 recursions over the
  weighted transition operator.
"""

from __future__ import annotations

import time
from typing import Collection

import numpy as np

from repro.errors import ParameterError
from repro.graphs.weighted import WeightedDiGraph
from repro.hitting.weighted import (
    weighted_hit_probability_vector,
    weighted_hitting_time_vector,
)
from repro.core.approx_fast import FastApproxEngine
from repro.core.greedy import greedy_select
from repro.core.result import SelectionResult
from repro.walks.alias import AliasSampler, weighted_batch_walks
from repro.walks.build import DenseEntryWriter, ExternalSortSink
from repro.walks.index import (
    FlatWalkIndex,
    _validate_params,
    _walker_major_rows,
    check_index_fits,
)
from repro.walks.records import first_visit_records
from repro.walks.rng import resolve_rng

__all__ = [
    "build_weighted_index",
    "weighted_approx_greedy",
    "weighted_dpf1",
    "weighted_dpf2",
    "WeightedF1Objective",
    "WeightedF2Objective",
]


def build_weighted_index(
    graph: WeightedDiGraph,
    length: int,
    num_replicates: int,
    seed: "int | np.random.Generator | None" = None,
    chunk_rows: int = 1 << 19,
) -> FlatWalkIndex:
    """Algorithm 3 with weighted walks: R alias-sampled walks per node.

    The records take the static builder's path: packed per chunk
    (:func:`~repro.walks.records.first_visit_records`) straight into the
    external sorter's record buffer, assembled by
    :class:`~repro.walks.build.DenseEntryWriter`.
    """
    n = graph.num_nodes
    _validate_params(n, length, num_replicates)
    rng = resolve_rng(seed)
    sampler = AliasSampler(graph)
    total = n * num_replicates

    def chunks(sink):
        for lo in range(0, total, chunk_rows):
            starts, states = _walker_major_rows(
                n, num_replicates, lo, min(lo + chunk_rows, total)
            )
            walks = weighted_batch_walks(
                graph, starts, length, seed=rng, sampler=sampler
            )
            yield first_visit_records(
                walks, states, sink.packer, out=sink.vacant()
            )

    with ExternalSortSink(n, num_replicates, length) as sink:
        sink.consume_all(chunks(sink))
        indptr, state, hop = sink.finalize(DenseEntryWriter(n, num_replicates))
    return FlatWalkIndex(
        indptr=indptr, state=state, hop=hop, num_nodes=n, length=length,
        num_replicates=num_replicates,
    )


def weighted_approx_greedy(
    graph: WeightedDiGraph,
    k: int,
    length: int,
    num_replicates: int = 100,
    objective: str = "f1",
    seed: "int | np.random.Generator | None" = None,
    index: FlatWalkIndex | None = None,
    lazy: bool = True,
) -> SelectionResult:
    """Algorithm 6 on a directed, weighted graph."""
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    started = time.perf_counter()
    if index is None:
        index = build_weighted_index(graph, length, num_replicates, seed=seed)
    else:
        check_index_fits(index, graph, length)
    engine = FastApproxEngine(index, objective=objective)
    engine.run(k, lazy=lazy)
    elapsed = time.perf_counter() - started
    name = "WeightedApproxF1" if objective == "f1" else "WeightedApproxF2"
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
            "weighted": True,
        },
    )


class WeightedF1Objective:
    """Exact weighted ``F1(S) = n L - sum h^L_uS`` (directed walks)."""

    name = "F1w"

    def __init__(self, graph: WeightedDiGraph, length: int):
        if length < 0:
            raise ParameterError("walk length L must be >= 0")
        self._graph = graph
        self._length = length
        self._base_key: frozenset[int] | None = None
        self._base_value = 0.0

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    def value(self, targets: Collection[int]) -> float:
        h = weighted_hitting_time_vector(self._graph, set(targets), self._length)
        return self.num_nodes * self._length - float(h.sum())

    def marginal_gain(self, targets: Collection[int], candidate: int) -> float:
        key = frozenset(targets)
        if key != self._base_key:
            self._base_value = self.value(key)
            self._base_key = key
        return self.value(key | {candidate}) - self._base_value


class WeightedF2Objective(WeightedF1Objective):
    """Exact weighted ``F2(S) = sum p^L_uS`` (directed walks)."""

    name = "F2w"

    def value(self, targets: Collection[int]) -> float:
        p = weighted_hit_probability_vector(self._graph, set(targets), self._length)
        return float(p.sum())


def weighted_dpf1(
    graph: WeightedDiGraph, k: int, length: int, lazy: bool = True
) -> SelectionResult:
    """DP-based greedy for Problem 1 on a weighted digraph."""
    result = greedy_select(
        WeightedF1Objective(graph, length), k, lazy=lazy,
        algorithm_name="WeightedDPF1",
    )
    result.params.update({"L": length, "objective": "f1", "weighted": True})
    return result


def weighted_dpf2(
    graph: WeightedDiGraph, k: int, length: int, lazy: bool = True
) -> SelectionResult:
    """DP-based greedy for Problem 2 on a weighted digraph."""
    result = greedy_select(
        WeightedF2Objective(graph, length), k, lazy=lazy,
        algorithm_name="WeightedDPF2",
    )
    result.params.update({"L": length, "objective": "f2", "weighted": True})
    return result
