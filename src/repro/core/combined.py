"""Combined objective — the paper's first future-work problem.

Section 5 suggests optimizing a positively weighted combination of the two
objectives, noting it stays submodular:

    ``F_w(S) = w1 * F1(S) + w2 * F2(S)``,  ``w1, w2 >= 0``.

* :class:`CombinedObjective` — exact, pluggable into the generic greedy.
* :func:`approx_combined` — Algorithm 6 machinery: two
  :class:`FastApproxEngine` instances share one walk index; the blended raw
  gain drives the greedy driver's CELF rounds and both states are updated
  after each pick.

Because ``F1`` is measured in hops (scale ``~ n L``) and ``F2`` in nodes
(scale ``~ n``), callers who want a balanced trade-off typically pass
``w1 = lambda / L`` and ``w2 = 1 - lambda`` — helper
:func:`balanced_weights` does exactly that.
"""

from __future__ import annotations

import time
from typing import Collection

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.approx_fast import FastApproxEngine
from repro.core.greedy import greedy_select, run_greedy
from repro.core.objectives import F1Objective, F2Objective
from repro.core.result import SelectionResult
from repro.walks.index import FlatWalkIndex, check_index_fits

__all__ = ["CombinedObjective", "balanced_weights", "combined_greedy", "approx_combined"]


def _check_weights(weight_f1: float, weight_f2: float) -> None:
    if weight_f1 < 0 or weight_f2 < 0:
        raise ParameterError("weights must be non-negative")
    if weight_f1 == 0 and weight_f2 == 0:
        raise ParameterError("at least one weight must be positive")


def balanced_weights(trade_off: float, length: int) -> tuple[float, float]:
    """Weights putting ``F1`` and ``F2`` on comparable scales.

    ``trade_off = 1`` is pure (scaled) ``F1``; ``trade_off = 0`` is pure
    ``F2``.  ``F1`` is divided by ``L`` so one fully-dominated node is worth
    one unit under either term.
    """
    if not 0.0 <= trade_off <= 1.0:
        raise ParameterError("trade_off must lie in [0, 1]")
    if length <= 0:
        raise ParameterError("length must be positive to balance scales")
    return trade_off / length, 1.0 - trade_off


class CombinedObjective:
    """Exact ``w1 F1 + w2 F2`` — nondecreasing submodular by closure."""

    name = "F1+F2"

    def __init__(
        self, graph: Graph, length: int, weight_f1: float, weight_f2: float
    ):
        _check_weights(weight_f1, weight_f2)
        self._f1 = F1Objective(graph, length)
        self._f2 = F2Objective(graph, length)
        self.weight_f1 = weight_f1
        self.weight_f2 = weight_f2

    @property
    def num_nodes(self) -> int:
        return self._f1.num_nodes

    def value(self, targets: Collection[int]) -> float:
        return self.weight_f1 * self._f1.value(targets) + self.weight_f2 * (
            self._f2.value(targets)
        )

    def marginal_gain(self, targets: Collection[int], candidate: int) -> float:
        return self.weight_f1 * self._f1.marginal_gain(targets, candidate) + (
            self.weight_f2 * self._f2.marginal_gain(targets, candidate)
        )


def combined_greedy(
    graph: Graph,
    k: int,
    length: int,
    weight_f1: float,
    weight_f2: float,
    lazy: bool = True,
) -> SelectionResult:
    """Exact greedy on the combined objective."""
    objective = CombinedObjective(graph, length, weight_f1, weight_f2)
    result = greedy_select(objective, k, lazy=lazy, algorithm_name="CombinedDP")
    result.params.update(
        {"L": length, "w1": weight_f1, "w2": weight_f2, "objective": "combined"}
    )
    return result


class _BlendedEngine:
    """``w1 * F1 + w2 * F2`` raw gains over two engines on one index.

    Float rounding is monotone, so a stale blended gain still bounds the
    fresh one from above, and CELF selects what the full sweep would.
    """

    def __init__(self, index, weight_f1, weight_f2):
        self.f1 = FastApproxEngine(index, "f1")
        self.f2 = FastApproxEngine(index, "f2")
        self.w1, self.w2 = weight_f1, weight_f2
        self.selected: list[int] = []
        self.gains: list[float] = []

    def gains_all(self) -> np.ndarray:
        return self.w1 * self.f1.gains_all().astype(np.float64) + (
            self.w2 * self.f2.gains_all().astype(np.float64)
        )

    def gain_of(self, node: int) -> float:
        return self.w1 * float(self.f1.gain_of(node)) + (
            self.w2 * float(self.f2.gain_of(node))
        )

    def select(self, node: int, gain: float) -> None:
        self.f1.select(node)
        self.f2.select(node)
        self.selected.append(node)
        self.gains.append(float(gain) / self.f1.num_replicates)


def approx_combined(
    graph: Graph,
    k: int,
    length: int,
    weight_f1: float,
    weight_f2: float,
    num_replicates: int = 100,
    seed: "int | np.random.Generator | None" = None,
    index: FlatWalkIndex | None = None,
) -> SelectionResult:
    """Index-based greedy on ``w1 F1 + w2 F2`` (one shared walk index).

    Runs CELF rounds on the greedy driver: the blended gains remain
    submodular, so the selection equals the full sweep's.
    """
    _check_weights(weight_f1, weight_f2)
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    started = time.perf_counter()
    if index is None:
        index = FlatWalkIndex.build(graph, length, num_replicates, seed=seed)
    else:
        check_index_fits(index, graph, length)
    engine = _BlendedEngine(index, weight_f1, weight_f2)
    run_greedy(engine, k)
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm="CombinedApprox",
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=engine.f1.num_gain_evaluations
        + engine.f2.num_gain_evaluations,
        params={
            "k": k,
            "L": index.length,
            "R": index.num_replicates,
            "w1": weight_f1,
            "w2": weight_f2,
            "objective": "combined",
        },
    )
