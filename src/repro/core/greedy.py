"""The greedy driver — Algorithm 1, plus CELF lazy evaluation.

Every greedy selection in this package runs through :func:`run_greedy`
over an *engine* that owns the gain state: ``gains_all()`` returns every
node's marginal gain as a fresh ``int64`` or ``float64`` array the driver
may overwrite, ``gain_of(u)`` one node's, and ``select(u, gain)`` commits.

* ``lazy=False`` — the textbook Algorithm 1: every round sweeps all gains
  and takes the argmax over the nodes not yet chosen.
* ``lazy=True`` — the CELF strategy of Leskovec et al. [19] that the paper
  recommends: earlier gains upper-bound current ones (by submodularity),
  so candidates sit in a heap of ``(-gain, node, stamp)`` and only the top
  is re-evaluated.  An entry is fresh when its stamp equals the number of
  selections made, so the opening sweep is fresh in round 1.  For a
  submodular objective the selection equals the full sweep's, and its
  order does not depend on ``k``.

Both break ties toward the smaller node id.  :func:`greedy_select` runs
any :class:`repro.core.objectives.SetObjective` through a private adapter
engine; the DP-based and sampling-based greedy variants share it.
"""

from __future__ import annotations

import heapq
import time
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.errors import ParameterError
from repro.core.objectives import SetObjective
from repro.core.result import SelectionResult

__all__ = ["greedy_select", "run_greedy"]


def run_greedy(
    engine,
    k: int,
    lazy: bool = True,
    target: "float | None" = None,
    exclude: "np.ndarray | None" = None,
) -> "int | float":
    """Select up to ``k`` nodes on ``engine``; returns their summed gain.

    ``exclude`` masks nodes chosen before this run.  With a ``target`` the
    run stops once the summed gain reaches it, or, without selecting, when
    the best remaining gain is ``<= 0``; the caller checks the sum.
    Without one, all ``k`` nodes are selected, zero-gain nodes included.
    """
    if k == 0 or _reached(0, target):
        return 0
    gains = engine.gains_all()
    chosen = np.zeros(gains.size, dtype=bool)
    if exclude is not None:
        chosen |= exclude
    loop = _celf if lazy else _full_sweep
    return loop(engine, k, target, gains, chosen)


def _reached(total, target) -> bool:
    return target is not None and total >= target


def _full_sweep(engine, k, target, gains, chosen):
    total = 0
    for picks in range(1, k + 1):
        dtype = gains.dtype
        gains[chosen] = -np.inf if dtype.kind == "f" else np.iinfo(dtype).min
        node = int(gains.argmax())  # argmax takes the smallest id on ties
        gain = gains[node].item()
        if target is not None and gain <= 0:
            break
        engine.select(node, gain)
        chosen[node] = True
        total += gain
        if picks == k or _reached(total, target):
            break
        gains = engine.gains_all()
    return total


def _celf(engine, k, target, gains, chosen):
    nodes = np.flatnonzero(~chosen)
    # Python's heap is a min-heap, so gains are negated; equal gains order
    # by node id, matching the full sweep's first-maximum rule.
    heap = list(zip((-gains[nodes]).tolist(), nodes.tolist(), repeat(0)))
    heapq.heapify(heap)
    total = 0
    for picks in range(k):
        neg_gain, node, stamp = heapq.heappop(heap)
        while stamp != picks:
            fresh = (-engine.gain_of(node), node, picks)
            neg_gain, node, stamp = heapq.heappushpop(heap, fresh)
        gain = -neg_gain
        if target is not None and gain <= 0:
            break
        engine.select(node, gain)
        total += gain
        if _reached(total, target):
            break
    return total


class _ObjectiveEngine:
    """A :class:`SetObjective` as a driver engine over a candidate pool.

    Keeps the chosen set and the evaluation count; nodes outside ``pool``
    score ``-inf``, so the driver never offers them.
    """

    def __init__(self, objective: SetObjective, pool: Iterable[int]):
        self.objective = objective
        self.pool = list(pool)
        self.chosen: set[int] = set()
        self.selected: list[int] = []
        self.gains: list[float] = []
        self.evaluations = 0

    def gains_all(self) -> np.ndarray:
        gains = np.full(self.objective.num_nodes, -np.inf)
        for u in self.pool:
            if u not in self.chosen:
                gains[u] = self.gain_of(u)
        return gains

    def gain_of(self, node: int) -> float:
        self.evaluations += 1
        return self.objective.marginal_gain(self.chosen, node)

    def select(self, node: int, gain: float) -> None:
        self.chosen.add(node)
        self.selected.append(node)
        self.gains.append(float(gain))


def greedy_select(
    objective: SetObjective,
    k: int,
    lazy: bool = True,
    candidates: "Iterable[int] | None" = None,
    algorithm_name: str = "greedy",
) -> SelectionResult:
    """Select up to ``k`` nodes greedily maximizing ``objective``.

    Parameters
    ----------
    objective:
        The set function to maximize; assumed nondecreasing submodular for
        the (1 - 1/e) guarantee and for ``lazy=True`` equivalence.
    k:
        Cardinality budget.
    lazy:
        Use CELF lazy evaluation (default) or full sweeps.
    candidates:
        Optional restriction of the ground set (defaults to all nodes).
    algorithm_name:
        Stamped on the returned :class:`SelectionResult`.
    """
    n = objective.num_nodes
    if not 0 <= k <= n:
        raise ParameterError(f"k={k} must lie in [0, n={n}]")
    pool = list(range(n)) if candidates is None else sorted(set(candidates))
    if any(not 0 <= u < n for u in pool):
        raise ParameterError("candidates out of range")
    if k > len(pool):
        raise ParameterError(f"k={k} exceeds candidate pool of {len(pool)}")

    started = time.perf_counter()
    engine = _ObjectiveEngine(objective, pool)
    run_greedy(engine, k, lazy=lazy)
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm=algorithm_name,
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=engine.evaluations,
        params={"k": k, "lazy": lazy},
    )
