"""The two submodular objectives of the paper, as evaluable set functions.

* ``F1(S) = n L - sum_{u in V\\S} h^L_uS``  (Problem 1, Eq. 6) — maximizing
  it minimizes the total generalized hitting time into ``S``.
* ``F2(S) = E[sum_u X^L_uS] = sum_u p^L_uS`` (Problem 2, Eq. 7) — the
  expected number of nodes dominated by ``S``.

Both are nondecreasing submodular with ``F(emptyset) = 0`` (Theorems
3.1/3.2), which is what entitles greedy to its ``1 - 1/e`` guarantee.

Two backends per objective:

* *exact* (:class:`F1Objective`, :class:`F2Objective`) — each evaluation is
  one ``O(m L)`` DP from :mod:`repro.hitting.exact`;
* *sampled* (:class:`SampledF1`, :class:`SampledF2`) — each evaluation runs
  Algorithm 2 with ``R`` fresh walks, the estimator the paper's
  sampling-based greedy uses.

All objectives implement the small :class:`SetObjective` interface consumed
by the generic greedy kernel (:mod:`repro.core.greedy`).
"""

from __future__ import annotations

from typing import Collection, Protocol

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.hitting.exact import hit_probability_vector, hitting_time_vector
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.estimators import estimate_f1, estimate_f2
from repro.walks.rng import resolve_rng

__all__ = [
    "SetObjective",
    "F1Objective",
    "F2Objective",
    "SampledF1",
    "SampledF2",
]


class SetObjective(Protocol):
    """What the greedy kernel needs from an objective."""

    @property
    def num_nodes(self) -> int:
        """Size of the ground set ``V``."""
        ...

    def value(self, targets: Collection[int]) -> float:
        """Objective value ``F(S)``."""
        ...

    def marginal_gain(self, targets: Collection[int], candidate: int) -> float:
        """``F(S + u) - F(S)``; may assume ``candidate not in targets``."""
        ...


class _GraphObjective:
    """Shared plumbing for graph-based objectives.

    ``cache_base`` controls whether :meth:`marginal_gain` may reuse a cached
    ``F(S)`` across candidates of the same round.  Exact objectives are
    deterministic, so caching is a pure speedup (one DP per candidate
    instead of two).  Sampled objectives keep it off: the paper's
    sampling-based greedy evaluates Algorithm 2 twice per marginal gain.
    """

    cache_base = True

    def __init__(self, graph: Graph, length: int):
        if length < 0:
            raise ParameterError("walk length L must be >= 0")
        self._graph = graph
        self._length = length
        self._base_key: frozenset[int] | None = None
        self._base_value = 0.0

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def length(self) -> int:
        return self._length

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    def marginal_gain(self, targets: Collection[int], candidate: int) -> float:
        key = frozenset(targets)
        if self.cache_base and key == self._base_key:
            base = self._base_value
        else:
            base = self.value(key)
            if self.cache_base:
                self._base_key = key
                self._base_value = base
        return self.value(key | {candidate}) - base

    def value(self, targets: Collection[int]) -> float:  # pragma: no cover
        raise NotImplementedError


class F1Objective(_GraphObjective):
    """Exact Problem 1 objective ``F1(S) = n L - sum_{u notin S} h^L_uS``.

    Values are computed by the Theorem 2.2 DP; one call costs ``O(m L)``.
    """

    name = "F1"

    def value(self, targets: Collection[int]) -> float:
        target_set = set(targets)
        h = hitting_time_vector(self._graph, target_set, self._length)
        outside_sum = float(h.sum())  # h is 0 on S, so summing all is summing V\S
        return self.num_nodes * self._length - outside_sum


class F2Objective(_GraphObjective):
    """Exact Problem 2 objective ``F2(S) = sum_u p^L_uS``.

    Values come from the Theorem 2.3 DP (``p = 1`` on ``S`` itself).
    """

    name = "F2"

    def value(self, targets: Collection[int]) -> float:
        p = hit_probability_vector(self._graph, set(targets), self._length)
        return float(p.sum())


class _SampledObjective(_GraphObjective):
    """Algorithm 2-backed objective: every evaluation draws fresh walks.

    A child RNG stream is derived per evaluation so values are reproducible
    given the constructor seed yet independent across calls, which is how
    the paper's sampling-based greedy treats repeated invocations.
    """

    cache_base = False

    def __init__(
        self,
        graph: Graph,
        length: int,
        num_samples: int,
        seed: "int | np.random.Generator | None" = None,
        engine: "str | WalkEngine | None" = None,
    ):
        super().__init__(graph, length)
        if num_samples < 1:
            raise ParameterError("num_samples R must be >= 1")
        self._num_samples = num_samples
        self._rng = resolve_rng(seed)
        self._engine = get_engine(engine)
        self.num_estimates = 0

    @property
    def num_samples(self) -> int:
        return self._num_samples


class SampledF1(_SampledObjective):
    """Monte-Carlo ``F1`` (Eq. 9 estimator summed per Algorithm 2)."""

    name = "F1~"

    def value(self, targets: Collection[int]) -> float:
        self.num_estimates += 1
        return estimate_f1(
            self._graph, set(targets), self._length, self._num_samples,
            seed=self._rng, engine=self._engine,
        )


class SampledF2(_SampledObjective):
    """Monte-Carlo ``F2`` (Eq. 10 estimator summed per Algorithm 2)."""

    name = "F2~"

    def value(self, targets: Collection[int]) -> float:
        self.num_estimates += 1
        return estimate_f2(
            self._graph, set(targets), self._length, self._num_samples,
            seed=self._rng, engine=self._engine,
        )
