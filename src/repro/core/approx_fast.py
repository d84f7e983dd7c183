"""Approximate greedy — Algorithm 6 on the vectorized index engine.

Same estimator semantics as :mod:`repro.core.approx_greedy` (tests assert
exact agreement on shared walks), but all inner loops become numpy array
passes over the :class:`~repro.walks.index.FlatWalkIndex`:

* The ``D[1:R][1:n]`` matrix is one flat array ``d`` of length ``R * n``,
  ``int16`` distances for Problem 1 and ``uint8`` coverage flags for
  Problem 2 (the narrowest dtypes that hold every value exactly); index
  entry ``<v hits u at hop w, replicate i>`` touches ``d[i * n + v]``,
  which is exactly the pre-computed ``state`` column of the flat index.
* A full gain sweep (gain of *every* candidate) is: per-entry contribution
  ``max(D[state] - hop, 0)`` (Problem 1) or ``1 - D[state]`` (Problem 2),
  group-summed by hit node with an exact integer cumulative sum, plus the
  per-node column sums of ``D``.  One pass over the index — ``O(n R L)`` —
  matches the per-round cost the paper proves for Algorithm 6.
* A single gain gathers the cells of one candidate's entry slice once,
  into one narrow temporary, and sums in ``int64``; selecting ``u``
  relaxes ``d`` on that slice only.

The index arrays are plain ndarrays whether the index was built in RAM or
loaded from an archive (read-only views over its memory maps), so both
run the same code.

The engine supplies gains; the greedy driver (:mod:`repro.core.greedy`)
runs the rounds, as CELF lazy evaluation by default (``lazy=True``) or as
the paper's full sweep.  The per-replicate estimated objectives are genuine
coverage-type submodular functions, so stale gains are valid upper bounds
and the selected set provably matches the full sweep under the same
smaller-id tie-breaking, while touching only the entry slices of
re-evaluated candidates.  This engine is the package's one gain engine
(DESIGN.md §8).
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.greedy import run_greedy
from repro.core.result import SelectionResult
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.index import FlatWalkIndex, check_index_fits

__all__ = ["FastApproxEngine", "approx_greedy_fast"]

_OBJECTIVES = ("f1", "f2")

#: Entries per block of the closed-form f1 sweep: caps the copy
#: ``np.add.reduceat`` makes of its input in its accumulator dtype at
#: 4 MB (``int32``) or 8 MB (``int64``), instead of that many bytes per
#: index entry.
_SWEEP_BLOCK = 1 << 20


class FastApproxEngine:
    """Mutable Algorithm 6 state over a flat walk index.

    The engine owns the gain state and exposes gain queries and selection
    updates; :meth:`run` hands it to the greedy driver
    (:func:`repro.core.greedy.run_greedy`), and the extension solvers
    (:mod:`repro.core.coverage`, :mod:`repro.core.combined`) reuse it.  That
    state is the flat ``d`` array, kept in the narrowest dtype that holds
    it exactly (DESIGN.md §8.1):

    * f1: ``int16``.  A cell holds ``L`` (at most
      :data:`~repro.walks.records.MAX_WALK_LENGTH`), ``0``, or the minimum
      of itself and a stored ``int16`` hop.
    * f2: ``uint8``.  A cell is a 0/1 coverage flag.

    :meth:`gain_of` and :meth:`select` gather a candidate's cells with one
    ``d.take`` into one narrow temporary and finish in place; every sum
    and gain is ``int64``.
    """

    def __init__(self, index: FlatWalkIndex, objective: str = "f1"):
        if objective not in _OBJECTIVES:
            raise ParameterError(f"objective must be one of {_OBJECTIVES}")
        self.index = index
        self.objective = objective
        n = index.num_nodes
        r = index.num_replicates
        if objective == "f1":
            self.d = np.full(n * r, index.length, dtype=np.int16)
        else:
            self.d = np.zeros(n * r, dtype=np.uint8)
        self._chosen = np.zeros(n, dtype=bool)
        self.selected: list[int] = []
        self.gains: list[float] = []
        self.num_gain_evaluations = 0
        # Plain-int telemetry accumulators: incremented unconditionally in
        # the hot paths (cheaper than a branch) and flushed to the metrics
        # registry once per solve by the driver when telemetry is on.
        self.num_full_sweeps = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.index.num_nodes

    @property
    def num_replicates(self) -> int:
        return self.index.num_replicates

    def distance_matrix(self) -> np.ndarray:
        """Current ``D`` as an ``(R, n)`` copy, for inspection.

        In the state's own dtype: ``int16`` distances for f1, ``uint8``
        coverage flags for f2.
        """
        return self.d.reshape(self.num_replicates, self.num_nodes).copy()

    # ------------------------------------------------------------------
    def gains_all(self) -> np.ndarray:
        """Raw gain sums (``sigma_u * R``) for every node.

        Kept as ``int64`` integers times ``R`` to stay exact; divide by
        ``R`` to match :func:`repro.core.approx_greedy.approx_gain`.  One
        index pass.
        """
        self.num_full_sweeps += 1
        self.num_gain_evaluations += self.num_nodes
        index = self.index
        r = self.num_replicates
        if self.objective == "f2" and not self.d.any():
            # Nothing covered yet: every entry contributes exactly 1, so
            # the sweep is ``R + per-node entry counts`` — no state pass.
            # This is the first sweep of every fresh solve.
            return r + np.diff(index.indptr)
        if self.objective == "f1" and not self.selected:
            return self._fresh_f1_gains()
        cells = self.d.take(index.state)
        columns = self.d.reshape(r, self.num_nodes).sum(axis=0, dtype=np.int64)
        if self.objective == "f1":
            contrib = np.subtract(cells, index.hop, dtype=np.int64)
            np.maximum(contrib, 0, out=contrib)
            base = columns
        else:
            contrib = np.subtract(1, cells, dtype=np.int64)
            base = r - columns
        # Exact group sums by hit node: cumulative sum differences.  All
        # contributions are integers, so int64 cumsum is exact.
        running = np.zeros(contrib.size + 1, dtype=np.int64)
        np.cumsum(contrib, out=running[1:])
        entry_sums = running[index.indptr[1:]] - running[index.indptr[:-1]]
        return base + entry_sums

    def _fresh_f1_gains(self) -> np.ndarray:
        """The f1 sweep while every ``d`` is ``L``, in closed form.

        Each entry contributes ``max(L - hop, 0) = L - min(hop, L)``, so
        node ``u``'s gain is ``R L + L c(u) - sum(min(hop, L))`` over its
        ``c(u)`` entries: one pass over the hops, no state gather.

        A loaded archive's hops are structure-checked, not range-checked,
        so one max pass decides whether any stored hop exceeds ``L``; only
        then does each block go through a clamped copy.  ``reduceat``
        casts its input to its accumulator dtype, so the hops go through
        in blocks of about :data:`_SWEEP_BLOCK` entries, cut at segment
        starts, and it accumulates in ``int32`` when the largest slice
        times the largest ``|hop|`` (after the clamp) fits there, in
        ``int64`` otherwise.  ``reduceat`` ends each segment at the next
        start, so it runs over the non-empty segments only: an empty
        segment's start would cut its predecessor short, or lie past the
        end of the array.
        """
        index = self.index
        length = index.length
        indptr = index.indptr
        hops = index.hop
        counts = np.diff(indptr).astype(np.int64)
        gains = counts * length
        gains += self.num_replicates * length
        total = int(indptr[-1])
        if total == 0:
            return gains
        top = int(hops.max())
        clamp = top > length
        widest = max(min(top, length), -int(hops.min()))
        fits = int(counts.max()) * widest <= np.iinfo(np.int32).max
        accumulator = np.int32 if fits else np.int64
        nodes = np.flatnonzero(counts)
        starts = indptr[nodes]
        cuts = np.searchsorted(starts, np.arange(0, total, _SWEEP_BLOCK))
        cuts = np.unique(np.append(cuts, nodes.size))
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            lo = int(starts[a])
            hi = int(starts[b]) if b < nodes.size else total
            block = hops[lo:hi]
            if clamp:
                block = np.minimum(block, length)
            gains[nodes[a:b]] -= np.add.reduceat(
                block, starts[a:b] - lo, dtype=accumulator
            )
        return gains

    def gain_of(self, node: int) -> int:
        """Raw gain sum (``sigma_u * R``) of a single candidate."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        self.num_gain_evaluations += 1
        own = self.d[node :: self.num_nodes]
        if self.objective == "f1":
            state, hop = self.index.entries_for(node)
            cells = self.d.take(state)
            # sum(max(d - hop, 0)) == sum(d) - sum(min(d, hop)), and the
            # minimum of two int16 values is formed in place, exactly.
            before = int(cells.sum(dtype=np.int64))
            np.minimum(cells, hop, out=cells)
            after = int(cells.sum(dtype=np.int64))
            return int(own.sum(dtype=np.int64)) + before - after
        # f2 never reads hops: the gain counts the uncovered cells.
        state = self.index.states_for(node)
        covered = np.count_nonzero(own) + np.count_nonzero(self.d.take(state))
        return self.num_replicates + int(state.size) - int(covered)

    def select(self, node: int, gain: "float | None" = None) -> None:
        """Commit one selection: record it and run Algorithm 5's update."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        if self._chosen[node]:
            raise ParameterError(f"node {node} already selected")
        if self.objective == "f1":
            state, hop = self.index.entries_for(node)
            self.d[node :: self.num_nodes] = 0
            cells = self.d.take(state)
            np.minimum(cells, hop, out=cells)
            # First-visit dedup guarantees one entry per (replicate, walker)
            # pair per hit node, so plain fancy assignment is race-free.
            self.d[state] = cells
        else:
            self.d[node :: self.num_nodes] = 1
            self.d[self.index.states_for(node)] = 1
        self._chosen[node] = True
        self.selected.append(int(node))
        self.gains.append(
            float(gain) / self.num_replicates if gain is not None else float("nan")
        )

    # ------------------------------------------------------------------
    def run(self, k: int, lazy: bool = True) -> None:
        """Greedily select ``k`` nodes (continuing any prior selections)."""
        if not 0 <= k <= self.num_nodes - len(self.selected):
            raise ParameterError("k out of range for remaining candidates")
        run_greedy(self, k, lazy=lazy, exclude=self._chosen)


def approx_greedy_fast(
    graph: Graph,
    k: int,
    length: int,
    num_replicates: int = 100,
    objective: str = "f1",
    seed: "int | np.random.Generator | None" = None,
    index: FlatWalkIndex | None = None,
    lazy: bool = True,
    engine: "str | WalkEngine | None" = None,
) -> SelectionResult:
    """Algorithm 6 on the vectorized engine (``ApproxF1`` / ``ApproxF2``).

    Drop-in equivalent of :func:`repro.core.approx_greedy.approx_greedy`
    (same estimator, same tie-breaking); ``lazy`` switches between CELF and
    the paper's full sweep, which produce the same selection and differ only
    in work.  Supply a prebuilt ``index`` to reuse walks across runs.
    ``engine`` picks the walk backend used to materialize the index
    (:mod:`repro.walks.backends`; ignored when ``index`` is supplied): the
    default ``"csr"`` or the reference ``"numpy"``, which yield identical
    selections under the same seed.  Without an ``index`` the call is a
    cold select: :meth:`FlatWalkIndex.build` walks, extracts records into
    one buffer, sorts it in place and decodes it into the entry columns,
    under the ``index.build.*`` spans, before the greedy run.
    """
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    walk_engine = get_engine(engine)
    started = time.perf_counter()
    with obs.span("solve.greedy", objective=objective, k=k):
        if index is None:
            index = FlatWalkIndex.build(
                graph, length, num_replicates, seed=seed, engine=walk_engine
            )
        else:
            check_index_fits(index, graph, length)
        engine = FastApproxEngine(index, objective=objective)
        engine.run(k, lazy=lazy)
    elapsed = time.perf_counter() - started
    if obs.enabled():
        labels = {"objective": objective}
        obs.inc("solver_runs_total", help="Completed greedy solves.", **labels)
        obs.inc(
            "solver_gain_evaluations_total",
            engine.num_gain_evaluations,
            help="Marginal-gain evaluations across solves.",
            **labels,
        )
        obs.inc(
            "solver_full_sweeps_total",
            engine.num_full_sweeps,
            help="Full gain sweeps (kernel passes) across solves.",
            **labels,
        )
        obs.observe(
            "solver_solve_seconds",
            elapsed,
            help="End-to-end greedy solve wall time.",
            objective=objective,
        )
    name = "ApproxF1" if objective == "f1" else "ApproxF2"
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
            "method": "approx-fast",
            "objective": objective,
            "engine": "vectorized",
            "walk_engine": walk_engine.name,
            "lazy": lazy,
        },
    )
