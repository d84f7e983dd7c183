"""Edge domination — the paper's second future-work problem.

Section 5 of the paper proposes extending Problem 2 "to count the expected
number of edges that are traversed by the L-length random walk starting
from any node to the targeted set".  Placing targets well then means walks
stop early and *few* edges get traversed — network traffic saved, in the
P2P reading of the problem.

Formulation.  For a walk ``w`` from source ``u``, let ``C_w(t)`` be the
number of *distinct* edges among its first ``t`` hops, and ``T_w(S)`` the
truncated first-hit time of Eq. (3).  The expected edge traffic under
target set ``S`` is ``E[C_w(T_w(S))]``; we maximize the expected *traffic
saved* relative to an unstopped walk:

    F3(S) = sum_u E[ C_w(L) - C_w(T_w(S)) ].

``F3`` is nondecreasing submodular with ``F3(empty) = 0``: per walk,
``T_w(S) = min_{s in S} t_w(s)`` and ``C_w`` is nondecreasing, so the
walk's contribution is ``max_{s in S} (C_w(L) - C_w(t_w(s)))`` — a maximum
of per-element constants, the textbook max-coverage form (the test suite
also checks both properties empirically).  Greedy therefore keeps its
``1 - 1/e`` guarantee.

Unlike ``h^L_uS`` and ``p^L_uS``, the distinct-edge count is
path-dependent, so no Theorem-2.2-style DP exists; this module extends the
paper's *sampling* machinery instead.  :class:`EdgeWalkIndex` materializes
the same R walks per node as Algorithm 3 but additionally stores each
walk's prefix distinct-edge counts, and :class:`EdgeDominationEngine`
mirrors Algorithms 4-6 with hop arithmetic replaced by prefix-count
arithmetic.  The rounds run on the shared greedy driver
(:mod:`repro.core.greedy`), with CELF by default.
"""

from __future__ import annotations

import time
from typing import Collection, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.core.greedy import run_greedy
from repro.core.result import SelectionResult
from repro.graphs.adjacency import Graph
from repro.walks.engine import batch_walks
from repro.walks.index import (
    _validate_params,
    check_index_fits,
    walker_major_starts,
)
from repro.walks.records import MAX_WALK_LENGTH
from repro.walks.rng import resolve_rng

__all__ = [
    "prefix_edge_counts",
    "EdgeWalkIndex",
    "EdgeDominationEngine",
    "edge_domination_greedy",
    "expected_edges_traversed",
    "estimate_f3",
]


def prefix_edge_counts(walks: np.ndarray) -> np.ndarray:
    """Distinct-edge counts ``C[b, t]`` for every walk prefix.

    ``walks`` is a ``(B, L+1)`` position matrix; the result has the same
    shape, with ``C[b, t]`` the number of distinct undirected edges among
    hops ``1..t`` of walk ``b`` (``C[b, 0] = 0``).  A stay-in-place hop
    (dangling node) traverses no edge.

    Implementation: each hop's undirected edge becomes one integer key; a
    hop is *fresh* when its key differs from every earlier hop's key in the
    same row, and the prefix count is the cumulative fresh count.  The
    per-prior-hop comparison costs ``O(B L^2)`` vector ops — the same dedup
    pattern the walk index uses, cheap because ``L`` is a small constant.
    Counts are ``int16``, so ``L`` is capped at ``MAX_WALK_LENGTH``.
    """
    walks = np.asarray(walks)
    if walks.ndim != 2:
        raise ParameterError("walks must be a (B, L+1) matrix")
    batch, width = walks.shape
    if width - 1 > MAX_WALK_LENGTH:
        raise ParameterError(
            f"walk length L={width - 1} exceeds {MAX_WALK_LENGTH} "
            "(prefix edge counts are stored as int16)"
        )
    counts = np.zeros((batch, width), dtype=np.int16)
    if width <= 1 or batch == 0:
        return counts
    lo = np.minimum(walks[:, :-1], walks[:, 1:]).astype(np.int64)
    hi = np.maximum(walks[:, :-1], walks[:, 1:]).astype(np.int64)
    num_labels = int(walks.max()) + 1
    keys = lo * num_labels + hi  # unique non-negative key per undirected edge
    stay = lo == hi  # dangling stay-put hops traverse nothing
    keys[stay] = -1
    fresh = ~stay  # stay hops are never fresh; &= below only clears bits
    hops = width - 1
    for t in range(1, hops):
        col = keys[:, t]
        for prev in range(t):
            fresh[:, t] &= col != keys[:, prev]
    counts[:, 1:] = np.cumsum(fresh, axis=1, dtype=np.int16)
    return counts


class EdgeWalkIndex:
    """Walk materialization for the edge-domination objective.

    Stores, for each of the ``R * n`` walks (walker-major layout):

    * ``prefix`` — ``(R * n, L + 1)`` distinct-edge prefix counts;
    * an inverted structure over hit nodes, exactly like
      :class:`~repro.walks.index.FlatWalkIndex`: for each node ``v``, the
      ``(state, hop)`` pairs of walks whose *first* visit of ``v`` is at
      ``hop``, where ``state = replicate * n + walker`` indexes ``prefix``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        state: np.ndarray,
        hop: np.ndarray,
        prefix: np.ndarray,
        num_nodes: int,
        length: int,
        num_replicates: int,
    ):
        if num_nodes < 0 or length < 0 or num_replicates < 1:
            raise ParameterError("invalid index dimensions")
        if prefix.shape != (num_nodes * num_replicates, length + 1):
            raise ParameterError("prefix shape must be (R * n, L + 1)")
        if indptr.size != num_nodes + 1 or state.size != hop.size:
            raise ParameterError("inverted arrays are inconsistent")
        self.indptr = indptr
        self.state = state
        self.hop = hop
        self.prefix = prefix
        self.num_nodes = num_nodes
        self.length = length
        self.num_replicates = num_replicates

    @classmethod
    def build(
        cls,
        graph: Graph,
        length: int,
        num_replicates: int,
        seed: "int | np.random.Generator | None" = None,
        chunk_rows: int = 1 << 17,
    ) -> "EdgeWalkIndex":
        """Materialize R walks per node with prefix edge counts."""
        n = graph.num_nodes
        _validate_params(n, length, num_replicates)
        rng = resolve_rng(seed)
        starts = walker_major_starts(n, num_replicates)
        prefix = np.zeros((n * num_replicates, length + 1), dtype=np.int16)
        hit_parts: list[np.ndarray] = []
        state_parts: list[np.ndarray] = []
        hop_parts: list[np.ndarray] = []
        for lo in range(0, starts.size, chunk_rows):
            rows = starts[lo : lo + chunk_rows]
            walks = batch_walks(graph, rows, length, seed=rng)
            row_ids = np.arange(lo, lo + rows.size, dtype=np.int64)
            state = (row_ids % num_replicates) * n + rows
            prefix[state] = prefix_edge_counts(walks)
            for hop in range(1, length + 1):
                col = walks[:, hop].astype(np.int64)
                fresh = np.ones(rows.size, dtype=bool)
                for prev in range(hop):
                    np.logical_and(fresh, col != walks[:, prev], out=fresh)
                if not fresh.any():
                    continue
                hit_parts.append(col[fresh])
                state_parts.append(state[fresh])
                hop_parts.append(np.full(int(fresh.sum()), hop, dtype=np.int64))
        hits = (
            np.concatenate(hit_parts) if hit_parts else np.empty(0, dtype=np.int64)
        )
        states = (
            np.concatenate(state_parts)
            if state_parts
            else np.empty(0, dtype=np.int64)
        )
        hops = (
            np.concatenate(hop_parts) if hop_parts else np.empty(0, dtype=np.int64)
        )
        order = np.argsort(hits, kind="stable")
        bins = np.bincount(hits, minlength=n) if hits.size else np.zeros(
            n, dtype=np.int64
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bins, out=indptr[1:])
        return cls(
            indptr=indptr,
            state=states[order],
            hop=hops[order].astype(np.int16),
            prefix=prefix,
            num_nodes=n,
            length=length,
            num_replicates=num_replicates,
        )

    @classmethod
    def from_walks(
        cls,
        walks: "Sequence[Sequence[int]] | np.ndarray",
        num_nodes: int,
        num_replicates: int,
    ) -> "EdgeWalkIndex":
        """Build from explicit walker-major walks (test/injection path)."""
        walks = np.asarray([list(map(int, w)) for w in walks], dtype=np.int64)
        if walks.shape[0] != num_nodes * num_replicates:
            raise ParameterError(
                f"expected {num_nodes * num_replicates} walks, got {walks.shape[0]}"
            )
        length = walks.shape[1] - 1
        _validate_params(num_nodes, length, num_replicates)
        expected_starts = walker_major_starts(num_nodes, num_replicates)
        if not np.array_equal(walks[:, 0], expected_starts):
            raise ParameterError("walks must be walker-major and start at walker")
        prefix = np.zeros((num_nodes * num_replicates, length + 1), dtype=np.int16)
        row_ids = np.arange(walks.shape[0], dtype=np.int64)
        state = (row_ids % num_replicates) * num_nodes + walks[:, 0]
        prefix[state] = prefix_edge_counts(walks)
        hit_parts: list[np.ndarray] = []
        state_parts: list[np.ndarray] = []
        hop_parts: list[np.ndarray] = []
        for hop in range(1, length + 1):
            col = walks[:, hop]
            fresh = np.ones(walks.shape[0], dtype=bool)
            for prev in range(hop):
                np.logical_and(fresh, col != walks[:, prev], out=fresh)
            if not fresh.any():
                continue
            hit_parts.append(col[fresh])
            state_parts.append(state[fresh])
            hop_parts.append(np.full(int(fresh.sum()), hop, dtype=np.int64))
        hits = (
            np.concatenate(hit_parts) if hit_parts else np.empty(0, dtype=np.int64)
        )
        states = (
            np.concatenate(state_parts)
            if state_parts
            else np.empty(0, dtype=np.int64)
        )
        hops = (
            np.concatenate(hop_parts) if hop_parts else np.empty(0, dtype=np.int64)
        )
        order = np.argsort(hits, kind="stable")
        bins = np.bincount(hits, minlength=num_nodes) if hits.size else np.zeros(
            num_nodes, dtype=np.int64
        )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(bins, out=indptr[1:])
        return cls(
            indptr=indptr,
            state=states[order],
            hop=hops[order].astype(np.int16),
            prefix=prefix,
            num_nodes=num_nodes,
            length=length,
            num_replicates=num_replicates,
        )

    def entries_for(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(state, hop)`` of walks whose first visit of ``node`` is at hop."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.state[lo:hi], self.hop[lo:hi]


class EdgeDominationEngine:
    """Algorithm 6's gain state with hop arithmetic replaced by edge counts.

    ``d[state]`` is the current truncated stop hop ``T_w(S)`` of each walk
    (``L`` while nothing is selected).  The cost of a walk is
    ``prefix[state, d[state]]``; selecting ``u`` relaxes ``d`` on the walks
    that first-visit ``u`` earlier than their current stop.  :meth:`run`
    hands the engine to the greedy driver.
    """

    def __init__(self, index: EdgeWalkIndex):
        self.index = index
        size = index.num_nodes * index.num_replicates
        self.d = np.full(size, index.length, dtype=np.int32)
        self._rows = np.arange(size, dtype=np.int64)
        self._chosen = np.zeros(index.num_nodes, dtype=bool)
        self.selected: list[int] = []
        self.gains: list[float] = []
        self.num_gain_evaluations = 0

    @property
    def num_nodes(self) -> int:
        return self.index.num_nodes

    @property
    def num_replicates(self) -> int:
        return self.index.num_replicates

    def objective_value(self) -> float:
        """Current estimate of ``F3(S)``: mean traffic saved across walks."""
        prefix = self.index.prefix
        full = prefix[:, self.index.length].astype(np.int64)
        now = prefix[self._rows, self.d].astype(np.int64)
        return float((full - now).sum()) / self.num_replicates

    def gains_all(self) -> np.ndarray:
        """Raw gain sums (``sigma_u * R``) for every node, one index pass."""
        index = self.index
        current_cost = index.prefix[index.state, self.d[index.state]].astype(
            np.int64
        )
        candidate_cost = index.prefix[index.state, index.hop].astype(np.int64)
        contrib = current_cost - candidate_cost
        np.maximum(contrib, 0, out=contrib)
        running = np.zeros(index.state.size + 1, dtype=np.int64)
        np.cumsum(contrib, out=running[1:])
        gains = running[index.indptr[1:]] - running[index.indptr[:-1]]
        # Selecting u also stops u's own walks at hop 0: state r * n + u sits
        # at row r, column u of the (R, n) view, so the column sums credit
        # each candidate with its own walks' full current cost.
        n = self.num_nodes
        own_cost = index.prefix[self._rows, self.d].reshape(
            self.num_replicates, n
        )
        gains = gains + own_cost.sum(axis=0, dtype=np.int64)
        self.num_gain_evaluations += n
        return gains

    def gain_of(self, node: int) -> int:
        """Raw gain sum (``sigma_u * R``) of a single candidate."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        index = self.index
        state, hop = index.entries_for(node)
        current_cost = index.prefix[state, self.d[state]].astype(np.int64)
        candidate_cost = index.prefix[state, hop].astype(np.int64)
        contrib = current_cost - candidate_cost
        np.maximum(contrib, 0, out=contrib)
        own_states = self._rows[node :: self.num_nodes]
        own = index.prefix[own_states, self.d[own_states]].sum(dtype=np.int64)
        self.num_gain_evaluations += 1
        return int(contrib.sum()) + int(own)

    def select(self, node: int, gain: "float | None" = None) -> None:
        """Commit one selection and relax the stop hops (Algorithm 5)."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        if self._chosen[node]:
            raise ParameterError(f"node {node} already selected")
        state, hop = self.index.entries_for(node)
        self.d[node :: self.num_nodes] = 0
        self.d[state] = np.minimum(self.d[state], hop.astype(np.int32))
        self._chosen[node] = True
        self.selected.append(int(node))
        self.gains.append(
            float(gain) / self.num_replicates if gain is not None else float("nan")
        )

    def run(self, k: int, lazy: bool = True) -> None:
        """Greedily select ``k`` nodes (continuing any prior selections)."""
        if not 0 <= k <= self.num_nodes - len(self.selected):
            raise ParameterError("k out of range for remaining candidates")
        run_greedy(self, k, lazy=lazy, exclude=self._chosen)


def edge_domination_greedy(
    graph: Graph,
    k: int,
    length: int,
    num_replicates: int = 100,
    seed: "int | np.random.Generator | None" = None,
    index: EdgeWalkIndex | None = None,
    lazy: bool = True,
) -> SelectionResult:
    """Greedy for the edge-domination objective ``F3`` (``ApproxF3``).

    Same shape as :func:`~repro.core.approx_fast.approx_greedy_fast`:
    materialize R walks per node once, then answer every round from the
    index.  Time ``O(k R L n)``, space ``O(n R L + m)``.
    """
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    started = time.perf_counter()
    if index is None:
        index = EdgeWalkIndex.build(graph, length, num_replicates, seed=seed)
    else:
        check_index_fits(index, graph, length)
    engine = EdgeDominationEngine(index)
    engine.run(k, lazy=lazy)
    elapsed = time.perf_counter() - started
    return SelectionResult(
        algorithm="ApproxF3",
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=elapsed,
        num_gain_evaluations=engine.num_gain_evaluations,
        params={
            "k": k,
            "L": index.length,
            "R": index.num_replicates,
            "objective": "f3",
            "lazy": lazy,
        },
    )


def expected_edges_traversed(
    graph: Graph,
    targets: Collection[int],
    length: int,
    num_replicates: int = 500,
    seed: "int | np.random.Generator | None" = None,
) -> float:
    """Monte-Carlo estimate of ``sum_u E[C_w(T_w(S))]`` — expected total
    distinct-edge traffic until the walks from every node hit ``S``.

    The evaluation metric for edge domination (lower = better placement),
    the edge analogue of the paper's AHT metric.
    """
    _validate_params(graph.num_nodes, length, num_replicates)
    target_set = {int(v) for v in targets}
    for v in target_set:
        if not 0 <= v < graph.num_nodes:
            raise ParameterError(f"target {v} out of range")
    rng = resolve_rng(seed)
    n = graph.num_nodes
    starts = walker_major_starts(n, num_replicates)
    walks = batch_walks(graph, starts, length, seed=rng)
    counts = prefix_edge_counts(walks)
    mask = np.zeros(n, dtype=bool)
    if target_set:
        mask[list(target_set)] = True
    hits = mask[walks]
    any_hit = hits.any(axis=1)
    stop = np.where(any_hit, hits.argmax(axis=1), length)
    cost = counts[np.arange(walks.shape[0]), stop].astype(np.float64)
    return float(cost.sum()) / num_replicates


def estimate_f3(
    graph: Graph,
    targets: Collection[int],
    length: int,
    num_replicates: int = 500,
    seed: "int | np.random.Generator | None" = None,
) -> float:
    """Monte-Carlo estimate of ``F3(S)`` (expected traffic *saved*).

    ``F3(S) = sum_u E[C_w(L)] - expected_edges_traversed(S)`` on the same
    walks, so the two quantities are consistent by construction.
    """
    _validate_params(graph.num_nodes, length, num_replicates)
    target_set = {int(v) for v in targets}
    for v in target_set:
        if not 0 <= v < graph.num_nodes:
            raise ParameterError(f"target {v} out of range")
    rng = resolve_rng(seed)
    n = graph.num_nodes
    starts = walker_major_starts(n, num_replicates)
    walks = batch_walks(graph, starts, length, seed=rng)
    counts = prefix_edge_counts(walks)
    mask = np.zeros(n, dtype=bool)
    if target_set:
        mask[list(target_set)] = True
    hits = mask[walks]
    any_hit = hits.any(axis=1)
    stop = np.where(any_hit, hits.argmax(axis=1), length)
    rows = np.arange(walks.shape[0])
    saved = counts[:, length].astype(np.int64) - counts[rows, stop].astype(np.int64)
    return float(saved.sum()) / num_replicates
