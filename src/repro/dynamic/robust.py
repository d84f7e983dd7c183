"""Robust selection and bondage-style attacks (DESIGN.md §9.3).

"Robust Domination in Random Graphs" (Ganesan 2023) asks whether a
dominating set survives edge deletions; the bondage number literature
(Mitsche et al.) asks how *few* deletions an adversary needs to break
one.  This module poses both questions against the sampled-walk world of
the paper: the materialized trajectories of a
:class:`~repro.dynamic.index.DynamicWalkIndex` are held fixed, and each
covered state carries a *certificate* — the edge sequence its walk
traverses up to the first visit of the target set.  Deleting any
certificate edge invalidates that state's coverage.

This sample-fixed semantics is deliberately conservative-by-construction
on the attack side (a real walker would re-route around a deleted edge,
so certified damage over-estimates true damage — it measures the attack
*surface*) and it makes both directions tractable:

* :func:`min_breaking_edges` is the greedy bondage adversary: repeatedly
  delete the edge that invalidates the most surviving certificates until
  coverage falls below a threshold.
* :func:`robust_greedy` selects a target set by minimax alternation: each
  round it recomputes the greedy adversary's best ``q`` edges against the
  current selection, then scores candidates by their *robust* marginal
  gain — newly covered states whose certificates avoid those ``q`` edges.
  With ``q = 0`` it degenerates exactly (bit-for-bit, same tie-breaks) to
  the sampled ``ApproxF2`` greedy of Algorithm 6.  The rounds run as full
  sweeps on the shared greedy driver (:mod:`repro.core.greedy`): the
  adversary re-plans every round, so CELF's stale bounds would not hold.

Hop-0 self coverage (the walker itself is selected) uses no edges and is
therefore unbreakable under any ``q`` — matching the intuition that a
replica placed *on* a peer survives any amount of link churn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.greedy import run_greedy
from repro.core.result import SelectionResult
from repro.walks.backends import WalkEngine
from repro.walks.engine import batch_first_hits
from repro.walks.index import check_index_fits
from repro.dynamic.index import DynamicWalkIndex, _states_of_rows

__all__ = ["robust_greedy", "min_breaking_edges", "BreakingReport"]


def _walk_step_keys(walks: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonical undirected edge key of every walk step, ``(B, L)``.

    Step ``t`` of row ``b`` is the move ``walks[b, t] -> walks[b, t + 1]``;
    its key is ``min * n + max``.  Stay-put steps (dangling nodes) use no
    edge and get the sentinel ``-1`` — they can never be attacked.
    """
    a = walks[:, :-1].astype(np.int64)
    b = walks[:, 1:].astype(np.int64)
    keys = np.minimum(a, b) * num_nodes + np.maximum(a, b)
    keys[a == b] = -1
    return keys


def _certificate_pairs(
    step_keys: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated ``(row, edge_key)`` incidence of coverage certificates.

    ``first[b]`` is row ``b``'s first-hit hop (``< 0`` for uncovered rows);
    its certificate is steps ``0 .. first[b] - 1``.  Hop-0 coverage has an
    empty certificate and simply contributes no pairs.
    """
    lengths = np.where(first > 0, first, 0).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    rows = np.repeat(np.arange(first.size, dtype=np.int64), lengths)
    base = np.repeat(np.cumsum(lengths) - lengths, lengths)
    steps = np.arange(total, dtype=np.int64) - base
    keys = step_keys[rows, steps]
    valid = keys >= 0
    rows, keys = rows[valid], keys[valid]
    if rows.size == 0:
        return rows, keys
    # Dedup (row, key): a walk may traverse an edge twice; one deletion
    # still kills the certificate exactly once.
    unique_keys, key_idx = np.unique(keys, return_inverse=True)
    pair_id = rows * unique_keys.size + key_idx
    _, keep = np.unique(pair_id, return_index=True)
    return rows[keep], keys[keep]


class _GreedyAttack:
    """Greedy certificate-killing adversary over a fixed incidence."""

    def __init__(self, step_keys: np.ndarray, first: np.ndarray):
        rows, keys = _certificate_pairs(step_keys, first)
        self.unique_keys, self.key_idx = (
            np.unique(keys, return_inverse=True)
            if keys.size
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        self.pair_rows = rows
        self.alive_pairs = np.ones(rows.size, dtype=bool)
        self.dead_rows = np.zeros(first.size, dtype=bool)

    def next_edge(self) -> "tuple[int, np.ndarray] | None":
        """Pick the edge killing the most surviving certificates.

        Returns ``(edge_key, newly_killed_rows)`` or ``None`` when no
        certificate remains attackable.
        """
        if not self.alive_pairs.any():
            return None
        counts = np.bincount(
            self.key_idx[self.alive_pairs], minlength=self.unique_keys.size
        )
        best = int(counts.argmax())
        if counts[best] == 0:
            return None
        killed_mask = self.alive_pairs & (self.key_idx == best)
        killed_rows = np.unique(self.pair_rows[killed_mask])
        self.dead_rows[killed_rows] = True
        self.alive_pairs &= ~self.dead_rows[self.pair_rows]
        return int(self.unique_keys[best]), killed_rows


@dataclass(frozen=True)
class BreakingReport:
    """Outcome of a bondage-style attack (:func:`min_breaking_edges`).

    ``edges`` are the deleted edges in attack order;
    ``coverage_fractions[i]`` is the certified coverage fraction after
    deleting ``edges[: i + 1]``.  ``succeeded`` tells whether the final
    fraction fell below ``threshold``; when ``False``, the surviving
    coverage is unbreakable under this semantics (hop-0 self coverage, or
    ``max_edges`` exhausted).
    """

    edges: tuple[tuple[int, int], ...]
    coverage_fractions: tuple[float, ...]
    baseline_fraction: float
    threshold: float
    succeeded: bool
    num_states: int

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def min_breaking_edges(
    graph: Graph,
    targets,
    length: int,
    num_replicates: int = 100,
    seed: "int | None" = None,
    engine: "str | WalkEngine | None" = None,
    threshold: float = 0.5,
    max_edges: "int | None" = None,
    index: "DynamicWalkIndex | None" = None,
) -> BreakingReport:
    """Greedy adversary: few edge deletions that break a placement.

    Deletes edges one at a time, always the edge lying on the most
    surviving coverage certificates, until the certified coverage
    fraction of ``targets`` drops below ``threshold`` (or ``max_edges``
    deletions, or nothing attackable remains).  Pass a prebuilt ``index``
    to reuse walks; otherwise one is materialized with
    :meth:`DynamicWalkIndex.build`.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError("threshold must lie in [0, 1]")
    if max_edges is not None and max_edges < 0:
        raise ParameterError("max_edges must be >= 0")
    dyn = index if index is not None else DynamicWalkIndex.build(
        graph, length, num_replicates, seed=seed, engine=engine
    )
    check_index_fits(dyn, graph, length)
    n = dyn.num_nodes
    mask = np.zeros(n, dtype=bool)
    target_list = [int(v) for v in targets]
    for v in target_list:
        if not 0 <= v < n:
            raise ParameterError(f"target {v} out of range")
    mask[target_list] = True
    first = batch_first_hits(dyn.walks, mask)
    total = dyn.walks.shape[0]
    covered = int((first >= 0).sum())
    baseline = covered / total if total else 0.0
    attack = _GreedyAttack(_walk_step_keys(dyn.walks, n), first)
    edges: list[tuple[int, int]] = []
    fractions: list[float] = []
    fraction = baseline
    budget = max_edges if max_edges is not None else total
    while fraction >= threshold and len(edges) < budget:
        step = attack.next_edge()
        if step is None:
            break
        key, killed = step
        covered -= int(killed.size)
        fraction = covered / total if total else 0.0
        edges.append((int(key // n), int(key % n)))
        fractions.append(fraction)
    return BreakingReport(
        edges=tuple(edges),
        coverage_fractions=tuple(fractions),
        baseline_fraction=baseline,
        threshold=threshold,
        succeeded=fraction < threshold,
        num_states=total,
    )


class _RobustEngine:
    """Robust-F2 gains against a re-planning adversary (full sweep only).

    ``gains_all`` first makes the adversary's move, then scores every
    candidate.  The adversary re-plans every round, so gains are not
    submodular across rounds: the engine has no ``gain_of`` for CELF.
    """

    def __init__(self, dyn: DynamicWalkIndex, q: int):
        self.dyn, self.q = dyn, q
        self.state_of_row = _states_of_rows(
            np.arange(dyn.walks.shape[0]), dyn.num_nodes, dyn.num_replicates
        )
        self.step_keys = _walk_step_keys(dyn.walks, dyn.num_nodes)
        # First-hit hop of the current selection per state; L + 1 means
        # uncovered (entry hops never exceed L).
        self.cur_first = np.full(dyn.num_states, dyn.length + 1, dtype=np.int64)
        self.selected: list[int] = []
        self.gains: list[float] = []
        self.evaluations = 0

    def gains_all(self) -> np.ndarray:
        dyn, flat, infinity = self.dyn, self.dyn.flat, self.dyn.length + 1
        # Adversary move: best q edges against the current certificates.
        safe_state = np.full(dyn.num_states, infinity, dtype=np.int64)
        if self.q > 0 and self.step_keys.size:
            row_first = self.cur_first[self.state_of_row]
            row_first = np.where(row_first <= dyn.length, row_first, -1)
            attack = _GreedyAttack(self.step_keys, row_first)
            adversary_keys = []
            for _round in range(self.q):
                step = attack.next_edge()
                if step is None:
                    break
                adversary_keys.append(step[0])
            if adversary_keys:
                bad = np.isin(self.step_keys, np.asarray(adversary_keys))
                hit_any = bad.any(axis=1)
                safe_rows = np.where(hit_any, bad.argmax(axis=1), infinity)
                safe_state[self.state_of_row] = safe_rows
        # Candidate scores: robust marginal gain, exact integer sums.
        uncovered = self.cur_first == infinity
        contrib = (
            uncovered[flat.state]
            & (flat.hop <= safe_state[flat.state])
        ).astype(np.int64)
        running = np.zeros(contrib.size + 1, dtype=np.int64)
        np.cumsum(contrib, out=running[1:])
        entry_gain = running[flat.indptr[1:]] - running[flat.indptr[:-1]]
        self_gain = uncovered.reshape(dyn.num_replicates, dyn.num_nodes).sum(
            axis=0, dtype=np.int64
        )
        self.evaluations += dyn.num_nodes
        return entry_gain + self_gain

    def select(self, node: int, gain: int) -> None:
        # Fold in the factual (non-robust) coverage of the pick.
        n, replicates = self.dyn.num_nodes, self.dyn.num_replicates
        self.cur_first[np.arange(replicates, dtype=np.int64) * n + node] = 0
        entry_states, entry_hops = self.dyn.flat.entries_for(node)
        entry_states = entry_states.astype(np.int64)
        np.minimum.at(self.cur_first, entry_states, entry_hops.astype(np.int64))
        self.selected.append(node)
        self.gains.append(float(gain) / replicates)


def robust_greedy(
    graph: Graph,
    k: int,
    length: int,
    q: int = 1,
    num_replicates: int = 100,
    seed: "int | None" = None,
    engine: "str | WalkEngine | None" = None,
    index: "DynamicWalkIndex | None" = None,
) -> SelectionResult:
    """Greedy selection under a ``q``-edge-deletion adversary.

    Minimax alternation on the sampled F2 objective: each round first
    lets the greedy adversary pick its best ``q`` edges against the
    current selection's certificates, then scores every candidate by the
    number of *robustly* newly covered states — uncovered states the
    candidate's walks first-visit via a certificate avoiding all ``q``
    adversary edges (plus the candidate's own unbreakable hop-0 states).
    ``q = 0`` reproduces the ``ApproxF2`` selection of Algorithm 6
    bit-for-bit (same gains, same tie-breaking).

    Gains are reported on the estimator scale (states / R), like
    :func:`~repro.core.approx_fast.approx_greedy_fast`.
    """
    if not 0 <= k <= graph.num_nodes:
        raise ParameterError(f"k={k} must lie in [0, n={graph.num_nodes}]")
    if q < 0:
        raise ParameterError("q must be >= 0")
    started = time.perf_counter()
    dyn = index if index is not None else DynamicWalkIndex.build(
        graph, length, num_replicates, seed=seed, engine=engine
    )
    check_index_fits(dyn, graph, length)
    engine = _RobustEngine(dyn, q)
    run_greedy(engine, k, lazy=False)
    return SelectionResult(
        algorithm="RobustGreedy",
        selected=tuple(engine.selected),
        gains=tuple(engine.gains),
        elapsed_seconds=time.perf_counter() - started,
        num_gain_evaluations=engine.evaluations,
        params={
            "k": k,
            "L": dyn.length,
            "R": dyn.num_replicates,
            "q": q,
            "method": "robust-greedy",
            "objective": "f2",
            "engine": dyn.engine_name,
        },
    )
