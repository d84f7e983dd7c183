"""L-length random-walk engine.

The paper's random-walk model (Section 2): from node ``u`` the walk moves to
a uniformly random neighbor, for at most ``L`` hops; nodes may repeat.  This
module provides

* :func:`random_walk` — one walk, plain Python, used by the paper-faithful
  algorithm implementations and by tests;
* :func:`batch_walks` — all positions of many walks as one ``(B, L+1)``
  matrix, a few numpy gathers per hop, used by the scalable engine;
* first-hit helpers implementing the truncated hitting variable
  ``T^L_uS = min(min{t : Z_t ∈ S}, L)`` of Eq. (3).

These kernels are also the ``"numpy"`` backend — the reference
semantics — of the pluggable walk-engine registry in
:mod:`repro.walks.backends` (DESIGN.md §3), which the default ``"csr"``
engine and any other execution strategy must match bit-for-bit under a
shared seed.

Dangling nodes (degree 0) cannot move; their walks stay in place, which
realizes the package-wide convention ``h^L_uS = L`` and ``p^L_uS = 0`` for a
dangling ``u ∉ S`` (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.rng import resolve_rng

__all__ = [
    "random_walk",
    "batch_walks",
    "first_hit_time",
    "batch_first_hits",
    "walk_is_valid",
]


def _check_length(length: int) -> None:
    if length < 0:
        raise ParameterError("walk length L must be >= 0")


def random_walk(
    graph: Graph,
    start: int,
    length: int,
    seed: "int | np.random.Generator | None" = None,
) -> list[int]:
    """One L-length random walk as a node list of ``length + 1`` positions.

    ``walk[t]`` is the position ``Z_t`` after ``t`` hops; ``walk[0] ==
    start``.  A dangling position repeats itself for the remaining hops.
    """
    _check_length(length)
    if not 0 <= start < graph.num_nodes:
        raise ParameterError(f"start node {start} out of range")
    rng = resolve_rng(seed)
    walk = [start]
    current = start
    for _ in range(length):
        neigh = graph.neighbors(current)
        if neigh.size:
            current = int(neigh[rng.integers(0, neigh.size)])
        walk.append(current)
    return walk


def batch_walks(
    graph: Graph,
    starts: "Sequence[int] | np.ndarray",
    length: int,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Positions of ``len(starts)`` independent walks, shape ``(B, L+1)``.

    Column ``t`` holds ``Z_t`` for every walk.  Entire columns are advanced
    at once: one uniform draw per walk per hop plus one CSR gather.
    """
    _check_length(length)
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= graph.num_nodes):
        raise ParameterError("start nodes out of range")
    rng = resolve_rng(seed)
    batch = starts.size
    walks = np.empty((batch, length + 1), dtype=np.int32)
    walks[:, 0] = starts
    if length == 0 or batch == 0:
        return walks
    indptr = graph.indptr
    indices = graph.indices
    degrees = graph.degrees
    current = starts.copy()
    for t in range(1, length + 1):
        deg = degrees[current]
        movable = deg > 0
        # random offset in [0, deg) per movable walk
        offsets = (rng.random(batch) * deg).astype(np.int64)
        nxt = current.copy()
        rows = current[movable]
        nxt[movable] = indices[indptr[rows] + offsets[movable]]
        walks[:, t] = nxt
        current = nxt
    return walks


def first_hit_time(walk: Sequence[int], targets: Collection[int]) -> int | None:
    """First index ``t`` with ``walk[t] in targets``; ``None`` if never.

    Matches Eq. (1)/(3) *before* truncation: the caller decides whether a
    miss counts as ``L`` (hitting time) or as failure (hit probability).
    """
    target_set = targets if isinstance(targets, (set, frozenset)) else set(targets)
    for t, node in enumerate(walk):
        if node in target_set:
            return t
    return None


def batch_first_hits(walks: np.ndarray, target_mask: np.ndarray) -> np.ndarray:
    """Vectorized first-hit hop per walk row; misses are ``-1``.

    ``target_mask`` is a boolean array over nodes.  The result ``t[b]`` is
    the smallest column index whose node is a target, or ``-1``.
    """
    if walks.ndim != 2:
        raise ParameterError("walks must be a (B, L+1) matrix")
    hits = target_mask[walks]
    any_hit = hits.any(axis=1)
    first = hits.argmax(axis=1).astype(np.int64)
    first[~any_hit] = -1
    return first


def walk_is_valid(graph: Graph, walk: Sequence[int]) -> bool:
    """Whether consecutive walk positions are joined by edges (or a dangling
    node legitimately repeats)."""
    if len(walk) == 0:
        return False
    for u, v in zip(walk, walk[1:]):
        if u == v and graph.degree(int(u)) == 0:
            continue
        if not graph.has_edge(int(u), int(v)):
            return False
    return True
