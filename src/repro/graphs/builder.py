"""Incremental construction of :class:`~repro.graphs.adjacency.Graph`.

The builder accumulates edges (possibly with duplicates and in either
orientation), then produces a canonical simple undirected graph.  It is the
single choke point where edge hygiene is enforced: self-loop policy,
deduplication, and node-count inference all live here.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphFormatError, ParameterError
from repro.graphs.adjacency import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulate edges, then :meth:`build` an immutable :class:`Graph`.

    Parameters
    ----------
    skip_self_loops:
        When true (default) self-loops are silently dropped; when false they
        raise :class:`GraphFormatError`.  The random-walk model of the paper
        is defined on simple graphs, so loops are never stored either way.
    """

    def __init__(self, skip_self_loops: bool = True):
        self._skip_self_loops = skip_self_loops
        self._chunks: list[np.ndarray] = []
        self._max_node = -1

    def add_edge(self, u: int, v: int) -> None:
        """Add a single undirected edge ``{u, v}``."""
        self.add_edges([(u, v)])

    def add_edges(self, edges: Iterable[tuple[int, int]] | np.ndarray) -> None:
        """Add many edges at once; accepts any iterable of pairs or an
        ``(k, 2)`` integer array."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            return
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("edges must be pairs (shape (k, 2))")
        if not np.issubdtype(arr.dtype, np.integer):
            raise GraphFormatError("edge endpoints must be integers")
        if arr.min() < 0:
            raise GraphFormatError("edge endpoints must be non-negative")
        # Loop endpoints still name nodes, so count them toward the range
        # before dropping the loops themselves.
        self._max_node = max(self._max_node, int(arr.max()))
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            if not self._skip_self_loops:
                bad = arr[loops][0]
                raise GraphFormatError(f"self-loop on node {int(bad[0])}")
            arr = arr[~loops]
        if arr.size == 0:
            return
        self._chunks.append(arr.astype(np.int64, copy=False))

    def touch_node(self, u: int) -> None:
        """Ensure node ``u`` exists in the built graph even if isolated."""
        if u < 0:
            raise ParameterError("node ids must be non-negative")
        self._max_node = max(self._max_node, u)

    @property
    def num_pending_edges(self) -> int:
        """Number of (not yet deduplicated) edge records accumulated."""
        return sum(chunk.shape[0] for chunk in self._chunks)

    def build(self, num_nodes: int | None = None) -> Graph:
        """Produce the canonical graph.

        ``num_nodes`` overrides the inferred count (must cover every
        endpoint); duplicates and reversed duplicates collapse to one edge.
        """
        inferred = self._max_node + 1
        if num_nodes is None:
            num_nodes = inferred
        elif num_nodes < inferred:
            raise ParameterError(
                f"num_nodes={num_nodes} is smaller than required {inferred}"
            )
        if not self._chunks:
            indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            return Graph(indptr, np.empty(0, dtype=np.int32))

        edges = np.concatenate(self._chunks, axis=0)
        # Canonicalize to ``u n + v`` keys with u < v, then deduplicate
        # with one sort and an adjacent-difference mask.
        width = np.int64(num_nodes)
        keys = edges.min(axis=1) * width + edges.max(axis=1)
        keys.sort()
        fresh = np.empty(keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        lo, hi = np.divmod(keys, width)
        # Symmetrize into CSR: one sort of both directions' keys orders
        # the arcs by row, then by column.
        arcs = np.concatenate((keys, hi * width + lo))
        arcs.sort()
        src, dst = np.divmod(arcs, width)
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Graph(indptr, dst.astype(np.int32))
