"""Graph generators.

Two roles:

* The *power-law random graph model* the paper uses for all of its synthetic
  experiments ([1] Barabási–Albert) — :func:`power_law_graph` grows a graph
  by preferential attachment and then tops it up with random extra edges so
  the caller can hit an exact target edge count (the paper's synthetic graph
  has n=1000, m=9956, i.e. a non-integer average attachment).
* Small deterministic families (path, ring, star, complete, grid, ...) used
  throughout the test suite because their hitting times have closed forms or
  obvious symmetries.

All stochastic generators take a ``seed`` in the package-wide convention of
:func:`repro.walks.rng.resolve_rng`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.builder import GraphBuilder
from repro.walks.rng import resolve_rng

__all__ = [
    "power_law_graph",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "chung_lu_graph",
    "path_graph",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "two_cluster_graph",
    "planted_partition_graph",
    "paper_example_graph",
]


def barabasi_albert_graph(
    num_nodes: int, attach: int, seed: "int | np.random.Generator | None" = None
) -> Graph:
    """Barabási–Albert preferential attachment with ``attach`` edges/node.

    Starts from a clique on ``attach + 1`` nodes; each subsequent node
    attaches to ``attach`` distinct existing nodes chosen proportionally to
    their current degree (implemented with the standard repeated-nodes trick:
    sampling uniformly from the flat endpoint list is degree-proportional).
    """
    if attach < 1:
        raise ParameterError("attach must be >= 1")
    if num_nodes <= attach:
        raise ParameterError("num_nodes must exceed attach")
    src, dst = _ba_edges(num_nodes, attach, resolve_rng(seed))
    return _graph_of(np.array((src, dst), dtype=np.int64).T, num_nodes)


def _ba_edges(
    num_nodes: int, attach: int, rng: np.random.Generator
) -> "tuple[list[int], list[int]]":
    """The Barabási–Albert edges ``(src, dst)`` as Python lists.

    The pool, the target sets and the edges stay Python objects: each
    new node reads a few pool entries and grows the pool by ``2 attach``,
    and list and set operations on Python ints cost less than numpy
    calls on arrays that small.  The draws and each target set's
    insertion order (hence its iteration order) fix the output.
    """
    # Seed clique on attach+1 nodes.
    src0, dst0 = np.triu_indices(attach + 1, k=1)
    src, dst = src0.tolist(), dst0.tolist()
    # Flat endpoint list: each edge contributes both endpoints, so sampling a
    # uniform element is sampling a node with probability deg/2m.
    pool = src + dst
    for new in range(attach + 1, num_nodes):
        targets: set[int] = set()
        # Draw until `attach` distinct targets; duplicates are rare for
        # attach << current size, so the loop converges fast.
        while len(targets) < attach:
            need = attach - len(targets)
            draw = rng.integers(0, len(pool), size=need * 2 + 1).tolist()
            for i in draw:
                targets.add(pool[i])
                if len(targets) == attach:
                    break
        pool.extend(targets)
        pool.extend([new] * attach)
        src.extend([new] * attach)
        dst.extend(targets)
    return src, dst


def _graph_of(edges: np.ndarray, num_nodes: int) -> Graph:
    builder = GraphBuilder()
    builder.add_edges(edges)
    builder.touch_node(num_nodes - 1)
    return builder.build()


def power_law_graph(
    num_nodes: int,
    num_edges: int,
    seed: "int | np.random.Generator | None" = None,
) -> Graph:
    """Power-law graph with (approximately) an exact edge count.

    Grows a Barabási–Albert graph with ``attach = max(1, num_edges //
    num_nodes)`` and then adds uniformly random extra edges between distinct
    non-adjacent pairs until ``num_edges`` is reached (or removes surplus by
    stopping the growth early never happens: BA yields slightly fewer than
    ``attach * num_nodes`` edges, so top-up is the common path).  The result
    matches the heavy-tailed degree profile of the paper's synthetic model
    while letting dataset replicas hit Table 2's exact ``(n, m)``.
    """
    if num_nodes < 2:
        raise ParameterError("num_nodes must be >= 2")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise ParameterError("num_edges exceeds the simple-graph maximum")
    rng = resolve_rng(seed)
    attach = max(1, num_edges // num_nodes)
    if num_nodes <= attach:
        attach = num_nodes - 1
    src, dst = _ba_edges(num_nodes, attach, rng)
    # Each BA edge once, as its ``u n + v`` key (u < v), in (u, v) order.
    ends = np.array((src, dst), dtype=np.int64)
    keys = ends.min(axis=0) * np.int64(num_nodes) + ends.max(axis=0)
    keys.sort()
    if keys.size > num_edges:
        # Drop random surplus edges (keeping the degree tail intact).
        keys = keys[rng.choice(keys.size, size=num_edges, replace=False)]
        return _graph_of(np.stack(np.divmod(keys, num_nodes), axis=1), num_nodes)

    existing = set(keys.tolist())
    extra: list[int] = []
    missing = num_edges - keys.size
    while missing > 0:
        cand_u = rng.integers(0, num_nodes, size=missing * 2 + 8).tolist()
        cand_v = rng.integers(0, num_nodes, size=missing * 2 + 8).tolist()
        for u, v in zip(cand_u, cand_v):
            if u == v:
                continue
            key = u * num_nodes + v if u < v else v * num_nodes + u
            if key in existing:
                continue
            existing.add(key)
            extra.append(key)
            missing -= 1
            if missing == 0:
                break
    keys = np.concatenate((keys, np.array(extra, dtype=np.int64)))
    return _graph_of(np.stack(np.divmod(keys, num_nodes), axis=1), num_nodes)


def erdos_renyi_graph(
    num_nodes: int,
    edge_probability: float,
    seed: "int | np.random.Generator | None" = None,
) -> Graph:
    """G(n, p) random graph."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ParameterError("edge_probability must lie in [0, 1]")
    if num_nodes < 1:
        raise ParameterError("num_nodes must be >= 1")
    rng = resolve_rng(seed)
    src, dst = np.triu_indices(num_nodes, k=1)
    mask = rng.random(src.size) < edge_probability
    builder = GraphBuilder()
    builder.add_edges(np.column_stack((src[mask], dst[mask])))
    builder.touch_node(num_nodes - 1)
    return builder.build()


def chung_lu_graph(
    expected_degrees: "list[float] | np.ndarray",
    seed: "int | np.random.Generator | None" = None,
) -> Graph:
    """Chung–Lu graph: edge ``{u,v}`` appears w.p. ``min(1, w_u w_v / W)``.

    Useful to replicate an arbitrary degree sequence in expectation, e.g.
    when mimicking a real dataset whose degree profile is known.
    """
    weights = np.asarray(expected_degrees, dtype=np.float64)
    if weights.ndim != 1 or weights.size < 1:
        raise ParameterError("expected_degrees must be a non-empty 1-D sequence")
    if (weights < 0).any():
        raise ParameterError("expected_degrees must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ParameterError("expected_degrees must not be all zero")
    rng = resolve_rng(seed)
    n = weights.size
    src, dst = np.triu_indices(n, k=1)
    probs = np.minimum(1.0, weights[src] * weights[dst] / total)
    mask = rng.random(src.size) < probs
    builder = GraphBuilder()
    builder.add_edges(np.column_stack((src[mask], dst[mask])))
    builder.touch_node(n - 1)
    return builder.build()


def path_graph(num_nodes: int) -> Graph:
    """Path ``0 - 1 - ... - (n-1)``."""
    if num_nodes < 1:
        raise ParameterError("num_nodes must be >= 1")
    idx = np.arange(num_nodes - 1)
    return Graph.from_edges(np.column_stack((idx, idx + 1)), num_nodes=num_nodes)


def ring_graph(num_nodes: int) -> Graph:
    """Cycle on ``num_nodes >= 3`` nodes."""
    if num_nodes < 3:
        raise ParameterError("a ring needs at least 3 nodes")
    idx = np.arange(num_nodes)
    return Graph.from_edges(
        np.column_stack((idx, (idx + 1) % num_nodes)), num_nodes=num_nodes
    )


def star_graph(num_leaves: int) -> Graph:
    """Star with center ``0`` and leaves ``1..num_leaves``."""
    if num_leaves < 1:
        raise ParameterError("a star needs at least 1 leaf")
    leaves = np.arange(1, num_leaves + 1)
    return Graph.from_edges(
        np.column_stack((np.zeros_like(leaves), leaves)), num_nodes=num_leaves + 1
    )


def complete_graph(num_nodes: int) -> Graph:
    """Complete graph ``K_n``."""
    if num_nodes < 1:
        raise ParameterError("num_nodes must be >= 1")
    src, dst = np.triu_indices(num_nodes, k=1)
    return Graph.from_edges(np.column_stack((src, dst)), num_nodes=num_nodes)


def grid_graph(rows: int, cols: int) -> Graph:
    """4-neighbor lattice with ``rows * cols`` nodes (row-major labels)."""
    if rows < 1 or cols < 1:
        raise ParameterError("rows and cols must be >= 1")
    builder = GraphBuilder()
    ids = np.arange(rows * cols).reshape(rows, cols)
    horiz = np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    vert = np.column_stack((ids[:-1, :].ravel(), ids[1:, :].ravel()))
    if horiz.size:
        builder.add_edges(horiz)
    if vert.size:
        builder.add_edges(vert)
    builder.touch_node(rows * cols - 1)
    return builder.build()


def two_cluster_graph(
    cluster_size: int, bridge_edges: int = 1,
    seed: "int | np.random.Generator | None" = None,
) -> Graph:
    """Two dense clusters joined by a few bridges.

    A stress shape for domination algorithms: one representative per cluster
    dominates far better than two nodes in the same cluster, which is what
    greedy should discover and degree-only baselines often miss.
    """
    if cluster_size < 2:
        raise ParameterError("cluster_size must be >= 2")
    if bridge_edges < 1:
        raise ParameterError("bridge_edges must be >= 1")
    rng = resolve_rng(seed)
    builder = GraphBuilder()
    src, dst = np.triu_indices(cluster_size, k=1)
    builder.add_edges(np.column_stack((src, dst)))
    builder.add_edges(np.column_stack((src + cluster_size, dst + cluster_size)))
    left = rng.integers(0, cluster_size, size=bridge_edges)
    right = rng.integers(cluster_size, 2 * cluster_size, size=bridge_edges)
    builder.add_edges(np.column_stack((left, right)))
    return builder.build()


def planted_partition_graph(
    num_clusters: int,
    cluster_size: int,
    intra_probability: float,
    inter_probability: float,
    seed: "int | np.random.Generator | None" = None,
) -> Graph:
    """Planted-partition (stochastic block) graph.

    ``num_clusters`` communities of ``cluster_size`` nodes; node pairs are
    joined w.p. ``intra_probability`` inside a community and
    ``inter_probability`` across.  Community structure is exactly the regime
    where degree-only heuristics fail at domination (all hubs may sit in one
    community), which the examples use to contrast greedy with ``Degree``.
    """
    if num_clusters < 1 or cluster_size < 1:
        raise ParameterError("num_clusters and cluster_size must be >= 1")
    for prob in (intra_probability, inter_probability):
        if not 0.0 <= prob <= 1.0:
            raise ParameterError("probabilities must lie in [0, 1]")
    rng = resolve_rng(seed)
    n = num_clusters * cluster_size
    src, dst = np.triu_indices(n, k=1)
    same = (src // cluster_size) == (dst // cluster_size)
    probs = np.where(same, intra_probability, inter_probability)
    mask = rng.random(src.size) < probs
    builder = GraphBuilder()
    builder.add_edges(np.column_stack((src[mask], dst[mask])))
    builder.touch_node(n - 1)
    return builder.build()


def paper_example_graph() -> Graph:
    """The 8-node running example of the paper (Fig. 1).

    Nodes are 0-based: paper node ``v_i`` is our node ``i - 1``.  The edge
    set is reconstructed to be consistent with every random walk printed in
    the paper (Section 2 and Example 3.1): those walks force
    v1-v2, v1-v6, v2-v3, v2-v5, v2-v6, v3-v5, v4-v7, v5-v7, v6-v7, v7-v8;
    v3-v4, v4-v8 and v5-v6 complete the drawn figure.
    """
    paper_edges = [
        (1, 2), (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5),
        (4, 7), (4, 8), (5, 6), (5, 7), (6, 7), (7, 8),
    ]
    return Graph.from_edges([(u - 1, v - 1) for u, v in paper_edges])
