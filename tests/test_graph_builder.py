"""Tests for GraphBuilder edge hygiene."""

import numpy as np
import pytest

from repro.errors import GraphFormatError, ParameterError
from repro.graphs.builder import GraphBuilder


class TestAccumulation:
    def test_add_edge_and_edges(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        b.add_edges([(1, 2), (2, 3)])
        g = b.build()
        assert g.num_edges == 3
        assert g.num_nodes == 4

    def test_duplicates_collapse(self):
        b = GraphBuilder()
        b.add_edges([(0, 1), (0, 1), (1, 0)])
        assert b.build().num_edges == 1

    def test_num_pending_edges_counts_raw(self):
        b = GraphBuilder()
        b.add_edges([(0, 1), (0, 1)])
        assert b.num_pending_edges == 2

    def test_numpy_input(self):
        b = GraphBuilder()
        b.add_edges(np.array([[0, 1], [2, 3]]))
        assert b.build().num_edges == 2

    def test_empty_iterable_is_noop(self):
        b = GraphBuilder()
        b.add_edges([])
        assert b.build(num_nodes=2).num_nodes == 2


class TestSelfLoops:
    def test_loops_skipped_by_default(self):
        b = GraphBuilder()
        b.add_edges([(0, 0), (0, 1)])
        g = b.build()
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_loops_rejected_when_strict(self):
        b = GraphBuilder(skip_self_loops=False)
        with pytest.raises(GraphFormatError):
            b.add_edges([(2, 2)])

    def test_all_loops_chunk(self):
        b = GraphBuilder()
        b.add_edges([(1, 1), (2, 2)])
        g = b.build()
        assert g.num_edges == 0
        assert g.num_nodes == 3  # loop endpoints still define node range


class TestValidation:
    def test_negative_endpoint(self):
        b = GraphBuilder()
        with pytest.raises(GraphFormatError):
            b.add_edges([(-1, 2)])

    def test_non_integer(self):
        b = GraphBuilder()
        with pytest.raises(GraphFormatError):
            b.add_edges(np.array([[0.5, 1.5]]))

    def test_bad_shape(self):
        b = GraphBuilder()
        with pytest.raises(GraphFormatError):
            b.add_edges(np.array([[0, 1, 2]]))

    def test_num_nodes_too_small(self):
        b = GraphBuilder()
        b.add_edge(0, 5)
        with pytest.raises(ParameterError):
            b.build(num_nodes=3)


class TestTouchNode:
    def test_touch_extends_range(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        b.touch_node(9)
        g = b.build()
        assert g.num_nodes == 10
        assert g.degree(9) == 0

    def test_touch_negative_rejected(self):
        b = GraphBuilder()
        with pytest.raises(ParameterError):
            b.touch_node(-1)

    def test_empty_builder_builds_empty(self):
        assert GraphBuilder().build().num_nodes == 0


class TestCsrShape:
    def test_csr_sorted_rows(self):
        b = GraphBuilder()
        b.add_edges([(3, 1), (3, 0), (3, 2)])
        g = b.build()
        assert g.neighbors(3).tolist() == [0, 1, 2]

    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        rng = np.random.default_rng(4)
        edges = rng.integers(0, 30, size=(200, 2))
        b = GraphBuilder()
        b.add_edges(edges)
        b.touch_node(29)
        g = b.build()
        nx_graph = networkx.Graph()
        nx_graph.add_nodes_from(range(30))
        nx_graph.add_edges_from(
            (int(u), int(v)) for u, v in edges if u != v
        )
        assert g.num_nodes == nx_graph.number_of_nodes()
        assert g.num_edges == nx_graph.number_of_edges()
        for u in range(30):
            assert sorted(g.neighbors(u).tolist()) == sorted(nx_graph.neighbors(u))


def _unique_lexsort_csr(edges, num_nodes):
    """The reference CSR: hash ``np.unique`` of the canonical keys, then
    ``np.lexsort`` of both directions."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    canon = np.unique(lo * np.int64(num_nodes) + hi)
    lo, hi = canon // num_nodes, canon % num_nodes
    src = np.concatenate((lo, hi))
    dst = np.concatenate((hi, lo))
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[order], minlength=num_nodes), out=indptr[1:])
    return indptr, dst[order].astype(np.int32)


class TestSortedBuild:
    """``build`` deduplicates and orders with sorts; the reference hashes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unique_lexsort_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 60))
        edges = rng.integers(0, num_nodes, size=(int(rng.integers(1, 400)), 2))
        # Exact duplicates, reversed duplicates and self-loops.
        picks = rng.integers(0, edges.shape[0], size=edges.shape[0] // 3 + 1)
        loops = np.repeat(rng.integers(0, num_nodes, size=(5, 1)), 2, axis=1)
        edges = np.concatenate((edges, edges[picks], edges[picks, ::-1], loops))
        rng.shuffle(edges)
        trailing = num_nodes + int(rng.integers(0, 4))  # isolated tail
        b = GraphBuilder()
        for part in np.array_split(edges, 3):
            b.add_edges(part)
        g = b.build(num_nodes=trailing)
        indptr, indices = _unique_lexsort_csr(edges, trailing)
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, indices)
        assert g.num_nodes == trailing

    def test_single_edge_both_orientations(self):
        b = GraphBuilder()
        b.add_edges([(3, 1), (1, 3), (3, 1)])
        g = b.build(num_nodes=6)
        np.testing.assert_array_equal(g.indptr, [0, 0, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(g.indices, [3, 1])
