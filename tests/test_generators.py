"""Tests for graph generators."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.generators import (
    barabasi_albert_graph,
    chung_lu_graph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    paper_example_graph,
    path_graph,
    planted_partition_graph,
    power_law_graph,
    ring_graph,
    star_graph,
    two_cluster_graph,
)
from repro.graphs.properties import is_connected


class TestBarabasiAlbert:
    def test_size(self):
        g = barabasi_albert_graph(100, 3, seed=1)
        assert g.num_nodes == 100
        # clique of 4 contributes 6 edges, each of 96 new nodes 3 edges
        assert g.num_edges == 6 + 96 * 3

    def test_connected(self):
        assert is_connected(barabasi_albert_graph(80, 2, seed=2))

    def test_deterministic(self):
        a = barabasi_albert_graph(50, 2, seed=9)
        b = barabasi_albert_graph(50, 2, seed=9)
        assert a == b

    def test_seed_changes_graph(self):
        a = barabasi_albert_graph(50, 2, seed=9)
        b = barabasi_albert_graph(50, 2, seed=10)
        assert a != b

    def test_heavy_tail(self):
        g = barabasi_albert_graph(400, 3, seed=3)
        degrees = g.degrees
        assert degrees.max() > 4 * degrees.mean()

    def test_validation(self):
        with pytest.raises(ParameterError):
            barabasi_albert_graph(5, 0)
        with pytest.raises(ParameterError):
            barabasi_albert_graph(3, 3)


class TestPowerLaw:
    def test_exact_edge_count(self):
        g = power_law_graph(200, 1500, seed=5)
        assert g.num_nodes == 200
        assert g.num_edges == 1500

    def test_exact_edge_count_sparse(self):
        g = power_law_graph(300, 320, seed=6)
        assert g.num_edges == 320

    def test_paper_synthetic_size(self):
        g = power_law_graph(1000, 9956, seed=7)
        assert (g.num_nodes, g.num_edges) == (1000, 9956)

    def test_too_many_edges(self):
        with pytest.raises(ParameterError):
            power_law_graph(4, 10)

    def test_tiny(self):
        with pytest.raises(ParameterError):
            power_law_graph(1, 0)

    def test_deterministic(self):
        assert power_law_graph(100, 400, seed=1) == power_law_graph(
            100, 400, seed=1
        )


class TestErdosRenyi:
    def test_p_zero_and_one(self):
        assert erdos_renyi_graph(10, 0.0, seed=1).num_edges == 0
        assert erdos_renyi_graph(10, 1.0, seed=1).num_edges == 45

    def test_expected_density(self):
        g = erdos_renyi_graph(100, 0.2, seed=3)
        expected = 0.2 * 100 * 99 / 2
        assert abs(g.num_edges - expected) < 0.25 * expected

    def test_invalid_p(self):
        with pytest.raises(ParameterError):
            erdos_renyi_graph(10, 1.5)


class TestChungLu:
    def test_expected_degrees_roughly_respected(self):
        weights = np.full(200, 10.0)
        g = chung_lu_graph(weights, seed=8)
        assert abs(g.degrees.mean() - 10.0) < 2.0

    def test_zero_weights_ok(self):
        g = chung_lu_graph([0.0, 0.0, 5.0, 5.0], seed=1)
        assert g.degree(0) == 0

    def test_all_zero_rejected(self):
        with pytest.raises(ParameterError):
            chung_lu_graph([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            chung_lu_graph([1.0, -2.0])


class TestDeterministicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_path_single(self):
        assert path_graph(1).num_edges == 0

    def test_ring(self):
        g = ring_graph(6)
        assert g.num_edges == 6
        assert set(g.degrees.tolist()) == {2}

    def test_ring_minimum(self):
        with pytest.raises(ParameterError):
            ring_graph(2)

    def test_star(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert all(g.degree(i) == 1 for i in range(1, 5))

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert set(g.degrees.tolist()) == {5}

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.degree(0) == 2  # corner

    def test_grid_single_row(self):
        g = grid_graph(1, 5)
        assert g.num_edges == 4

    def test_two_cluster(self):
        g = two_cluster_graph(5, bridge_edges=2, seed=1)
        assert g.num_nodes == 10
        # two K5s plus at most 2 bridges
        assert 20 <= g.num_edges <= 22
        assert is_connected(g)


class TestPlantedPartition:
    def test_size(self):
        g = planted_partition_graph(3, 10, 0.5, 0.01, seed=1)
        assert g.num_nodes == 30

    def test_intra_denser_than_inter(self):
        g = planted_partition_graph(4, 40, 0.3, 0.01, seed=2)
        intra = inter = 0
        for u, v in g.edges():
            if u // 40 == v // 40:
                intra += 1
            else:
                inter += 1
        assert intra > 3 * inter

    def test_extreme_probabilities(self):
        isolated = planted_partition_graph(2, 5, 0.0, 0.0, seed=1)
        assert isolated.num_edges == 0
        cliques = planted_partition_graph(2, 4, 1.0, 0.0, seed=1)
        assert cliques.num_edges == 2 * 6

    def test_deterministic(self):
        a = planted_partition_graph(3, 20, 0.2, 0.02, seed=9)
        b = planted_partition_graph(3, 20, 0.2, 0.02, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ParameterError):
            planted_partition_graph(0, 5, 0.5, 0.1)
        with pytest.raises(ParameterError):
            planted_partition_graph(2, 5, 1.5, 0.1)


class TestPaperExample:
    def test_size(self):
        g = paper_example_graph()
        assert g.num_nodes == 8

    def test_section2_walks_are_valid(self):
        from repro.walks.engine import walk_is_valid

        g = paper_example_graph()
        # the two walks printed in Section 2 (0-based)
        assert walk_is_valid(g, [0, 1, 2, 1, 5])
        assert walk_is_valid(g, [0, 5, 1, 2, 4])

    def test_example31_walks_are_valid(self, example_walks):
        from repro.walks.engine import walk_is_valid

        g = paper_example_graph()
        for walk in example_walks:
            assert walk_is_valid(g, walk), walk


# ----------------------------------------------------------------------
# The Barabási–Albert and power-law generators against their array-based
# formulation (kept here as the oracle): same draws, same graphs.
# ----------------------------------------------------------------------
def _reference_csr(edges, num_nodes):
    """CSR of a canonical simple graph: hash ``np.unique`` + ``lexsort``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    if edges.size == 0:
        return indptr, np.empty(0, dtype=np.int32)
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    canon = np.unique(lo * np.int64(num_nodes) + hi)
    lo, hi = canon // num_nodes, canon % num_nodes
    src = np.concatenate((lo, hi))
    dst = np.concatenate((hi, lo))
    order = np.lexsort((dst, src))
    np.cumsum(np.bincount(src[order], minlength=num_nodes), out=indptr[1:])
    return indptr, dst[order].astype(np.int32)


def _reference_ba_edges(num_nodes, attach, rng):
    core = np.arange(attach + 1)
    src0, dst0 = np.triu_indices(attach + 1, k=1)
    edges_src = [core[src0]]
    edges_dst = [core[dst0]]
    clique_endpoints = attach * (attach + 1)
    pool_total = clique_endpoints + 2 * attach * (num_nodes - attach - 1)
    pool = np.empty(pool_total, dtype=np.int64)
    pool[: clique_endpoints // 2] = core[src0]
    pool[clique_endpoints // 2 : clique_endpoints] = core[dst0]
    pool_len = clique_endpoints
    for new in range(attach + 1, num_nodes):
        targets = set()
        while len(targets) < attach:
            need = attach - len(targets)
            draw = pool[rng.integers(0, pool_len, size=need * 2 + 1)]
            for t in draw:
                targets.add(int(t))
                if len(targets) == attach:
                    break
        tgt = np.fromiter(targets, dtype=np.int64, count=attach)
        new_col = np.full(attach, new, dtype=np.int64)
        pool[pool_len : pool_len + attach] = tgt
        pool[pool_len + attach : pool_len + 2 * attach] = new_col
        pool_len += 2 * attach
        edges_src.append(new_col)
        edges_dst.append(tgt)
    return np.column_stack(
        (np.concatenate(edges_src), np.concatenate(edges_dst))
    )


def _edge_array(indptr, indices):
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    mask = src < indices
    return np.column_stack((src[mask], indices[mask]))


def _reference_power_law(num_nodes, num_edges, rng):
    attach = max(1, num_edges // num_nodes)
    if num_nodes <= attach:
        attach = num_nodes - 1
    indptr, indices = _reference_csr(
        _reference_ba_edges(num_nodes, attach, rng), num_nodes
    )
    edges = _edge_array(indptr, indices)
    if edges.shape[0] > num_edges:
        keep = rng.choice(edges.shape[0], size=num_edges, replace=False)
        return _reference_csr(edges[keep], num_nodes)
    existing = set(map(tuple, edges.tolist()))
    extra = []
    missing = num_edges - edges.shape[0]
    while missing > 0:
        cand_u = rng.integers(0, num_nodes, size=missing * 2 + 8)
        cand_v = rng.integers(0, num_nodes, size=missing * 2 + 8)
        for u, v in zip(cand_u, cand_v):
            if u == v:
                continue
            key = (int(min(u, v)), int(max(u, v)))
            if key in existing:
                continue
            existing.add(key)
            extra.append(key)
            missing -= 1
            if missing == 0:
                break
    return _reference_csr(
        np.concatenate((edges, np.array(extra, dtype=np.int64).reshape(-1, 2))),
        num_nodes,
    )


#: (n, m, seed): top-up cases, exact-count cases and, where m < n - 1,
#: the branch that drops surplus Barabási–Albert edges.
POWER_LAW_CASES = [
    (2, 1, 0), (3, 1, 1), (3, 3, 2), (5, 4, 3), (6, 15, 4), (10, 3, 5),
    (10, 9, 6), (12, 40, 7), (20, 190, 8), (30, 20, 9), (40, 120, 10),
    (50, 49, 11), (64, 1000, 12), (100, 50, 13), (100, 500, 14),
    (150, 149, 15), (200, 1000, 16), (333, 2500, 17), (500, 400, 18),
    (1000, 9956, 19), (1200, 5000, 20), (2000, 12000, 21),
]


@pytest.mark.parametrize("num_nodes,num_edges,seed", POWER_LAW_CASES)
def test_power_law_matches_reference_draws(num_nodes, num_edges, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    graph = power_law_graph(num_nodes, num_edges, seed=rng)
    indptr, indices = _reference_power_law(num_nodes, num_edges, ref_rng)
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)
    assert graph.num_edges == num_edges
    # The shared generator is left where the reference left it.
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


@pytest.mark.parametrize(
    "num_nodes,attach,seed",
    [(2, 1, 0), (5, 4, 1), (30, 2, 2), (200, 5, 3), (1000, 3, 4), (60, 9, 5)],
)
def test_barabasi_albert_matches_reference_draws(num_nodes, attach, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    graph = barabasi_albert_graph(num_nodes, attach, seed=rng)
    indptr, indices = _reference_csr(
        _reference_ba_edges(num_nodes, attach, ref_rng), num_nodes
    )
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
