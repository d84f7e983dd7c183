"""The blocked first-visit extraction and the offsets read off sorted records.

``first_visit_records`` fills a first-visit mask block by block (pairwise
hop compares, or one scan per node when the graph has far fewer nodes
than the walks have hops) and packs each hop's block column whole before
compressing it.  These tests hold it to the straightforward formulation
it replaced — pairwise mask over the whole batch, one boolean gather of
hits and states per hop — and hold ``RecordPacker.indptr`` to
``cumsum(bincount(hit))``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import power_law_graph
from repro.walks import records
from repro.walks.backends import get_engine
from repro.walks.index import (
    FlatWalkIndex,
    InvertedIndex,
    _walker_major_states,
    walker_major_starts,
)
from repro.walks.records import RecordPacker, first_visit_records


def _oracle(walks, states, packer):
    """Pairwise mask over the whole batch, one gather per hop."""
    columns = np.ascontiguousarray(walks.T).astype(np.int64)
    length = columns.shape[0] - 1
    stride = packer.num_states << packer.hop_bits
    parts, hop_counts = [], np.zeros(length, dtype=np.int64)
    for hop in range(1, length + 1):
        mask = columns[hop] != columns[0]
        for prev in range(1, hop):
            mask &= columns[hop] != columns[prev]
        hits = columns[hop][mask]
        parts.append(
            hits * stride + (np.asarray(states, np.int64)[mask] << packer.hop_bits)
            | hop
        )
        hop_counts[hop - 1] = hits.size
    packed = np.concatenate(parts) if parts else np.empty(0, np.int64)
    return np.sort(packed), hop_counts


def _check(walks, states, packer):
    want, want_counts = _oracle(walks, states, packer)
    size = want.size
    for out in (None, np.empty(max(size - 1, 0), np.int64),
                np.empty(size, np.int64)):
        packed, hop_counts = first_visit_records(walks, states, packer, out=out)
        assert packed.size == size
        if size and out is not None and out.size >= size:
            assert np.shares_memory(packed, out)
        np.testing.assert_array_equal(np.sort(packed), want)
        np.testing.assert_array_equal(hop_counts, want_counts)


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("engine", ["numpy", "csr"])
    @pytest.mark.parametrize("length", [0, 1, 2, 10])
    def test_engine_walks(self, engine, length):
        graph = power_law_graph(80, 300, seed=4)
        n, reps = 80, 5
        walks = get_engine(engine).batch_walks(
            graph, walker_major_starts(n, reps), length, seed=6
        )
        _check(walks, _walker_major_states(n, reps), RecordPacker(n, reps, length))

    @pytest.mark.parametrize("length", [0, 1, 2, 10])
    def test_blocks_straddle_the_boundary(self, length):
        rng = np.random.default_rng(length)
        batch = 2 * (1 << 16) + 17
        n = 40
        walks = rng.integers(0, n, size=(batch, length + 1)).astype(np.int32)
        # Dangling self-loops (stay-put runs) and returns to the start.
        walks[::7, 1:] = walks[::7, :1]
        if length >= 2:
            walks[1::5, 2] = walks[1::5, 0]
        states = rng.permutation(batch).astype(np.int64)
        _check(walks, states, RecordPacker(n, -(-batch // n), length))

    @pytest.mark.parametrize(
        "num_nodes,length", [(1, 30), (3, 39), (5, 20), (14, 12), (2, 1)]
    )
    def test_both_mask_scans(self, num_nodes, length):
        rng = np.random.default_rng(num_nodes * 100 + length)
        walks = rng.integers(0, num_nodes, size=(300, length + 1))
        walks[::3, 1:4] = walks[::3, :1]
        _check(walks, np.arange(300), RecordPacker(num_nodes, 300, length))
        fresh_pairwise = np.empty((length, 300), dtype=bool)
        fresh_by_node = np.empty((length, 300), dtype=bool)
        columns = np.ascontiguousarray(walks.T)
        records._first_visits_pairwise(columns, fresh_pairwise)
        records._first_visits_by_node(columns, fresh_by_node, num_nodes)
        np.testing.assert_array_equal(fresh_pairwise, fresh_by_node)

    def test_rule_picks_the_node_scan_only_for_few_nodes(self):
        assert records._scan_by_node(12, records.MAX_WALK_LENGTH)
        assert not records._scan_by_node(20_000, 10)
        assert not records._scan_by_node(1, 16)


class TestIndptr:
    def _reference(self, packer, hits):
        indptr = np.zeros(packer.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(hits, minlength=packer.num_nodes), out=indptr[1:])
        return indptr

    @pytest.mark.parametrize(
        "num_nodes,reps,length", [(1, 3, 4), (9, 4, 0), (9, 4, 5), (50, 7, 3)]
    )
    def test_matches_cumsum_of_bincount(self, num_nodes, reps, length):
        rng = np.random.default_rng(num_nodes + length)
        packer = RecordPacker(num_nodes, reps, length)
        for size in (0, 1, 40):
            pairs = rng.choice(
                num_nodes * packer.num_states,
                size=min(size, num_nodes * packer.num_states), replace=False,
            )
            hits, states = np.divmod(pairs, packer.num_states)
            if num_nodes > 2:  # empty first and last nodes
                keep = (hits > 0) & (hits < num_nodes - 1)
                hits, states = hits[keep], states[keep]
            packed = packer.pack(hits, states, np.full(hits.size, length))
            packed.sort()
            np.testing.assert_array_equal(
                packer.indptr(packed), self._reference(packer, hits)
            )

    def test_int64_edge(self):
        # (n · nR) << b == 2**63: the product for v = n would wrap.
        n, reps = 1 << 21, 1 << 20
        packer = RecordPacker(n, reps, 1)
        hits = np.array([0, 1, 5, n - 2, n - 1, n - 1])
        states = np.array([0, 3, 2, 7, 0, n * reps - 1])
        packed = np.sort(packer.pack(hits, states, np.ones(6, np.int64)))
        assert packed[-1] == np.iinfo(np.int64).max
        np.testing.assert_array_equal(
            packer.indptr(packed), self._reference(packer, hits)
        )


def test_long_walks_on_a_small_graph_match_the_paper_index():
    # Pairwise compares are quadratic in L; the per-node scan takes this
    # L = 4000 build, on 12 nodes, in milliseconds.
    graph = power_law_graph(12, 30, seed=1)
    n, reps, length = 12, 3, 4000
    walks = get_engine("csr").batch_walks(
        graph, walker_major_starts(n, reps), length, seed=2
    )
    got = FlatWalkIndex.from_walks(walks, n, reps)
    want = InvertedIndex.from_walks(walks, n, reps).to_flat()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.state, want.state)
    np.testing.assert_array_equal(got.hop, want.hop)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(
    num_nodes=st.integers(1, 15),
    length=st.integers(0, 60),
    reps=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_walks_matches_the_paper_index(num_nodes, length, reps, seed):
    rng = np.random.default_rng(seed)
    walks = rng.integers(0, num_nodes, size=(num_nodes * reps, length + 1))
    walks[:, 0] = walker_major_starts(num_nodes, reps)
    stay = rng.random(walks.shape[0]) < 0.3  # dangling stay-put rows
    walks[stay, 1:] = walks[stay, :1]
    got = FlatWalkIndex.from_walks(walks, num_nodes, reps)
    want = InvertedIndex.from_walks(walks, num_nodes, reps).to_flat()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.state, want.state)
    np.testing.assert_array_equal(got.hop, want.hop)
