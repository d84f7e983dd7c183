"""Tests for the pluggable walk-engine backends (repro.walks.backends).

The central contract: the ``"csr"`` backend produces *bit-identical*
walks and first-hits to the ``"numpy"`` reference under the same seed,
because it consumes the same stream hop for hop.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import power_law_graph, ring_graph, star_graph
from repro.graphs.weighted import WeightedDiGraph
from repro.walks import backends
from repro.walks.backends import (
    CSRWalkEngine,
    NumpyWalkEngine,
    WalkEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.walks.engine import batch_first_hits, batch_walks
from repro.walks.index import FlatWalkIndex
from repro.core.approx_fast import approx_greedy_fast
from repro.core.sampling_greedy import sampling_greedy_f2
from repro.core.stochastic import stochastic_approx_greedy
from repro.simulate import simulate_social_browsing
from repro.walks.estimators import estimate_hitting_time


def graph_cases():
    """(label, graph) pairs covering the convention-sensitive topologies."""
    return [
        ("power_law", power_law_graph(120, 480, seed=5)),
        ("ring", ring_graph(12)),
        ("star", star_graph(6)),
        ("dangling", Graph.from_edges([(0, 1), (1, 2)], num_nodes=6)),
        ("all_isolated", Graph.from_edges([], num_nodes=4)),
    ]


def weighted_cases():
    """(label, weighted graph) pairs, with and without dangling rows."""
    arcs = [
        (0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0),
        (2, 0, 0.5), (2, 1, 1.5), (0, 2, 1.0),
    ]
    return [
        ("weighted", WeightedDiGraph.from_edges(arcs, num_nodes=3)),
        (
            "weighted_dangling",
            WeightedDiGraph.from_edges(
                [(0, 1, 2.0), (1, 2, 1.0)], num_nodes=4
            ),
        ),
    ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        """Engines registered by a test do not outlive it."""
        factories = dict(backends._FACTORIES)
        instances = dict(backends._INSTANCES)
        yield
        backends._FACTORIES.clear()
        backends._FACTORIES.update(factories)
        backends._INSTANCES.clear()
        backends._INSTANCES.update(instances)

    def test_builtins_registered(self):
        assert available_engines() == ("csr", "numpy")

    @pytest.mark.parametrize("name", ["sharded", "multiproc"])
    def test_deleted_engines_rejected(self, name):
        with pytest.raises(
            ParameterError, match=f"unknown walk engine '{name}'; "
            "available: csr, numpy$",
        ):
            get_engine(name)

    def test_default_is_csr(self):
        assert get_engine(None).name == "csr"
        assert get_engine().name == "csr"

    def test_lookup_by_name_is_memoized(self):
        assert get_engine("csr") is get_engine("csr")

    def test_instance_passthrough(self):
        engine = CSRWalkEngine()
        assert get_engine(engine) is engine

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown walk engine"):
            get_engine("gpu")

    def test_bad_type(self):
        with pytest.raises(ParameterError):
            get_engine(3.14)

    def test_reregister_requires_replace(self):
        register_engine("_test_engine", NumpyWalkEngine)
        with pytest.raises(ParameterError, match="already registered"):
            register_engine("_test_engine", NumpyWalkEngine)
        register_engine("_test_engine", CSRWalkEngine, replace=True)
        assert get_engine("_test_engine").name == "csr"

    def test_custom_engine_usable(self):
        class Custom(NumpyWalkEngine):
            name = "custom-numpy"

        register_engine("custom-numpy", Custom, replace=True)
        g = ring_graph(8)
        walks = get_engine("custom-numpy").batch_walks(g, [0, 1], 3, seed=1)
        assert walks.shape == (2, 4)


# ----------------------------------------------------------------------
# CSR / numpy parity
# ----------------------------------------------------------------------
class TestCsrParity:
    @pytest.mark.parametrize("label,graph", graph_cases())
    @pytest.mark.parametrize("length", [0, 1, 7])
    def test_walks_identical(self, label, graph, length):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, graph.num_nodes, size=64)
        a = get_engine("numpy").batch_walks(graph, starts, length, seed=123)
        b = get_engine("csr").batch_walks(graph, starts, length, seed=123)
        assert a.shape == b.shape == (64, length + 1)
        assert np.array_equal(a, b), label

    @pytest.mark.parametrize("label,graph", graph_cases())
    def test_walks_identical_with_shared_generator(self, label, graph):
        # Passing one Generator through repeated calls must also agree:
        # both backends consume the stream hop-by-hop in the same order.
        starts = np.arange(graph.num_nodes)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            a = get_engine("numpy").batch_walks(graph, starts, 5, seed=rng_a)
            b = get_engine("csr").batch_walks(graph, starts, 5, seed=rng_b)
            assert np.array_equal(a, b), label

    @pytest.mark.parametrize("label,graph", weighted_cases())
    @pytest.mark.parametrize("length", [0, 1, 6])
    def test_weighted_walks_identical(self, label, graph, length):
        starts = np.tile(np.arange(graph.num_nodes), 20)
        a = get_engine("numpy").weighted_batch_walks(graph, starts, length, seed=7)
        b = get_engine("csr").weighted_batch_walks(graph, starts, length, seed=7)
        assert np.array_equal(a, b), label

    @pytest.mark.parametrize("label,graph", graph_cases())
    def test_first_hits_identical(self, label, graph):
        starts = np.arange(graph.num_nodes).repeat(8)
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[:: max(1, graph.num_nodes // 3)] = True
        walks = batch_walks(graph, starts, 6, seed=77)
        expected = batch_first_hits(walks, mask)
        for engine in ("numpy", "csr"):
            hits = get_engine(engine).walk_first_hits(
                graph, starts, 6, mask, seed=77
            )
            assert np.array_equal(hits, expected), (label, engine)

    @pytest.mark.parametrize("label,graph", weighted_cases())
    def test_weighted_first_hits_identical(self, label, graph):
        starts = np.tile(np.arange(graph.num_nodes), 10)
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[0] = True
        a = get_engine("numpy").walk_first_hits(graph, starts, 5, mask, seed=3)
        b = get_engine("csr").walk_first_hits(graph, starts, 5, mask, seed=3)
        assert np.array_equal(a, b), label

    def test_parity_across_hop_blocks(self):
        # The csr hop loop moves walkers in blocks of _HOP_BLOCK rows; a
        # batch past two block boundaries (one partial) must still match
        # the numpy loop, walks and first hits alike.
        from repro.walks.backends import _HOP_BLOCK

        g = power_law_graph(300, 1200, seed=5)
        rng = np.random.default_rng(1)
        starts = rng.integers(0, g.num_nodes, size=2 * _HOP_BLOCK + 17)
        a = get_engine("numpy").batch_walks(g, starts, 4, seed=8)
        b = get_engine("csr").batch_walks(g, starts, 4, seed=8)
        assert np.array_equal(a, b)
        mask = np.zeros(g.num_nodes, dtype=bool)
        mask[::7] = True
        assert np.array_equal(
            get_engine("csr").walk_first_hits(g, starts, 4, mask, seed=8),
            batch_first_hits(a, mask),
        )

    def test_empty_batch(self):
        g = ring_graph(5)
        for engine in ("numpy", "csr"):
            walks = get_engine(engine).batch_walks(g, [], 4, seed=1)
            assert walks.shape == (0, 5)

    def test_walks_are_valid_transitions(self):
        from repro.walks.engine import walk_is_valid

        g = power_law_graph(60, 240, seed=2)
        walks = get_engine("csr").batch_walks(g, np.arange(60), 8, seed=4)
        for row in walks:
            assert walk_is_valid(g, row.tolist())

    def test_weighted_respects_arcs(self):
        label, w = weighted_cases()[0]
        walks = get_engine("csr").weighted_batch_walks(
            w, np.zeros(50, dtype=int), 4, seed=8
        )
        arcs = {(u, v) for u, v, _ in w.arcs()}
        for row in walks:
            for u, v in zip(row, row[1:]):
                assert (int(u), int(v)) in arcs

    def test_invalid_args_match_numpy(self):
        g = ring_graph(6)
        with pytest.raises(ParameterError):
            get_engine("csr").batch_walks(g, [0, 99], 3, seed=1)
        with pytest.raises(ParameterError):
            get_engine("csr").batch_walks(g, [0], -1, seed=1)

    def test_plan_reused_across_calls(self):
        engine = CSRWalkEngine()
        g = ring_graph(10)
        engine.batch_walks(g, [0], 2, seed=1)
        plan_a = engine._plan(g)
        engine.batch_walks(g, [1, 2], 3, seed=2)
        assert engine._plan(g) is plan_a

    def test_plan_cache_bounded(self):
        engine = CSRWalkEngine(cache_size=2)
        graphs = [ring_graph(n) for n in (4, 5, 6, 7)]
        for g in graphs:
            engine.batch_walks(g, [0], 1, seed=0)
        assert len(engine._plans._data) <= 2


# ----------------------------------------------------------------------
# Engine threading through the solver / estimator / simulator layers
# ----------------------------------------------------------------------
class TestEngineThreading:
    def test_flat_index_identical_across_backends(self):
        g = power_law_graph(80, 320, seed=4)
        a = FlatWalkIndex.build(g, 5, 10, seed=11, engine="numpy")
        b = FlatWalkIndex.build(g, 5, 10, seed=11, engine="csr")
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.hop, b.hop)

    def test_walk_records_chunking_invisible_in_index(self):
        # iter_walk_records consumes the stream chunk-by-chunk, so a given
        # chunk_rows yields one well-defined index; the canonical entry
        # order makes the *record order* within it irrelevant.
        g = power_law_graph(50, 200, seed=5)
        a = FlatWalkIndex.build(g, 4, 6, seed=9, chunk_rows=64, engine="numpy")
        b = FlatWalkIndex.build(g, 4, 6, seed=9, chunk_rows=64, engine="csr")
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.hop, b.hop)

    def test_iter_walk_records_matches_chunked_extraction(self):
        # The chunk iterator is the seam the out-of-core builder consumes
        # (DESIGN.md §15): chunk c holds the first-visit records of the
        # c-th chunk_rows-row slice of one stream — same records, same
        # order — for every backend.
        from repro.walks.records import RecordPacker, first_visit_records

        g = power_law_graph(60, 240, seed=15)
        starts = np.repeat(np.arange(60, dtype=np.int64), 4)
        states = np.arange(starts.size, dtype=np.int64)
        packer = RecordPacker(60, 4, 5)
        for engine in ("numpy", "csr"):
            eng = get_engine(engine)
            chunks = list(eng.iter_walk_records(g, starts, 5, states, packer,
                                                seed=41, chunk_rows=64))
            assert len(chunks) == -(-starts.size // 64)
            rng = np.random.default_rng(41)
            for lo, chunk in zip(range(0, starts.size, 64), chunks):
                walks = batch_walks(g, starts[lo : lo + 64], 5, seed=rng)
                want = first_visit_records(walks, states[lo : lo + 64], packer)
                for got, ref in zip(chunk, want):
                    np.testing.assert_array_equal(got, ref)

    def test_iter_walk_records_validates_eagerly(self):
        # Bad arguments must raise at call time, not on first next().
        from repro.walks.records import RecordPacker

        g = ring_graph(8)
        eng = get_engine("numpy")
        starts = np.zeros(4, dtype=np.int64)
        packer = RecordPacker(8, 1, 3)
        with pytest.raises(ParameterError):
            eng.iter_walk_records(g, starts, 3, np.zeros(3), packer, seed=1)
        with pytest.raises(ParameterError):
            eng.iter_walk_records(g, starts, 3, np.zeros(4), packer, seed=1,
                                  chunk_rows=0)
        with pytest.raises(ParameterError, match="L=2"):
            eng.iter_walk_records(g, starts, 3, np.zeros(4),
                                  RecordPacker(8, 1, 2), seed=1)

    def test_approx_greedy_fast_engine_parity(self):
        g = power_law_graph(70, 280, seed=6)
        a = approx_greedy_fast(g, 5, 4, num_replicates=20, seed=13, engine="numpy")
        b = approx_greedy_fast(g, 5, 4, num_replicates=20, seed=13, engine="csr")
        assert a.selected == b.selected
        assert a.gains == b.gains
        assert b.params["walk_engine"] == "csr"

    def test_sampling_greedy_engine_parity(self):
        g = power_law_graph(40, 160, seed=7)
        a = sampling_greedy_f2(g, 3, 4, num_replicates=10, seed=17, engine="numpy")
        b = sampling_greedy_f2(g, 3, 4, num_replicates=10, seed=17, engine="csr")
        assert a.selected == b.selected
        assert b.params["walk_engine"] == "csr"

    def test_stochastic_approx_engine_parity(self):
        g = power_law_graph(60, 240, seed=8)
        a = stochastic_approx_greedy(g, 4, 4, num_replicates=15, seed=19, engine="numpy")
        b = stochastic_approx_greedy(g, 4, 4, num_replicates=15, seed=19, engine="csr")
        assert a.selected == b.selected

    def test_estimator_engine_parity(self):
        g = power_law_graph(50, 200, seed=9)
        a = estimate_hitting_time(g, 0, {5, 7}, 6, 40, seed=23, engine="numpy")
        b = estimate_hitting_time(g, 0, {5, 7}, 6, 40, seed=23, engine="csr")
        assert a == b

    def test_simulator_engine_parity(self):
        g = power_law_graph(60, 240, seed=10)
        a = simulate_social_browsing(g, [0, 3], num_sessions=500, seed=29,
                                     engine="numpy")
        b = simulate_social_browsing(g, [0, 3], num_sessions=500, seed=29,
                                     engine="csr")
        assert a == b

    def test_solver_parity_across_all_backends(self):
        # Bit-identical walks imply bit-identical selections and gains.
        g = power_law_graph(70, 280, seed=14)
        reference = approx_greedy_fast(
            g, 5, 4, num_replicates=20, seed=37, engine="numpy"
        )
        result = approx_greedy_fast(
            g, 5, 4, num_replicates=20, seed=37, engine="csr"
        )
        assert result.selected == reference.selected
        assert result.gains == reference.gains
        assert result.params["walk_engine"] == "csr"

    def test_engine_instance_accepted(self):
        g = ring_graph(10)
        engine = CSRWalkEngine()
        result = approx_greedy_fast(g, 2, 3, num_replicates=5, seed=1,
                                    engine=engine)
        assert len(result.selected) == 2


# ----------------------------------------------------------------------
# Interface expectations for third-party backends
# ----------------------------------------------------------------------
class TestWalkEngineInterface:
    def test_abstract_methods_required(self):
        with pytest.raises(TypeError):
            WalkEngine()

    def test_run_walks_dispatches_on_graph_type(self):
        engine = get_engine("csr")
        g = ring_graph(6)
        label, w = weighted_cases()[0]
        assert engine.run_walks(g, [0], 3, seed=1).shape == (1, 4)
        assert engine.run_walks(w, [0], 3, seed=1).shape == (1, 4)
