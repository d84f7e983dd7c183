"""Dynamic-graph subsystem tests (DESIGN.md §9).

The load-bearing property, pinned both deterministically and with a
hypothesis sweep: *incremental update ∘ arbitrary edit batches ==
from-scratch rebuild, bit-identically* — same trajectories, same entry
arrays, same greedy selections — across both walk engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approx_fast import approx_greedy_fast
from repro.errors import GraphFormatError, ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators import power_law_graph, ring_graph, star_graph
from repro.simulate import simulate_p2p_churn
from repro.walks.backends import get_engine
from repro.walks.index import FlatWalkIndex, walker_major_starts
from repro.walks.persistence import (
    graph_fingerprint,
    index_provenance,
    load_dynamic_index,
    load_index,
    save_dynamic_index,
    save_index,
)
from repro.dynamic import (
    DynamicGraph,
    DynamicWalkIndex,
    TraceOp,
    churn_replay,
    edit_graph,
    expand_membership,
    min_breaking_edges,
    parse_trace,
    robust_greedy,
)

ENGINES = ("numpy", "csr")


def assert_index_identical(a: DynamicWalkIndex, b: DynamicWalkIndex) -> None:
    """Bit-identity of two dynamic indexes (the tentpole contract)."""
    assert a.graph == b.graph
    np.testing.assert_array_equal(a.walks, b.walks)
    np.testing.assert_array_equal(a.flat.indptr, b.flat.indptr)
    np.testing.assert_array_equal(a.flat.state, b.flat.state)
    np.testing.assert_array_equal(a.flat.hop, b.flat.hop)
    assert a.flat.state.dtype == b.flat.state.dtype
    assert a.flat.hop.dtype == b.flat.hop.dtype


def random_edits(graph: Graph, rng: np.random.Generator, inserts: int,
                 deletes: int) -> tuple[list, list]:
    """A valid random edit batch for ``graph``."""
    edge_array = graph.edge_array()
    deletes = min(deletes, len(edge_array))
    dels = [
        tuple(map(int, edge_array[i]))
        for i in rng.choice(len(edge_array), size=deletes, replace=False)
    ] if deletes else []
    ins: list[tuple[int, int]] = []
    n = graph.num_nodes
    attempts = 0
    while len(ins) < inserts and attempts < 200:
        attempts += 1
        u, v = (int(x) for x in rng.integers(0, n, 2))
        edge = (min(u, v), max(u, v))
        if u != v and not graph.has_edge(u, v) and edge not in ins:
            ins.append(edge)
    return ins, dels


# ----------------------------------------------------------------------
class TestDynamicGraph:
    def test_apply_and_journal(self):
        graph = ring_graph(8)
        dgraph = DynamicGraph(graph)
        batch = dgraph.apply_batch(inserts=[(0, 4)], deletes=[(0, 1)])
        assert dgraph.epoch == 1
        assert batch.epoch == 1
        assert batch.inserts == ((0, 4),)
        assert batch.deletes == ((0, 1),)
        assert dgraph.has_edge(0, 4) and not dgraph.has_edge(0, 1)
        assert dgraph.num_edges == graph.num_edges
        assert list(batch.modified_nodes()) == [0, 1, 4]

    def test_snapshot_matches_from_scratch_build(self):
        graph = power_law_graph(40, 120, seed=0)
        dgraph = DynamicGraph(graph)
        rng = np.random.default_rng(1)
        for _ in range(4):
            ins, dels = random_edits(dgraph.graph, rng, 3, 3)
            dgraph.apply_batch(ins, dels)
        builder = GraphBuilder()
        builder.add_edges(list(dgraph.graph.edges()))
        builder.touch_node(graph.num_nodes - 1)
        assert dgraph.graph == builder.build()

    def test_strict_validation(self):
        dgraph = DynamicGraph(ring_graph(6))
        with pytest.raises(ParameterError):
            dgraph.apply_batch(deletes=[(0, 3)])  # not an edge
        with pytest.raises(ParameterError):
            dgraph.apply_batch(inserts=[(0, 1)])  # already an edge
        with pytest.raises(ParameterError):
            dgraph.apply_batch(inserts=[(2, 2)])  # self-loop
        with pytest.raises(ParameterError):
            dgraph.apply_batch(inserts=[(0, 9)])  # out of range
        with pytest.raises(ParameterError):
            dgraph.apply_batch(inserts=[(0, 3)], deletes=[(3, 0)])  # overlap
        with pytest.raises(ParameterError):
            dgraph.apply_batch(inserts=[(0, 3), (3, 0)])  # duplicate
        assert dgraph.epoch == 0  # nothing was applied

    def test_remove_node_edges(self):
        dgraph = DynamicGraph(star_graph(5))
        batch = dgraph.remove_node_edges(0)
        assert len(batch.deletes) == 5
        assert dgraph.num_edges == 0

    def test_edit_graph_roundtrip(self):
        graph = power_law_graph(30, 90, seed=2)
        edge = tuple(map(int, graph.edge_array()[7]))
        removed = edit_graph(graph, deletes=[edge])
        assert removed.num_edges == graph.num_edges - 1
        assert edit_graph(removed, inserts=[edge]) == graph


# ----------------------------------------------------------------------
class TestBuildParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_walks_match_engine_batch(self, engine):
        graph = power_law_graph(50, 150, seed=3)
        dyn = DynamicWalkIndex.build(graph, 5, 6, seed=11, engine=engine)
        starts = walker_major_starts(graph.num_nodes, 6)
        reference = get_engine(engine).batch_walks(
            graph, starts, 5, seed=np.random.default_rng(11)
        )
        np.testing.assert_array_equal(dyn.walks, reference)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_entries_match_static_builder(self, engine):
        """Same walks => same records as FlatWalkIndex.build (the orders
        differ within hit-node groups; the grouped sets must not)."""
        graph = power_law_graph(50, 150, seed=4)
        dyn = DynamicWalkIndex.build(graph, 4, 5, seed=12, engine=engine)
        static = FlatWalkIndex.build(graph, 4, 5, seed=12, engine=engine)
        assert dyn.flat.same_entries(static)

    def test_rejects_generator_seed(self):
        graph = ring_graph(6)
        with pytest.raises(ParameterError):
            DynamicWalkIndex.build(
                graph, 3, 2, seed=np.random.default_rng(0)
            )

    def test_selections_match_static_index(self):
        """A dynamic index is a drop-in index for Algorithm 6."""
        graph = power_law_graph(60, 180, seed=5)
        dyn = DynamicWalkIndex.build(graph, 5, 8, seed=13)
        static = FlatWalkIndex.build(graph, 5, 8, seed=13)
        for objective in ("f1", "f2"):
            a = approx_greedy_fast(
                graph, 6, 5, index=dyn.flat, objective=objective
            )
            b = approx_greedy_fast(
                graph, 6, 5, index=static, objective=objective
            )
            assert a.selected == b.selected
            assert a.gains == b.gains


# ----------------------------------------------------------------------
class TestIncrementalEqualsRebuild:
    # Small batches on a larger graph run the sorted-merge splice; large
    # batches on a small graph cross the ~25%-dirty threshold into the
    # re-extraction fallback.  Both must be bit-identical to a rebuild.
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "nodes,edges,edits", [(300, 900, 2), (70, 210, 4)]
    )
    def test_multi_batch_bit_identity(self, engine, nodes, edges, edits):
        graph = power_law_graph(nodes, edges, seed=6)
        dyn = DynamicWalkIndex.build(graph, 5, 6, seed=21, engine=engine)
        dgraph = DynamicGraph(graph)
        rng = np.random.default_rng(22)
        for _ in range(3):
            ins, dels = random_edits(dgraph.graph, rng, edits, edits)
            dgraph.apply_batch(ins, dels)
        stats = dyn.sync(dgraph)
        assert stats.batches == 3
        rebuilt = DynamicWalkIndex.build(
            dgraph.graph, 5, 6, seed=21, engine=engine
        )
        assert_index_identical(dyn, rebuilt)

    def test_selections_identical_after_update(self):
        graph = power_law_graph(70, 210, seed=7)
        dyn = DynamicWalkIndex.build(graph, 5, 8, seed=23)
        dgraph = DynamicGraph(graph)
        rng = np.random.default_rng(24)
        ins, dels = random_edits(graph, rng, 5, 5)
        dgraph.apply_batch(ins, dels)
        dyn.sync(dgraph)
        rebuilt = DynamicWalkIndex.build(dgraph.graph, 5, 8, seed=23)
        for objective in ("f1", "f2"):
            a = approx_greedy_fast(
                dgraph.graph, 8, 5, index=dyn.flat, objective=objective
            )
            b = approx_greedy_fast(
                dgraph.graph, 8, 5, index=rebuilt.flat, objective=objective
            )
            assert a.selected == b.selected
            assert a.gains == b.gains

    def test_leave_rejoin_restores_index_exactly(self):
        """Edits that cancel out must restore the index bit-for-bit."""
        graph = power_law_graph(40, 120, seed=9)
        dyn = DynamicWalkIndex.build(graph, 5, 6, seed=27)
        original_walks = dyn.walks.copy()
        original_state = dyn.flat.state.copy()
        dgraph = DynamicGraph(graph)
        edges = [(3, int(v)) for v in graph.neighbors(3)]
        dgraph.apply_batch(deletes=edges)
        dgraph.apply_batch(inserts=edges)
        dyn.sync(dgraph)
        assert dgraph.graph == graph
        np.testing.assert_array_equal(dyn.walks, original_walks)
        np.testing.assert_array_equal(dyn.flat.state, original_state)

    def test_sync_validates_ownership(self):
        dyn = DynamicWalkIndex.build(ring_graph(8), 3, 2, seed=1)
        with pytest.raises(ParameterError):
            dyn.sync(DynamicGraph(ring_graph(9)))


# ----------------------------------------------------------------------
NODE_COUNT = 10

graph_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NODE_COUNT - 1),
        st.integers(min_value=0, max_value=NODE_COUNT - 1),
    ),
    min_size=4,
    max_size=30,
)


@pytest.mark.slow
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=graph_edges,
    engine=st.sampled_from(ENGINES),
    data=st.data(),
)
def test_property_incremental_equals_rebuild(edges, engine, data):
    """incremental ∘ arbitrary edit batches == full rebuild, bit-identical."""
    builder = GraphBuilder()
    builder.add_edges(edges)
    builder.touch_node(NODE_COUNT - 1)
    graph = builder.build()
    dyn = DynamicWalkIndex.build(graph, 4, 3, seed=5, engine=engine)
    dgraph = DynamicGraph(graph)
    num_batches = data.draw(st.integers(min_value=1, max_value=3))
    for _ in range(num_batches):
        current = dgraph.graph
        present = [tuple(map(int, e)) for e in current.edge_array()]
        absent = [
            (u, v)
            for u in range(NODE_COUNT)
            for v in range(u + 1, NODE_COUNT)
            if not current.has_edge(u, v)
        ]
        dels = data.draw(
            st.lists(st.sampled_from(present), unique=True, max_size=4)
            if present else st.just([])
        )
        ins = data.draw(
            st.lists(st.sampled_from(absent), unique=True, max_size=4)
            if absent else st.just([])
        )
        dgraph.apply_batch(ins, dels)
    dyn.sync(dgraph)
    rebuilt = DynamicWalkIndex.build(dgraph.graph, 4, 3, seed=5, engine=engine)
    assert_index_identical(dyn, rebuilt)


# ----------------------------------------------------------------------
class TestRobustGreedy:
    def test_q0_equals_approx_f2(self):
        graph = power_law_graph(60, 180, seed=10)
        dyn = DynamicWalkIndex.build(graph, 4, 8, seed=31)
        robust = robust_greedy(graph, 7, 4, q=0, index=dyn)
        reference = approx_greedy_fast(
            graph, 7, 4, index=dyn.flat, objective="f2"
        )
        assert robust.selected == reference.selected
        assert robust.gains == reference.gains

    def test_q_positive_runs_and_differs_sanely(self):
        graph = power_law_graph(60, 180, seed=11)
        dyn = DynamicWalkIndex.build(graph, 4, 8, seed=32)
        result = robust_greedy(graph, 6, 4, q=3, index=dyn)
        assert len(result.selected) == 6
        assert len(set(result.selected)) == 6
        assert result.params["q"] == 3
        # Robust gains can never exceed the unconstrained F2 gains.
        reference = approx_greedy_fast(
            graph, 6, 4, index=dyn.flat, objective="f2"
        )
        assert result.gains[0] <= reference.gains[0]

    def test_parameter_validation(self):
        graph = ring_graph(8)
        with pytest.raises(ParameterError):
            robust_greedy(graph, 99, 3, q=1)
        with pytest.raises(ParameterError):
            robust_greedy(graph, 2, 3, q=-1)


class TestMinBreakingEdges:
    def test_attack_reaches_threshold(self):
        graph = power_law_graph(60, 180, seed=12)
        dyn = DynamicWalkIndex.build(graph, 4, 8, seed=33)
        placement = approx_greedy_fast(
            graph, 5, 4, index=dyn.flat, objective="f2"
        ).selected
        report = min_breaking_edges(
            graph, placement, 4, index=dyn, threshold=0.5
        )
        fractions = (report.baseline_fraction,) + report.coverage_fractions
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert report.succeeded
        assert report.coverage_fractions[-1] < 0.5
        # Deleted edges must exist in the graph.
        for u, v in report.edges:
            assert graph.has_edge(u, v)

    def test_hop0_coverage_is_unbreakable(self):
        """Placing on every node leaves nothing for the adversary."""
        graph = ring_graph(10)
        dyn = DynamicWalkIndex.build(graph, 3, 4, seed=34)
        report = min_breaking_edges(
            graph, range(10), 3, index=dyn, threshold=0.5
        )
        assert report.baseline_fraction == 1.0
        assert not report.succeeded
        assert report.edges == ()

    def test_max_edges_cap(self):
        graph = power_law_graph(60, 180, seed=13)
        report = min_breaking_edges(
            graph, [0, 1], 4, num_replicates=6, seed=35,
            threshold=0.0, max_edges=3,
        )
        assert report.num_edges <= 3
        assert not report.succeeded  # threshold 0 is unreachable


# ----------------------------------------------------------------------
class TestChurnReplay:
    def test_trace_parsing(self):
        batches = parse_trace(
            "# comment\nadd 1 2\ndel 3 4\nstep\n\nleave 5\nstep\nstep\nrejoin 5\n"
        )
        assert len(batches) == 4
        assert [op.kind for op in batches[0]] == ["add", "del"]
        assert batches[2] == []
        assert batches[3][0].kind == "rejoin"
        with pytest.raises(ParameterError):
            parse_trace("frobnicate 1 2\n")
        with pytest.raises(ParameterError):
            parse_trace("add 1\n")

    def test_replay_tracks_and_resolves(self):
        graph = power_law_graph(50, 150, seed=14)
        hub = int(np.argmax(graph.degrees))
        trace = f"leave {hub}\nstep\nrejoin {hub}\nstep\n"
        report = churn_replay(
            graph, trace, k=4, length=4, num_replicates=10, seed=36,
            resolve_threshold=1.0,
        )
        assert len(report.steps) == 2
        assert report.steps[0].num_deletes == graph.degree(hub)
        assert report.steps[1].num_inserts == graph.degree(hub)
        # Threshold 1.0: any coverage drop re-solves immediately.
        if report.steps[0].coverage_fraction < report.baseline_coverage_fraction:
            assert report.num_resolves >= 1

    def test_leave_removes_edges_added_during_replay(self):
        """A departing peer loses runtime-added edges, not just original
        overlay links — otherwise it stays reachable after leaving."""
        graph = ring_graph(8)
        assert not graph.has_edge(0, 4)
        report = churn_replay(
            graph, "add 0 4\nstep\nleave 0\nstep\n", k=2, length=3,
            num_replicates=4, seed=1,
        )
        assert len(report.steps) == 2
        # Step 2 must delete all three of node 0's edges: 0-1, 0-7, 0-4.
        assert report.steps[1].num_deletes == 3

    def test_leave_rejoin_same_batch_cancels(self):
        """Delete + re-add of the same edge within one batch cancels out
        instead of tripping the insert/delete overlap guard."""
        graph = ring_graph(8)
        report = churn_replay(
            graph, "leave 5\nrejoin 5\nstep\n", k=2, length=3,
            num_replicates=4, seed=1,
        )
        assert report.steps[0].num_inserts == 0
        assert report.steps[0].num_deletes == 0
        assert report.steps[0].resampled_rows == 0

    def test_membership_errors(self):
        graph = ring_graph(8)
        with pytest.raises(ParameterError):
            churn_replay(
                graph, "rejoin 0\nstep\n", k=2, length=3, num_replicates=4
            )
        with pytest.raises(ParameterError):
            churn_replay(
                graph, "leave 0\nadd 0 4\nstep\n", k=2, length=3,
                num_replicates=4,
            )


class TestTraceIdValidation:
    """Out-of-range/negative trace ids raise ParameterError with line
    context instead of crashing on the membership array (regression:
    ``leave 99`` on a 5-node graph used to escape as a raw IndexError,
    and negative ids silently wrapped through numpy indexing)."""

    def test_out_of_range_leave_is_parameter_error(self):
        graph = ring_graph(5)
        with pytest.raises(ParameterError, match="line 1.*out of range"):
            churn_replay(
                graph, "leave 99\nstep\n", k=1, length=2, num_replicates=4
            )

    def test_out_of_range_ids_all_kinds(self):
        graph = ring_graph(5)
        for trace in (
            "rejoin 5\nstep\n", "add 0 7\nstep\n", "del 9 1\nstep\n"
        ):
            with pytest.raises(ParameterError, match="out of range"):
                churn_replay(
                    graph, trace, k=1, length=2, num_replicates=4
                )

    def test_negative_ids_rejected_at_parse_time(self):
        with pytest.raises(ParameterError, match="line 2.*negative"):
            parse_trace("step\nleave -1\n")
        with pytest.raises(ParameterError, match="negative"):
            parse_trace("add 0 -3\n")
        # -1 doubles as TraceOp's "no v" default; a literal -1 in the
        # trace must still be rejected, not mistaken for the sentinel.
        with pytest.raises(ParameterError, match="negative"):
            parse_trace("add 3 -1\n")
        with pytest.raises(ParameterError, match="negative"):
            parse_trace("del -1 3\n")

    def test_programmatic_negative_id_cannot_wrap(self):
        """Ops built without parse_trace are validated too — numpy would
        otherwise silently read present[-1]."""
        graph = ring_graph(5)
        dgraph = DynamicGraph(graph)
        present = np.ones(5, dtype=bool)
        for op in (
            TraceOp(kind="leave", u=-1),
            TraceOp(kind="rejoin", u=-2),
            TraceOp(kind="add", u=0, v=-1),
        ):
            with pytest.raises(ParameterError, match="out of range"):
                expand_membership([op], dgraph, graph, present)
        assert present.all()  # validation fired before any state change

    def test_bad_id_later_in_batch_leaves_membership_untouched(self):
        """Ids are validated for the whole batch up front: a bad op in
        position 2 must not leave position 1's `present` flip behind."""
        graph = ring_graph(5)
        dgraph = DynamicGraph(graph)
        present = np.ones(5, dtype=bool)
        batch = [TraceOp(kind="leave", u=0), TraceOp(kind="leave", u=99)]
        with pytest.raises(ParameterError, match="out of range"):
            expand_membership(batch, dgraph, graph, present)
        assert present.all()

    def test_line_context_reaches_membership_errors(self):
        graph = ring_graph(8)
        with pytest.raises(ParameterError, match="line 3"):
            churn_replay(
                graph, "leave 0\nstep\nleave 0\nstep\n", k=1, length=2,
                num_replicates=4,
            )


class TestP2PChurn:
    def test_departed_hosts_do_not_serve(self):
        graph = power_law_graph(40, 120, seed=15)
        hosts = [3]
        events = f"step\nleave 3\nstep\nrejoin 3\nstep\n"
        report = simulate_p2p_churn(
            graph, hosts, events, num_queries=300, ttl=4, seed=37
        )
        assert len(report.phases) == 3
        assert report.phases[0].num_active_hosts == 1
        assert report.phases[1].num_active_hosts == 0
        assert report.phases[1].success_rate == 0.0
        assert report.phases[2].num_active_hosts == 1
        assert report.phases[2].success_rate > 0.0

    def test_weighted_graph_rejected(self):
        from repro.graphs.weighted import WeightedDiGraph

        weighted = WeightedDiGraph.from_undirected(ring_graph(4))
        with pytest.raises(ParameterError):
            simulate_p2p_churn(weighted, [0], "step\n")


# ----------------------------------------------------------------------
class TestPersistenceMetadata:
    def test_provenance_roundtrip(self, tmp_path):
        graph = power_law_graph(40, 120, seed=16)
        index = FlatWalkIndex.build(graph, 4, 5, seed=40)
        path = tmp_path / "walks.idx3"
        save_index(index, path, graph=graph, engine="csr", seed=40)
        info = index_provenance(path)
        assert info["engine"] == "csr"
        assert info["seed"] == "40"
        assert info["graph_num_edges"] == graph.num_edges
        assert info["graph_fingerprint"] == graph_fingerprint(graph)
        assert load_index(path, graph=graph).total_entries == index.total_entries

    def test_stale_index_rejected(self, tmp_path):
        graph = power_law_graph(40, 120, seed=17)
        index = FlatWalkIndex.build(graph, 4, 5, seed=41)
        path = tmp_path / "walks.idx3"
        save_index(index, path, graph=graph)
        edge = tuple(map(int, graph.edge_array()[0]))
        edited = edit_graph(graph, deletes=[edge])
        with pytest.raises(ParameterError):
            load_index(path, graph=edited)
        # Same edge count but different adjacency: fingerprint catches it.
        u, v = edge
        other = (u, v + 1) if v + 1 < graph.num_nodes and not graph.has_edge(
            u, (v + 1)
        ) and u != v + 1 else None
        if other is not None:
            rewired = edit_graph(graph, inserts=[other], deletes=[edge])
            with pytest.raises(ParameterError):
                load_index(path, graph=rewired)

    def test_node_count_mismatch_rejected(self, tmp_path):
        graph = ring_graph(8)
        index = FlatWalkIndex.build(graph, 3, 2, seed=42)
        path = tmp_path / "walks.idx3"
        save_index(index, path)
        with pytest.raises(ParameterError):
            load_index(path, graph=ring_graph(9))

    def test_v1_archives_refused(self, tmp_path):
        """A v1 ``.npz`` archive (no provenance, no graph metadata) is
        refused by the loader and the provenance reader alike, naming
        the retired format and the rebuild."""
        graph = ring_graph(8)
        index = FlatWalkIndex.build(graph, 3, 2, seed=43)
        path = tmp_path / "v1.npz"
        np.savez(
            path,
            version=np.int64(1),
            header=np.asarray([8, 3, 2], dtype=np.int64),
            indptr=index.indptr,
            state=index.state,
            hop=index.hop,
        )
        for read in (load_index, index_provenance):
            with pytest.raises(
                GraphFormatError, match=r"v1/v2 \.npz"
            ) as excinfo:
                read(path)
            assert str(path) in str(excinfo.value)
            assert "repro index" in str(excinfo.value)

    def test_multiproc_provenance_still_loads(self, tmp_path):
        """Archives and snapshots built with the deleted ``multiproc``
        engine hold the same walks as csr's; their provenance is only
        text, so they load and keep resuming."""
        graph = power_law_graph(40, 120, seed=16)
        index = FlatWalkIndex.build(graph, 4, 5, seed=40, engine="csr")
        path = save_index(
            index, tmp_path / "walks", graph=graph, engine="multiproc",
            seed=40,
        )
        assert index_provenance(path)["engine"] == "multiproc"
        assert load_index(path, graph=graph).same_entries(index)

        dyn = DynamicWalkIndex.build(graph, 4, 5, seed=43, engine="csr")
        snap = save_dynamic_index(dyn, tmp_path / "dyn.npz")
        with np.load(snap) as archive:
            payload = dict(archive)
        payload["meta_engine"] = np.str_("multiproc")
        np.savez(snap, **payload)
        reloaded = load_dynamic_index(snap, graph=graph)
        assert reloaded.engine_name == "multiproc"
        assert_index_identical(reloaded, dyn)
        dgraph = DynamicGraph(graph)
        dgraph.apply_batch(*random_edits(graph, np.random.default_rng(5), 2, 2))
        reloaded.sync(dgraph)
        assert_index_identical(
            reloaded,
            DynamicWalkIndex.build(dgraph.graph, 4, 5, seed=43, engine="csr"),
        )

    def test_snapshot_shard_slot(self, tmp_path):
        """The snapshot header keeps its five int64 slots with 0 in the
        shard slot (snapshots of earlier releases load); a nonzero
        count — the retired per-shard seeding — is refused."""
        graph = power_law_graph(30, 90, seed=17)
        dyn = DynamicWalkIndex.build(graph, 3, 4, seed=44)
        path = save_dynamic_index(dyn, tmp_path / "dyn.npz")
        with np.load(path) as archive:
            payload = dict(archive)
        assert payload["header"].dtype == np.int64
        assert payload["header"].tolist() == [30, 3, 4, 0, 0]
        payload["header"][4] = 4
        np.savez(path, **payload)
        with pytest.raises(GraphFormatError, match="shard"):
            load_dynamic_index(path)

    def test_dynamic_snapshot_resumes_incrementally(self, tmp_path):
        graph = power_law_graph(50, 150, seed=18)
        dyn = DynamicWalkIndex.build(graph, 4, 6, seed=44, engine="csr")
        dgraph = DynamicGraph(graph)
        rng = np.random.default_rng(45)
        dgraph.apply_batch(*random_edits(graph, rng, 3, 3))
        dyn.sync(dgraph)
        path = tmp_path / "dyn.npz"
        save_dynamic_index(dyn, path)
        # The journal moves on while the snapshot is cold...
        dgraph.apply_batch(*random_edits(dgraph.graph, rng, 3, 3))
        reloaded = load_dynamic_index(path)
        assert reloaded.epoch == 1
        assert reloaded.engine_name == "csr"
        reloaded.sync(dgraph)  # replays only journal[1:]
        rebuilt = DynamicWalkIndex.build(
            dgraph.graph, 4, 6, seed=44, engine="csr"
        )
        assert_index_identical(reloaded, rebuilt)

    def test_dynamic_snapshot_graph_mismatch(self, tmp_path):
        graph = power_law_graph(40, 120, seed=19)
        dyn = DynamicWalkIndex.build(graph, 3, 4, seed=46)
        path = tmp_path / "dyn.npz"
        save_dynamic_index(dyn, path)
        edge = tuple(map(int, graph.edge_array()[0]))
        with pytest.raises(ParameterError):
            load_dynamic_index(path, graph=edit_graph(graph, deletes=[edge]))
        assert load_dynamic_index(path, graph=graph).graph == graph

    def test_dynamic_snapshot_corruption(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_dynamic_index(path)


# ----------------------------------------------------------------------
class TestDynamicCli:
    @pytest.fixture()
    def edge_list(self, tmp_path):
        from repro.graphs.io import write_edge_list

        graph = power_law_graph(40, 120, seed=20)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        return graph, str(path)

    def test_cli_churn_replay(self, edge_list, tmp_path, capsys):
        from repro.cli import main

        graph, path = edge_list
        hub = int(np.argmax(graph.degrees))
        trace = tmp_path / "trace.txt"
        trace.write_text(f"leave {hub}\nstep\nrejoin {hub}\nstep\n")
        code = main([
            "dynamic", "--edge-list", path, "--churn-trace", str(trace),
            "-k", "4", "-L", "4", "-R", "10", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "churn replay: 2 batches" in out
        assert "re-solves:" in out

    def test_cli_robust_and_attack(self, edge_list, capsys):
        from repro.cli import main

        _, path = edge_list
        code = main([
            "dynamic", "--edge-list", path, "--robust", "1",
            "-k", "3", "-L", "4", "-R", "10", "--seed", "1",
        ])
        assert code == 0
        assert "RobustGreedy" in capsys.readouterr().out
        code = main([
            "dynamic", "--edge-list", path, "--attack", "0.4",
            "-k", "3", "-L", "4", "-R", "10", "--seed", "1",
        ])
        assert code == 0
        assert "edge deletions" in capsys.readouterr().out

    def test_cli_simulate_churn_trace(self, edge_list, tmp_path, capsys):
        from repro.cli import main

        _, path = edge_list
        trace = tmp_path / "trace.txt"
        trace.write_text("step\nleave 2\nstep\n")
        code = main([
            "simulate", "--edge-list", path, "--app", "p2p",
            "--targets", "1,2", "--churn-trace", str(trace),
            "--sessions", "50", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "p2p churn: 2 phases" in out

    def test_cli_simulate_churn_requires_p2p(self, edge_list, tmp_path, capsys):
        from repro.cli import main

        _, path = edge_list
        trace = tmp_path / "trace.txt"
        trace.write_text("step\n")
        code = main([
            "simulate", "--edge-list", path, "--app", "social",
            "--targets", "1", "--churn-trace", str(trace),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_select_rejects_stale_index(self, edge_list, tmp_path, capsys):
        from repro.cli import main

        graph, path = edge_list
        index_path = tmp_path / "walks.idx3"
        code = main([
            "index", "--edge-list", path, "-L", "4", "-R", "10",
            "--seed", "1", "--out", str(index_path),
        ])
        assert code == 0
        # Edit the graph on disk, then try to reuse the stale index.
        from repro.graphs.io import read_edge_list, write_edge_list

        original = read_edge_list(path)
        edge = tuple(map(int, original.edge_array()[0]))
        write_edge_list(edit_graph(original, deletes=[edge]), path)
        code = main([
            "select", "--edge-list", path, "-k", "3",
            "--index", str(index_path),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "stale index" in err
