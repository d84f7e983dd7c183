"""Differential fuzz harness across walk engines and the archive round trip.

Parity between execution paths is the repo's core invariant: both walk
backends, an index saved to a v3 archive and loaded back, a dynamic
(incrementally maintained) index, and a serving layer all promise
bit-identical answers on the same seed.
Instead of ad-hoc per-feature parity tests, this harness composes random
op sequences over the whole pipeline::

    build -> { edit batch | solve {f1,f2} | serve }*

and asserts, at every step, that

* the per-engine :class:`DynamicWalkIndex` instances remain
  byte-identical to each other *and* to a fresh static
  ``FlatWalkIndex.build`` on the current graph under every engine
  (incremental == rebuild, engine-independent, canonical order);
* solver selections and gains agree across every engine, and between an
  in-memory index and its own save/load round trip;
* served answers (``select``/``metrics``/``coverage``/``min_targets``)
  agree across engines and with the direct solver/metrics calls —
  including the walk-matrix vs entries metrics twins.

Failures shrink to a minimal op list (hypothesis) and the reduced
sequence is reported via ``note()`` for replay.

The exhaustive property runs in the slow lane (``-m slow``); a pinned
three-op smoke stays in tier-1 so the harness itself cannot rot.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis import note as _hypothesis_note
from hypothesis.errors import InvalidArgument


def note(message: str) -> None:
    """Attach a replay note when running under hypothesis, else no-op.

    The runner is shared with the pinned tier-1 smoke test, which runs
    outside any hypothesis build context.
    """
    try:
        _hypothesis_note(message)
    except InvalidArgument:
        pass

from repro.core.approx_fast import approx_greedy_fast
from repro.core.coverage import min_targets_for_coverage
from repro.dynamic import DynamicGraph, DynamicWalkIndex
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.serve import DominationService, IndexSnapshot
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import load_index, save_index

SEED = 1234
ENGINES = ("numpy", "csr")


def _stored_variants(flat: FlatWalkIndex):
    """The index in RAM and after its own save/load round trip (read-only
    views over the archive's maps; they outlive the unlinked file)."""
    with tempfile.TemporaryDirectory() as tmpdir:
        loaded = load_index(save_index(flat, Path(tmpdir) / "walks"))
    return [("ram", flat), ("archive", loaded)]


# ----------------------------------------------------------------------
# Step assertions
# ----------------------------------------------------------------------
def _assert_indexes_identical(dyn: dict, dgraph: DynamicGraph, length,
                              reps) -> FlatWalkIndex:
    # Dynamic == static holds byte-for-byte because every instance here
    # fits one static-build chunk (n * R << chunk_rows); see the
    # dynamic/index.py module docstring for the multi-chunk caveat.
    reference = dyn["numpy"].flat
    for name, maintained in dyn.items():
        for field in ("indptr", "state", "hop"):
            assert np.array_equal(
                getattr(reference, field), getattr(maintained.flat, field)
            ), f"dynamic index diverged for engine {name!r} ({field})"
        assert np.array_equal(dyn["numpy"].walks, maintained.walks), name
    for name in ENGINES:
        static = FlatWalkIndex.build(
            dgraph.graph, length, reps, seed=SEED, engine=name
        )
        for field in ("indptr", "state", "hop"):
            assert np.array_equal(
                getattr(reference, field), getattr(static, field)
            ), f"static rebuild diverged for engine {name!r} ({field})"
    # Archive parity: the saved and reloaded index must hold the very
    # same entries as the in-memory reference after every edit.
    for where, variant in _stored_variants(reference):
        for field in ("indptr", "state", "hop"):
            assert np.array_equal(
                getattr(reference, field), getattr(variant, field)
            ), f"{where} index diverged ({field})"
        assert variant.same_entries(reference), where
    return reference


def _assert_solve_agrees(dyn: dict, graph: Graph, k: int, objective: str):
    reference = None
    for name, maintained in dyn.items():
        result = approx_greedy_fast(
            graph, k, maintained.length, index=maintained.flat,
            objective=objective,
        )
        if reference is None:
            reference = result
        assert result.selected == reference.selected, name
        assert result.gains == reference.gains, name
    # One engine's index in RAM and through its own save/load round trip:
    # selections and gains must be bit-identical (the loaded index reads
    # through the archive maps).
    flat = next(iter(dyn.values())).flat
    for where, variant in _stored_variants(flat):
        result = approx_greedy_fast(
            graph, k, flat.length, index=variant, objective=objective,
        )
        assert result.selected == reference.selected, where
        assert result.gains == reference.gains, where


def _assert_serve_agrees(dyn: dict, seed: int):
    rng = np.random.default_rng(seed)
    n = dyn["numpy"].num_nodes
    k = int(rng.integers(1, min(4, n) + 1))
    objective = ("f1", "f2")[int(rng.integers(0, 2))]
    targets = tuple(
        sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
    )
    fraction = float(rng.uniform(0.05, 0.9))
    answers = []
    for name, maintained in dyn.items():
        service = DominationService(
            IndexSnapshot.of_dynamic(maintained), cache_size=8
        )
        with service:
            selection = service.select(k, objective=objective)
            metrics = service.metrics(targets)
            covered = service.coverage(targets)
            try:
                min_targets = service.min_targets(fraction, max_size=n)
                min_answer = (min_targets.selected, min_targets.gains)
            except ParameterError:
                min_answer = "unreachable"
        # Served answers must equal the direct calls on the same index...
        direct = approx_greedy_fast(
            maintained.graph, k, maintained.length, index=maintained.flat,
            objective=objective,
        )
        assert selection.selected == direct.selected, name
        assert selection.gains == direct.gains, name
        assert metrics == maintained.flat.selection_metrics(targets), name
        # ...and the entries-based metrics must equal the walk-matrix twin.
        assert metrics == maintained.selection_metrics(targets), name
        try:
            direct_min = min_targets_for_coverage(
                maintained.graph, fraction, maintained.length,
                index=maintained.flat, max_size=n,
            )
            assert min_answer == (direct_min.selected, direct_min.gains), name
        except ParameterError:
            assert min_answer == "unreachable", name
        answers.append(
            (selection.selected, selection.gains, metrics, covered, min_answer)
        )
    assert all(a == answers[0] for a in answers[1:]), "engines disagree"


def _random_edit(dgraph: DynamicGraph, seed: int):
    """A valid (delete-then-insert) batch derived from the current graph."""
    rng = np.random.default_rng(seed)
    n = dgraph.num_nodes
    present = [tuple(edge) for edge in dgraph.graph.edge_array().tolist()]
    absent = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not dgraph.has_edge(u, v)
    ]
    num_deletes = int(rng.integers(0, min(2, len(present)) + 1))
    num_inserts = int(rng.integers(0, min(2, len(absent)) + 1))
    deletes = [
        present[i]
        for i in rng.choice(len(present), size=num_deletes, replace=False)
    ] if num_deletes else []
    inserts = [
        absent[i]
        for i in rng.choice(len(absent), size=num_inserts, replace=False)
    ] if num_inserts else []
    if not deletes and not inserts:
        return None
    return inserts, deletes


# ----------------------------------------------------------------------
# The differential runner
# ----------------------------------------------------------------------
def run_differential(edges, num_nodes, length, reps, ops):
    graph = Graph.from_edges(edges, num_nodes=num_nodes)
    dgraph = DynamicGraph(graph)
    dyn = {
        name: DynamicWalkIndex.build(graph, length, reps, seed=SEED, engine=name)
        for name in ENGINES
    }
    _assert_indexes_identical(dyn, dgraph, length, reps)
    for op in ops:
        note(f"op: {op}")
        if op[0] == "edit":
            edit = _random_edit(dgraph, op[1])
            if edit is None:
                continue
            inserts, deletes = edit
            note(f"  -> inserts={inserts} deletes={deletes}")
            dgraph.apply_batch(inserts=inserts, deletes=deletes)
            for maintained in dyn.values():
                maintained.sync(dgraph)
            _assert_indexes_identical(dyn, dgraph, length, reps)
        elif op[0] == "solve":
            _, k, objective = op
            _assert_solve_agrees(dyn, dgraph.graph, min(k, num_nodes), objective)
        elif op[0] == "serve":
            _assert_serve_agrees(dyn, op[1])
        else:  # pragma: no cover - strategy bug guard
            raise AssertionError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def _ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("edit"), st.integers(0, 2**16)),
            st.tuples(
                st.just("solve"),
                st.integers(1, 4),
                st.sampled_from(("f1", "f2")),
            ),
            st.tuples(st.just("serve"), st.integers(0, 2**16)),
        ),
        min_size=1,
        max_size=5,
    )


@st.composite
def _instances(draw):
    num_nodes = draw(st.integers(4, 9))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ).map(lambda e: (min(e), max(e))).filter(lambda e: e[0] != e[1]),
            min_size=2,
            max_size=min(14, num_nodes * (num_nodes - 1) // 2),
        )
    )
    length = draw(st.integers(1, 4))
    reps = draw(st.integers(1, 4))
    ops = draw(_ops())
    return sorted(edges), num_nodes, length, reps, ops


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.slow
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=_instances())
def test_differential_pipeline(instance):
    edges, num_nodes, length, reps, ops = instance
    note(f"graph: n={num_nodes} edges={edges} L={length} R={reps}")
    run_differential(edges, num_nodes, length, reps, ops)


def test_differential_smoke():
    """A pinned build -> edit -> solve -> serve sequence in tier-1."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
    ops = [("edit", 7), ("solve", 2, "f2"), ("solve", 2, "f1"), ("serve", 11)]
    run_differential(edges, 6, 3, 2, ops)
