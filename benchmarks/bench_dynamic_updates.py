"""Incremental walk-index maintenance vs full rebuild — head-to-head.

The acceptance benchmark for the dynamic subsystem (:mod:`repro.dynamic`,
DESIGN.md §9): after an edit batch touching well under 1% of the edges,
syncing the maintained index must be

* **bit-identical** to the dynamic from-scratch rebuild on the edited
  graph (same trajectories, same entry arrays, same greedy selections
  under both gain backends) and record-identical to the *static* builder
  (same grouped entry sets — order within a hit node is a builder
  detail) — hard assertions, never gated off; and
* **at least 3.5x faster end-to-end** (CSR re-edit included) than the full
  rebuild a pre-dynamic workflow would run, i.e. the static
  ``FlatWalkIndex.build`` with the walk engine (a timing assertion,
  demoted to report-only under ``--no-timing-gate``).  The speedup over
  the dynamic subsystem's own frozen-uniform rebuild — which already
  skips the engine's RNG machinery — is recorded alongside,
  report-only.

The instance is a flat-degree G(n, p) overlay: the resample set of an
edit batch is driven by how much walk mass crosses the modified nodes,
so a hub-free topology at the paper's default R = 100 exercises the
advertised regime (small batch -> small dirty fraction).  A 1%-of-edges
batch is also measured and recorded for the decay curve, report-only
(it crosses into the re-extraction fallback path).

Key reference (all via ``bench_record`` for the ``--json`` report and
``tools/check_bench_regression.py``):

* ``dynamic.static_rebuild_s`` / ``dynamic.incremental_s`` /
  ``dynamic.incremental_speedup_x`` — the gated head-to-head.
* ``dynamic.replay_rebuild_s`` / ``dynamic.replay_rebuild_speedup_x`` —
  vs the dynamic builder's own rebuild (report-only).
* ``dynamic.resampled_fraction`` — dirty share of the 300k walks.
* ``dynamic.incremental_1pct_*`` — the same at a 1%-of-edges batch.
* ``dynamic.bit_identity_parity`` / ``dynamic.static_entries_parity`` /
  ``dynamic.selection_parity`` — the hard contract.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import best_of

from repro.graphs.generators import erdos_renyi_graph
from repro.core.approx_fast import approx_greedy_fast
from repro.walks.index import FlatWalkIndex
from repro.dynamic import DynamicGraph, DynamicWalkIndex

#: The benchmark instance: flat degrees (avg ~10), paper-default R.
NODES = 4_000
EDGE_PROBABILITY = 10 / (NODES - 1)
LENGTH = 6
REPLICATES = 100
SEED = 17
BUDGET = 20

#: The gated batch: 16 edge edits, ~0.1% of the ~20k edges (the 1%
#: decay point is derived from the graph inside its test).
GATED_EDITS = 8


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(NODES, EDGE_PROBABILITY, seed=7)


@pytest.fixture(scope="module")
def baseline_index(graph):
    return DynamicWalkIndex.build(
        graph, LENGTH, REPLICATES, seed=SEED, engine="csr"
    )


def _clone(index: DynamicWalkIndex) -> DynamicWalkIndex:
    """Fresh mutable copy so repeated sync timings start from scratch.

    The frozen uniforms are shared — they are read-only in every code
    path — so a clone costs one copy of the walks and entry arrays.
    """
    flat = index.flat
    return DynamicWalkIndex(
        graph=index.graph,
        flat=FlatWalkIndex(
            indptr=flat.indptr.copy(),
            state=flat.state.copy(),
            hop=flat.hop.copy(),
            num_nodes=flat.num_nodes,
            length=flat.length,
            num_replicates=flat.num_replicates,
        ),
        walks=index.walks.copy(),
        seed_entropy=index.seed_entropy,
        engine_name=index.engine_name,
        epoch=index.epoch,
        uniforms=index.uniforms,
        keys=index.keys.copy(),
    )


def _edit_batch(graph, num_each, seed):
    """``num_each`` deletions + ``num_each`` insertions, deterministic."""
    rng = np.random.default_rng(seed)
    edge_array = graph.edge_array()
    deletes = [
        tuple(map(int, edge_array[i]))
        for i in rng.choice(len(edge_array), size=num_each, replace=False)
    ]
    inserts = []
    while len(inserts) < num_each:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
        edge = (min(u, v), max(u, v))
        if u != v and not graph.has_edge(u, v) and edge not in inserts:
            inserts.append(edge)
    return inserts, deletes


def _head_to_head(graph, baseline_index, num_each, seed, repeats=3):
    """(incremental_s, rebuild_s, synced_index, rebuilt_index, stats).

    Measures the *steady state* a live system runs in: one long-lived
    index absorbing a stream of edit batches.  A warmup batch primes the
    splice buffers, then each timed repeat applies a fresh batch of the
    same size to the evolving graph and syncs; the rebuild side is timed
    on the final snapshot (a rebuild is cold by definition).  Parity is
    asserted between the fully synced index and that final rebuild, so
    every timed batch is also covered by the bit-identity check.
    """
    dyn = _clone(baseline_index)
    dgraph = DynamicGraph(graph)
    dgraph.apply_batch(*_edit_batch(graph, num_each, seed=seed + 1000))
    dyn.sync(dgraph)  # warmup: primes pools, pages, branch caches
    incremental_s = float("inf")
    stats = None
    for i in range(repeats):
        edits = _edit_batch(dgraph.graph, num_each, seed=seed + i)
        dgraph.apply_batch(*edits)
        started = time.perf_counter()
        stats = dyn.sync(dgraph)
        incremental_s = min(incremental_s, time.perf_counter() - started)

    replay_rebuild_s, rebuilt = best_of(repeats, lambda: DynamicWalkIndex.build(
        dgraph.graph, LENGTH, REPLICATES, seed=SEED, engine="csr"
    ))
    static_rebuild_s, static = best_of(repeats, lambda: FlatWalkIndex.build(
        dgraph.graph, LENGTH, REPLICATES, seed=SEED, engine="csr"
    ))
    return (
        incremental_s, static_rebuild_s, replay_rebuild_s,
        dyn, rebuilt, static, stats,
    )


def _bit_identical(a: DynamicWalkIndex, b: DynamicWalkIndex) -> bool:
    return (
        a.graph == b.graph
        and np.array_equal(a.walks, b.walks)
        and np.array_equal(a.flat.indptr, b.flat.indptr)
        and np.array_equal(a.flat.state, b.flat.state)
        and np.array_equal(a.flat.hop, b.flat.hop)
    )


def test_incremental_vs_rebuild_gated(
    graph, baseline_index, bench_record, timing_gate
):
    """The standing claim: <=1% edit batch, bit-identical, >=3.5x faster."""
    (
        incremental_s, static_rebuild_s, replay_rebuild_s,
        synced, rebuilt, static, stats,
    ) = _head_to_head(graph, baseline_index, GATED_EDITS, seed=23)
    identical = _bit_identical(synced, rebuilt)
    static_entries = synced.flat.same_entries(static)
    selection_parity = True
    for objective in ("f1", "f2"):
        a = approx_greedy_fast(
            synced.graph, BUDGET, LENGTH, index=synced.flat,
            objective=objective,
        )
        b = approx_greedy_fast(
            rebuilt.graph, BUDGET, LENGTH, index=rebuilt.flat,
            objective=objective,
        )
        c = approx_greedy_fast(
            rebuilt.graph, BUDGET, LENGTH, index=static, objective=objective,
        )
        selection_parity &= (
            a.selected == b.selected == c.selected
            and a.gains == b.gains == c.gains
        )
    speedup = static_rebuild_s / incremental_s
    replay_speedup = replay_rebuild_s / incremental_s
    bench_record("dynamic.static_rebuild_s", static_rebuild_s)
    bench_record("dynamic.replay_rebuild_s", replay_rebuild_s)
    bench_record("dynamic.incremental_s", incremental_s)
    bench_record("dynamic.incremental_speedup_x", speedup)
    bench_record("dynamic.replay_rebuild_speedup_x", replay_speedup)
    bench_record("dynamic.resampled_fraction", stats.resampled_fraction)
    bench_record("dynamic.bit_identity_parity", identical)
    bench_record("dynamic.static_entries_parity", static_entries)
    bench_record("dynamic.selection_parity", selection_parity)
    edit_pct = 100.0 * 2 * GATED_EDITS / graph.num_edges
    print(
        f"\nincremental vs rebuild (n={NODES}, m={graph.num_edges}, "
        f"R={REPLICATES}, L={LENGTH}, batch={2 * GATED_EDITS} edits = "
        f"{edit_pct:.2f}% of edges, {stats.resampled_fraction:.1%} of walks "
        f"resampled): static rebuild {static_rebuild_s * 1e3:.0f} ms, "
        f"frozen-uniform rebuild {replay_rebuild_s * 1e3:.0f} ms, "
        f"incremental {incremental_s * 1e3:.0f} ms -> {speedup:.1f}x "
        f"(vs static; {replay_speedup:.1f}x vs frozen-uniform)"
    )
    # Bit-identity and selection parity are the hard gates.
    assert identical, "incremental sync diverged from the full rebuild"
    assert static_entries, "entry records diverged from the static builder"
    assert selection_parity, "selections diverged after incremental sync"
    # Floor history: 5x against the pre-canonical-order static builder;
    # the ISSUE-5 walk_records/canonical-sort refactor made the *static
    # rebuild* (the competitor) ~30% faster with the incremental path
    # unchanged, so the honest floor at this batch size is now 3.5x.
    if timing_gate:
        assert speedup >= 3.5, (
            f"incremental sync only {speedup:.2f}x faster than a full "
            "rebuild on the <=1% edit-batch benchmark"
        )
    elif speedup < 3.5:
        print(f"TIMING (report-only): speedup {speedup:.2f}x < 3.5x floor")


def test_one_percent_batch_report(graph, baseline_index, bench_record):
    """Decay curve point: a 1%-of-edges batch (parity hard, timing
    report-only — the dirty fraction grows superlinearly with the batch
    because every touched node dirties whole walk neighborhoods, so this
    size crosses into the re-extraction fallback)."""
    num_each = max(1, graph.num_edges // 200)  # ins + dels = 1% of edges
    (
        incremental_s, static_rebuild_s, _replay_s,
        synced, rebuilt, _static, stats,
    ) = _head_to_head(graph, baseline_index, num_each, seed=29)
    identical = _bit_identical(synced, rebuilt)
    speedup = static_rebuild_s / incremental_s
    bench_record("dynamic.incremental_1pct_s", incremental_s)
    bench_record("dynamic.static_rebuild_1pct_s", static_rebuild_s)
    bench_record("dynamic.incremental_1pct_speedup_x", speedup)
    bench_record("dynamic.resampled_1pct_fraction", stats.resampled_fraction)
    bench_record("dynamic.bit_identity_1pct_parity", identical)
    print(
        f"\n1% batch ({2 * num_each} edits, {stats.resampled_fraction:.1%} "
        f"resampled): static rebuild {static_rebuild_s * 1e3:.0f} ms, "
        f"incremental {incremental_s * 1e3:.0f} ms -> {speedup:.1f}x"
    )
    assert identical, "incremental sync diverged at the 1% batch size"


def test_build_cost_report(graph, bench_record):
    """Context: what one from-scratch dynamic build costs (report-only)."""
    build_s, dyn = best_of(2, lambda: DynamicWalkIndex.build(
        graph, LENGTH, REPLICATES, seed=SEED, engine="csr"
    ))
    bench_record("dynamic.build_s", build_s)
    print(
        f"\ndynamic build: {build_s * 1e3:.0f} ms "
        f"({dyn.total_entries} entries, {dyn.walks.shape[0]} walks)"
    )
