"""Acceptance benchmark for the out-of-core index build (DESIGN.md §15).

The standing claims on the R=100 memory workload (a 2k-node power-law
graph at L=10):

* ``build_index_archive`` under a small ``memory_budget`` writes a
  **byte-identical** archive to the in-memory build-then-save path
  (``oocore.archive_parity``, hard gate — the container is
  deterministic, so this cannot depend on the runner), while actually
  exercising the external sort (≥2 spilled runs asserted: a budget that
  never spills would gate nothing), and
* the streamed build's peak traced allocation stays **≥ 2x** below the
  dense path's (``oocore.build_mem_ratio_x``, hard gate).  tracemalloc
  rather than RSS: numpy registers its data allocations with it, so the
  peak is deterministic where RSS is paging-policy noise.  The process
  RSS delta of each path is still recorded report-only.

Build wall times and the spill volume are recorded report-only —
out-of-core trades wall clock for memory by design; this bench gates
the memory, not the speed.
"""

import gc
import os
import sys
import time
import tracemalloc

import pytest

from repro.graphs.generators import power_law_graph
from repro.walks.build import build_index_archive
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import save_index

LENGTH = 10
REPLICATES = 100
CHUNK_ROWS = 1 << 15  # shared by both paths: chunking is RNG contract
MEMORY_BUDGET = 4 << 20
ENGINE = "csr"
SEED = 5
MEM_RATIO_FLOOR = 2.0


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(2_000, 20_000, seed=79)


def _rss_bytes() -> "int | None":
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _dense_path(graph, out):
    """The historical spelling: materialize, then save."""
    index = FlatWalkIndex.build(
        graph, LENGTH, REPLICATES, seed=SEED, engine=ENGINE,
        chunk_rows=CHUNK_ROWS,
    )
    save_index(index, out, graph=graph, engine=ENGINE, seed=SEED)


def _streamed_path(graph, out):
    return build_index_archive(
        graph, LENGTH, REPLICATES, out, seed=SEED,
        engine=ENGINE, chunk_rows=CHUNK_ROWS, memory_budget=MEMORY_BUDGET,
    )


def _traced(fn):
    """``(peak_traced_bytes, rss_delta_or_None, elapsed_s)`` of ``fn()``."""
    gc.collect()
    rss_before = _rss_bytes()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        fn()
    finally:
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    rss_after = _rss_bytes()
    rss_delta = None if rss_before is None else rss_after - rss_before
    return peak, rss_delta, elapsed


def test_streamed_archive_byte_parity(graph, bench_record, tmp_path):
    """Out-of-core v3 archive byte-identical to the in-memory build's."""
    index = FlatWalkIndex.build(
        graph, LENGTH, REPLICATES, seed=SEED, engine=ENGINE,
        chunk_rows=CHUNK_ROWS,
    )
    ref = save_index(
        index, tmp_path / "ref", graph=graph, engine=ENGINE, seed=SEED,
    )
    report = build_index_archive(
        graph, LENGTH, REPLICATES, tmp_path / "oo.idx3", seed=SEED,
        engine=ENGINE, chunk_rows=CHUNK_ROWS, memory_budget=MEMORY_BUDGET,
    )
    assert report.num_runs >= 2, (
        f"budget {MEMORY_BUDGET} never spilled — the parity gate "
        "would not cover the merge path"
    )
    parity = ref.read_bytes() == report.path.read_bytes()
    print(
        f"\n{report.total_entries:,} entries, "
        f"{report.num_runs} runs, {report.spilled_bytes:,} B spilled, "
        f"byte-identical={parity}"
    )
    bench_record("oocore.num_runs", report.num_runs)
    bench_record("oocore.spilled_bytes", report.spilled_bytes)
    bench_record("oocore.archive_parity", bool(parity))
    assert parity, "streamed archive differs from the in-memory build's"


def test_streamed_build_peak_memory(graph, bench_record, tmp_path):
    """Streamed build peak >= 2x below dense build-then-save peak (hard)."""
    # Warm shared caches (graph CSR, engine scratch) so neither
    # measurement pays one-time allocations the other skipped.
    _streamed_path(graph, tmp_path / "warm.idx3")

    dense_peak, dense_rss, dense_s = _traced(
        lambda: _dense_path(graph, tmp_path / "dense.idx3")
    )
    stream_peak, stream_rss, stream_s = _traced(
        lambda: _streamed_path(graph, tmp_path / "stream.idx3")
    )
    ratio = dense_peak / stream_peak
    print(
        f"\npeak traced bytes: dense {dense_peak:,}, "
        f"streamed {stream_peak:,} -> {ratio:.2f}x "
        f"(budget {MEMORY_BUDGET:,})"
    )
    print(
        f"wall: dense {dense_s:.3f} s, streamed {stream_s:.3f} s; "
        f"RSS delta: dense {dense_rss}, streamed {stream_rss}"
    )
    bench_record("oocore.dense_peak_bytes", dense_peak)
    bench_record("oocore.stream_peak_bytes", stream_peak)
    bench_record("oocore.build_mem_ratio_x", ratio)
    bench_record("oocore.build_dense_s", dense_s)
    bench_record("oocore.build_stream_s", stream_s)
    if dense_rss is not None:
        bench_record("oocore.build_dense_rss_delta_bytes", dense_rss)
        bench_record("oocore.build_stream_rss_delta_bytes", stream_rss)
    assert ratio >= MEM_RATIO_FLOOR, (
        f"streamed build peak only {ratio:.2f}x below dense "
        f"(floor {MEM_RATIO_FLOOR}x)"
    )
