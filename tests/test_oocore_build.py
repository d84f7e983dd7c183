"""The out-of-core build pipeline (repro.walks.build, DESIGN.md §15).

The load-bearing claim is *byte-identity*: for every engine and memory
budget, `build_index_archive` writes the same bytes `save_index` writes
for the in-memory build — so these tests compare whole files, not
decoded arrays (the v3 container carries no timestamp).  The rest covers
the pipeline's edges: the single-run fast path, run boundaries splitting
one hit node's block, empty inputs, crash-mid-merge atomicity, and
temp-file hygiene.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph, ring_graph, star_graph
from repro.walks.build import (
    DenseEntryWriter,
    ExternalSortSink,
    build_index_archive,
)
from repro.walks.backends import get_engine
from repro.walks.index import (
    FlatWalkIndex,
    _walker_major_states,
    walker_major_starts,
)
from repro.walks.records import (
    MAX_WALK_LENGTH,
    RecordPacker,
    first_visit_records,
)
from repro.walks.persistence import load_index, save_index


def _reference_archive(tmp_path, graph, length, reps, seed, chunk_rows,
                       engine=None, name="ref"):
    index = FlatWalkIndex.build(
        graph, length, reps, seed=seed, engine=engine, chunk_rows=chunk_rows
    )
    path = tmp_path / f"{name}.idx3"
    save_index(index, path, graph=graph, engine=engine, seed=seed)
    return path


class TestByteParity:
    @pytest.mark.parametrize("engine", ["numpy", "csr"])
    def test_every_engine(self, tmp_path, engine):
        graph = power_law_graph(120, 700, seed=9)
        ref = _reference_archive(
            tmp_path, graph, 6, 8, seed=3, chunk_rows=128, engine=engine
        )
        for budget in (None, 4096):
            out = tmp_path / f"oo-{budget}.idx3"
            report = build_index_archive(
                graph, 6, 8, out, seed=3, engine=engine,
                chunk_rows=128, memory_budget=budget,
            )
            assert out.read_bytes() == ref.read_bytes()
            if budget is not None:
                assert report.num_runs > 1
                assert report.spilled_bytes > 0

    def test_loaded_archive_serves_same_entries(self, tmp_path):
        graph = power_law_graph(80, 400, seed=8)
        index = FlatWalkIndex.build(graph, 5, 10, seed=9, chunk_rows=100)
        out = tmp_path / "oo.idx3"
        build_index_archive(
            graph, 5, 10, out, seed=9, chunk_rows=100, memory_budget=4096,
        )
        back = load_index(out, graph=graph)
        for node in range(0, 80, 13):
            s_ref, h_ref = index.entries_for(node)
            s_oo, h_oo = back.entries_for(node)
            np.testing.assert_array_equal(np.asarray(s_oo), np.asarray(s_ref))
            np.testing.assert_array_equal(np.asarray(h_oo), np.asarray(h_ref))


class TestEdgeCases:
    def test_single_run_fast_path(self, tmp_path):
        graph = ring_graph(40)
        out = tmp_path / "oo.idx3"
        report = build_index_archive(
            graph, 4, 3, out, seed=1, memory_budget=1 << 24,
        )
        assert report.num_runs == 1
        assert report.spilled_bytes == 0
        # Nothing but the archive in the directory: no run or staging
        # temps survive the fast path either.
        assert [p.name for p in tmp_path.iterdir()] == ["oo.idx3"]

    def test_zero_length_walks(self, tmp_path):
        # L=0: every walk is just its start, no first visits, no records.
        graph = ring_graph(12)
        ref = _reference_archive(tmp_path, graph, 0, 2, seed=1, chunk_rows=8)
        out = tmp_path / "oo.idx3"
        report = build_index_archive(
            graph, 0, 2, out, seed=1, chunk_rows=8, memory_budget=64,
        )
        assert report.total_entries == 0
        assert out.read_bytes() == ref.read_bytes()
        back = load_index(out, graph=graph)
        assert back.total_entries == 0

    def test_run_boundary_splits_hub_block(self, tmp_path):
        # A star graph concentrates almost all records on the hub, so a
        # tiny budget is guaranteed to split the hub's block across many
        # runs — the merge must reassemble it.
        graph = star_graph(30)
        ref = _reference_archive(tmp_path, graph, 4, 8, seed=2, chunk_rows=16)
        out = tmp_path / "oo.idx3"
        report = build_index_archive(
            graph, 4, 8, out, seed=2, chunk_rows=16, memory_budget=256,
        )
        assert report.num_runs > 2
        assert out.read_bytes() == ref.read_bytes()

    def test_crash_mid_merge_keeps_prior_archive_and_cleans_temps(
        self, tmp_path, monkeypatch
    ):
        graph = power_law_graph(60, 300, seed=3)
        out = tmp_path / "oo.idx3"
        build_index_archive(graph, 5, 4, out, seed=5)
        good = out.read_bytes()

        from repro.walks import build as build_mod

        def boom(self, packed):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(build_mod._MmapArchiveWriter, "emit", boom)
        with pytest.raises(RuntimeError, match="disk on fire"):
            build_index_archive(
                graph, 5, 4, out, seed=5, memory_budget=1024,
            )
        assert out.read_bytes() == good  # prior archive untouched
        assert [p.name for p in tmp_path.iterdir()] == ["oo.idx3"]

    def test_invalid_budget_and_chunk_rows(self, tmp_path):
        graph = ring_graph(8)
        with pytest.raises(ParameterError):
            build_index_archive(
                graph, 3, 2, tmp_path / "x.idx3", memory_budget=0
            )
        with pytest.raises(ParameterError):
            build_index_archive(
                graph, 3, 2, tmp_path / "x.idx3", chunk_rows=0
            )

    def test_truncated_run_file_fails_loudly(self, tmp_path):
        # A spilled run that lost bytes (torn write, full disk) must
        # raise, not silently build a short archive.
        from repro.errors import GraphFormatError
        from repro.walks.build import _FileRun

        run = tmp_path / "run.tmp"
        run.write_bytes(b"\x00" * 12)  # 1.5 packed 8-byte records
        reader = _FileRun(run, total=2)
        with pytest.raises(GraphFormatError, match="truncated"):
            reader.read(2)
        reader.close()


def _chunk(sink, hits, states, hops):
    """One ``consume`` chunk from record triples: the packed records
    ``first_visit_records`` returns, made by ``RecordPacker.pack``."""
    return sink.packer.pack(hits, states, hops)


class TestSinkSeam:
    def test_sink_counts_and_dense_writer_roundtrip(self):
        sink = ExternalSortSink(5, 2, 4)
        sink.consume(_chunk(
            sink, np.array([3, 1, 3]), np.array([9, 0, 2]),
            np.array([2, 1, 1]),
        ))
        sink.consume(_chunk(
            sink, np.array([0]), np.array([7]), np.array([4])
        ))
        assert sink.total_records == 4
        indptr, state, hop = sink.finalize(DenseEntryWriter(5, 2))
        np.testing.assert_array_equal(indptr, [0, 1, 2, 2, 4, 4])
        np.testing.assert_array_equal(state, [7, 0, 2, 9])
        np.testing.assert_array_equal(hop, [4, 1, 1, 2])
        assert state.dtype == np.int32 and hop.dtype == np.int16

    def test_spill_dir_is_honored(self, tmp_path):
        spills = tmp_path / "spills"
        spills.mkdir()
        seen = []
        real_unlink = os.unlink

        def spy(path, *a, **kw):
            seen.append(str(path))
            return real_unlink(path, *a, **kw)

        sink = ExternalSortSink(
            50, 2, 1, memory_budget=64, spill_dir=spills
        )
        rng = np.random.default_rng(0)
        hits = rng.integers(0, 50, size=40)
        states = np.arange(40)
        sink.consume(_chunk(sink, hits, states, np.ones(40, dtype=np.int64)))
        assert sink.spill_runs >= 1
        assert any(p.name.startswith(".rwidx-run-") for p in spills.iterdir())
        sink.close()
        assert list(spills.iterdir()) == []


def _random_records(rng, num_nodes, reps, length, size, dtype):
    """``size`` unique ``(hit, state)`` records, hops in ``[1, L]``
    including both 1 and ``L``."""
    num_states = num_nodes * reps
    pairs = rng.choice(num_nodes * num_states, size=size, replace=False)
    hits, states = np.divmod(pairs, num_states)
    hops = rng.integers(1, length + 1, size=size)
    hops[: min(size, 1)] = 1
    hops[size - min(size, 1) :] = length
    return hits.astype(dtype), states.astype(dtype), hops.astype(dtype)


def _lexsort_reference(hits, states, hops, num_nodes):
    order = np.lexsort((states, hits))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(hits, minlength=num_nodes), out=indptr[1:])
    return indptr, states[order], hops[order]


def _assemble(path, hits, states, hops, num_nodes, reps, length, spill_dir):
    """Canonical ``(indptr, state, hop)`` through one assembler."""
    if path == "from_records":
        flat = FlatWalkIndex._from_records(
            hits, states, hops, num_nodes=num_nodes, length=length,
            num_replicates=reps,
        )
        return flat.indptr, flat.state, flat.hop
    step = max(1, -(-hits.size // 6))  # ~6 consume calls
    budget = None if path == "memory" else 8 * max(1, hits.size * 3 // 8)
    sink = ExternalSortSink(
        num_nodes, reps, length, memory_budget=budget, spill_dir=spill_dir
    )
    for lo in range(0, hits.size, step):
        sl = slice(lo, lo + step)
        sink.consume(_chunk(sink, hits[sl], states[sl], hops[sl]))
    if path == "spill" and hits.size > 5:
        assert sink.spill_runs >= 2
    return sink.finalize(DenseEntryWriter(num_nodes, reps))


ASSEMBLERS = ("memory", "spill", "from_records")


class TestPackedRecords:
    """The packed ``key << b | hop`` format, through every assembler."""

    @pytest.mark.parametrize("path", ASSEMBLERS)
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "length", [0, 1, 2, 3, 4, 7, 8, 15, 16, MAX_WALK_LENGTH]
    )
    def test_matches_lexsort_reference(self, tmp_path, path, dtype, length):
        # Hop widths straddle every bit boundary; 12,000 records spill
        # runs longer than one merge read block, so the merge takes
        # several boundary rounds.
        rng = np.random.default_rng(length)
        # R=40: the sink holds at most n R min(L, n - 1) records, and
        # 12,000 records at L=1 need R >= 40.
        num_nodes, reps = 300, 40
        for size in ([0] if length == 0 else [0, 1, 57, 12_000]):
            hits, states, hops = _random_records(
                rng, num_nodes, reps, length, size, dtype
            )
            indptr, state, hop = _assemble(
                path, hits, states, hops, num_nodes, reps, length, tmp_path
            )
            want = _lexsort_reference(hits, states, hops, num_nodes)
            np.testing.assert_array_equal(indptr, want[0])
            np.testing.assert_array_equal(state, want[1])
            np.testing.assert_array_equal(hop, want[2])
            assert state.dtype == np.int32 and hop.dtype == np.int16
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("path", ASSEMBLERS)
    def test_int32_records_past_int32_keys(self, tmp_path, path):
        # hit * n R crosses 2^31 here; int32 inputs must not wrap.
        rng = np.random.default_rng(5)
        num_nodes, reps, length = 70_000, 1, 9
        hits, states, hops = _random_records(
            rng, num_nodes, reps, length, 3_000, np.int32
        )
        got = _assemble(
            path, hits, states, hops, num_nodes, reps, length, tmp_path
        )
        want = _lexsort_reference(hits, states, hops, num_nodes)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_spilled_runs_hold_eight_bytes_per_record(self, tmp_path):
        rng = np.random.default_rng(3)
        hits, states, hops = _random_records(rng, 100, 2, 3, 100, np.int64)
        # 10 records = 80 B > 79 B: every consume spills its chunk.
        sink = ExternalSortSink(100, 2, 3, memory_budget=79,
                                spill_dir=tmp_path)
        for lo in range(0, 100, 10):
            sink.consume(_chunk(sink, hits[lo:lo + 10], states[lo:lo + 10],
                                 hops[lo:lo + 10]))
        assert sink.spill_runs == 10
        assert sink.spilled_bytes == 8 * 100
        assert sum(p.stat().st_size for p in tmp_path.iterdir()) == 800
        indptr, state, hop = sink.finalize(DenseEntryWriter(100, 2))
        want = _lexsort_reference(hits, states, hops, 100)
        np.testing.assert_array_equal(state, want[1])
        np.testing.assert_array_equal(hop, want[2])

    def test_range_check_raises_before_allocating(self):
        # n * n R = 10^19 > 2^63: refused before the n-sized counts
        # array (800 MB here) is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(
                ParameterError, match=r"n=100000000, R=1000, L=10\b"
            ):
                ExternalSortSink(10**8, 10**3, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_range_check_bound_is_exact(self):
        # n * n R * 2^15 == 2^63 exactly: the largest packed record is
        # the int64 maximum and still round-trips.
        n, reps = 1 << 20, 1 << 8
        packer = RecordPacker(n, reps, MAX_WALK_LENGTH)
        top = packer.pack(
            np.array([n - 1]), np.array([n * reps - 1]),
            np.array([MAX_WALK_LENGTH]),
        )
        assert top[0] == np.iinfo(np.int64).max
        keys, hops = packer.decode(top)
        assert keys[0] == (n - 1) * n * reps + n * reps - 1
        assert hops[0] == MAX_WALK_LENGTH
        ExternalSortSink(n, reps, MAX_WALK_LENGTH).close()
        with pytest.raises(ParameterError, match="R=257"):
            ExternalSortSink(n, 257, MAX_WALK_LENGTH)
        # The paper's largest instance fits at every valid length.
        RecordPacker(10**6, 100, MAX_WALK_LENGTH)

    def test_hop_outside_length_raises(self):
        packer = RecordPacker(5, 2, 3)
        for bad in (4, -1):
            with pytest.raises(ParameterError, match="L=3"):
                packer.pack(np.array([1]), np.array([0]), np.array([bad]))

    def test_walks_longer_than_packer_raise(self):
        # Extraction takes hops from its loop index, so the packer's L
        # bounds the walks themselves.
        packer = RecordPacker(5, 2, 3)
        walks = np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0]], dtype=np.int32)
        with pytest.raises(ParameterError, match="L=3"):
            first_visit_records(walks, np.array([0, 1]), packer)
        packed, hop_counts = first_visit_records(
            walks[:, :4], np.array([0, 1]), packer
        )
        assert packed.size == 6
        np.testing.assert_array_equal(hop_counts, [2, 2, 2])


class TestRecordBuffer:
    """The sink's one record buffer: filled in place, sorted in place."""

    def test_capacity_is_one_record_per_hop_and_node(self):
        assert ExternalSortSink(5, 2, 4).capacity == 5 * 2 * 4
        # A walk on 3 nodes first-visits at most the 2 besides its start.
        assert ExternalSortSink(3, 2, 10).capacity == 3 * 2 * 2
        assert ExternalSortSink(4, 3, 0).capacity == 0

    def test_consume_past_capacity_raises(self):
        sink = ExternalSortSink(5, 2, 1)
        hits = np.arange(10) % 5
        sink.consume(_chunk(sink, hits, np.arange(10), np.ones(10, int)))
        assert sink.total_records == sink.capacity == 10
        with pytest.raises(ParameterError, match="= 10 records"):
            sink.consume(_chunk(sink, np.array([0]), np.array([9]),
                                 np.array([1])))
        assert sink.total_records == 10
        sink.close()

    def test_in_memory_finalize_emits_the_producers_buffer(self):
        graph = power_law_graph(30, 90, seed=4)
        n, reps, length = 30, 3, 5
        walks = get_engine("numpy").batch_walks(
            graph, walker_major_starts(n, reps), length, seed=8
        )
        sink = ExternalSortSink(n, reps, length)
        packed, _ = first_visit_records(
            walks, _walker_major_states(n, reps), sink.packer,
            out=sink.vacant(),
        )
        sink.consume(packed)
        assert sink.buffered == packed.size
        emitted = []

        class Spy(DenseEntryWriter):
            def emit(self, records):
                emitted.append(records)
                super().emit(records)

        indptr, state, hop = sink.finalize(Spy(n, reps))
        (batch,) = emitted
        assert batch.size == packed.size
        assert np.shares_memory(batch, packed)
        ref = FlatWalkIndex.from_walks(walks, n, reps)
        np.testing.assert_array_equal(indptr, ref.indptr)
        np.testing.assert_array_equal(state, ref.state)
        np.testing.assert_array_equal(hop, ref.hop)

    def test_other_arrays_are_copied_in(self):
        sink = ExternalSortSink(5, 2, 4)
        chunk = _chunk(
            sink, np.array([3, 1]), np.array([9, 0]), np.array([2, 1])
        )
        before = chunk.copy()
        sink.consume(chunk)
        assert sink.buffered == 2
        np.testing.assert_array_equal(chunk, before)  # not sorted in place
        sink.close()

    def test_chunk_larger_than_budget_buffer_spills_straight(self, tmp_path):
        # 79 B holds 9 records; the 10-record chunk goes to disk from its
        # own array, sorted in place, and the buffer stays empty.
        rng = np.random.default_rng(3)
        hits, states, hops = _random_records(rng, 100, 2, 3, 10, np.int64)
        sink = ExternalSortSink(100, 2, 3, memory_budget=79,
                                spill_dir=tmp_path)
        chunk = _chunk(sink, hits, states, hops)
        sink.consume(chunk)
        assert sink.spill_runs == 1 and sink.buffered == 0
        assert np.all(np.diff(chunk) > 0)
        (run,) = tmp_path.iterdir()
        np.testing.assert_array_equal(np.fromfile(run, dtype=np.int64), chunk)
        sink.close()

    def test_budget_buffer_spills_before_a_chunk_that_does_not_fit(
        self, tmp_path
    ):
        sink = ExternalSortSink(100, 2, 3, memory_budget=8 * 8,
                                spill_dir=tmp_path)
        rng = np.random.default_rng(7)
        hits, states, hops = _random_records(rng, 100, 2, 3, 12, np.int64)
        sink.consume(_chunk(sink, hits[:6], states[:6], hops[:6]))
        assert sink.spill_runs == 0 and sink.buffered == 6
        sink.consume(_chunk(sink, hits[6:], states[6:], hops[6:]))
        assert sink.spill_runs == 1 and sink.buffered == 6
        indptr, state, hop = sink.finalize(DenseEntryWriter(100, 2))
        want = _lexsort_reference(hits, states, hops, 100)
        np.testing.assert_array_equal(state, want[1])
        np.testing.assert_array_equal(hop, want[2])


class TestCli:
    def test_index_with_budget_matches_plain_index(self, tmp_path, capsys):
        ref = tmp_path / "ref.idx3"
        oo = tmp_path / "oo.idx3"
        base = [
            "index", "--synthetic", "80,300", "-L", "4", "-R", "5",
            "--seed", "11", "--chunk-rows", "64",
        ]
        assert main(base + ["--out", str(ref)]) == 0
        assert main(
            base + ["--out", str(oo), "--build-memory-budget", "2048"]
        ) == 0
        assert oo.read_bytes() == ref.read_bytes()
        assert "sort runs" in capsys.readouterr().out

    def test_select_consumes_streamed_archive(self, tmp_path, capsys):
        out = tmp_path / "oo.idx3"
        assert main([
            "index", "--synthetic", "80,300", "-L", "4", "-R", "5",
            "--seed", "11",
            "--out", str(out), "--build-memory-budget", "4096",
        ]) == 0
        capsys.readouterr()
        assert main([
            "select", "--synthetic", "80,300", "-k", "3", "--seed", "11",
            "--index", str(out),
        ]) == 0
        assert "selected" in capsys.readouterr().out
