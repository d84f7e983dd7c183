"""Out-of-core index construction: external sort into v3 archives (DESIGN.md §15).

An index build that holds every first-visit record at once peaks at a
multiple of the final index, so the largest graph the package could
*serve* (off a memory-mapped archive, DESIGN.md §13) would be far larger
than the largest it could *build*.  This module closes that gap by
turning the build into a streaming pipeline:

1. The walk engine yields per-chunk packed records
   (:meth:`~repro.walks.backends.WalkEngine.iter_walk_records`; one
   ``int64`` per record, :class:`~repro.walks.records.RecordPacker`: the
   canonical sort key shifted left past the hop bits), packing each
   chunk straight into the free space of the sink's one record buffer.
2. A :class:`RecordSink` consumes them.  The concrete
   :class:`ExternalSortSink` advances its fill count (or copies in a
   chunk packed elsewhere).  Without a budget the buffer holds every
   record a build can produce; with a ``memory_budget`` it is
   budget-sized, and a chunk that does not fit first spills the buffer,
   sorted in place, as one *run* to a temp file next to the target.
   Each sorted run adds its per-node offsets
   (:meth:`~repro.walks.records.RecordPacker.indptr`, one binary search
   per node) to the build's ``indptr``.
3. At finalize the filled prefix is sorted in place and adds its
   offsets too.  Without runs it
   goes to an *entry writer* as it is; otherwise the runs and the
   prefix are k-way merged into it — vectorized: emit every buffered
   record up to the smallest "last buffered record" of any run with
   unread data, refill, repeat.  Keys are globally unique, so the merged
   stream equals the in-memory sort exactly, and the in-memory path is
   the degenerate one-run case of the same pipeline (no copy of the
   records and no temp I/O at all).

Two writers close the loop, each decoding the sorted packed records
block by block straight into its state and hop columns:
:class:`DenseEntryWriter` materializes the flat arrays (what
``FlatWalkIndex.build`` uses), and the archive writer appends the columns
to staged sibling files as the merge emits them, then assembles the v3
container through the same atomic header/layout writer ``save_index``
uses.  The result is **byte-identical** to saving the in-memory build,
for every engine and any budget, while peak memory is O(budget + chunk
walks + per-node metadata) instead of O(entries).  Each stage runs under
a span of its own: ``index.build.walks`` and ``index.build.first_visit``
per chunk, ``index.build.spill`` per run, ``index.build.sort`` and
``index.build.emit`` (with ``index.build.merge`` inside it) once.
"""

from __future__ import annotations

import os
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.errors import GraphFormatError, ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.index import (
    _validate_params,
    _walk_records,
    entry_state_dtype,
)
from repro.walks.records import RecordPacker
from repro.walks.persistence import (
    FileArraySource,
    _atomic_write_v3,
    _resolve_archive_path,
    v3_index_header,
)
from repro.walks.rng import resolve_rng

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "RecordSink",
    "ExternalSortSink",
    "DenseEntryWriter",
    "BuildReport",
    "build_index_archive",
]

#: The default walk chunk granularity, shared with ``FlatWalkIndex.build``
#: and surfaced on the CLI as ``--chunk-rows``.  Chunking is part of the
#: RNG contract (chunk c's draws precede chunk c+1's), so two builds
#: compare byte-for-byte only under the same value.
DEFAULT_CHUNK_ROWS = 1 << 19

#: Bytes per buffered or spilled record: one packed ``int64``.
_RECORD_BYTES = 8

#: Floor for the per-run merge read block, so a pathologically small
#: budget still merges in sane-sized I/O units.
_MIN_MERGE_BLOCK = 4096


class RecordSink(ABC):
    """Consumer seam for streamed first-visit record chunks.

    ``consume`` is called once per chunk of packed records the walk
    engine yields (:meth:`consume_all` feeds a whole stream of
    :func:`~repro.walks.records.first_visit_records` pairs);
    ``finalize`` drains whatever the sink retained into an entry writer
    and returns the writer's result.  The seam exists so the build loop
    (walks → records) is independent of what happens to the records —
    today one implementation (the external sorter), but the shape admits
    others (direct aggregators, samplers) without touching the engines.
    """

    @abstractmethod
    def consume(self, packed: np.ndarray) -> None:
        """Absorb one chunk of packed records."""

    def consume_all(self, chunks) -> None:
        """:meth:`consume` the packed records of every ``(packed,
        hop_counts)`` chunk of a stream.

        A loop in the caller would keep the last chunk referenced
        through ``finalize``'s sort; here it dies with this frame.
        """
        for packed, _ in chunks:
            self.consume(packed)
            # Unbound before the next chunk is walked, not after.
            del packed

    @abstractmethod
    def finalize(self, writer: "EntryWriter"):
        """Drain into ``writer`` and return ``writer.finalize()``."""

    def close(self) -> None:
        """Release temp resources; idempotent, safe after errors."""

    def __enter__(self) -> "RecordSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EntryWriter(ABC):
    """Receiver of the merged, canonically ordered record stream.

    ``begin`` is called once with the full per-node layout (known once
    every run is sorted — the sink adds up each sorted run's offsets)
    and the sink's :class:`~repro.walks.records.RecordPacker`, then ``emit``
    receives sorted packed-record batches covering the entries exactly
    once, in canonical order, and ``finalize`` assembles the result.
    Each writer decodes the records itself, block by block, straight
    into its state and hop columns
    (:meth:`~repro.walks.records.RecordPacker.decode_into`).  ``abort``
    must release staged temp files after a failed merge; it is never
    called after a successful ``finalize``.
    """

    @abstractmethod
    def begin(self, indptr: np.ndarray, packer: RecordPacker) -> None: ...

    @abstractmethod
    def emit(self, packed: np.ndarray) -> None: ...

    @abstractmethod
    def finalize(self): ...

    def abort(self) -> None: ...


#: Records decoded per block: the two ``int64`` scratch rows stay at
#: 512 KiB each, however many records one ``emit`` call carries.
_DECODE_BLOCK = 1 << 16


def _decode_scratch(total: int) -> np.ndarray:
    """The ``(2, block)`` scratch of :meth:`RecordPacker.decode_into`."""
    return np.empty((2, min(total, _DECODE_BLOCK)), dtype=np.int64)


# ----------------------------------------------------------------------
# The external sorter
# ----------------------------------------------------------------------
class ExternalSortSink(RecordSink):
    """Bounded-memory record sorter: one record buffer, sorted runs, merge.

    Every record arrives and is buffered as one packed ``int64`` in the
    format of :attr:`packer` (a :class:`~repro.walks.records.RecordPacker`
    for walks of ``length`` hops; its range check runs before anything
    is allocated).  The sink owns one record buffer, allocated on first
    use.  Producers pack each chunk straight into its :meth:`vacant`
    space (:func:`~repro.walks.records.first_visit_records`'s ``out``),
    and ``consume`` of that slice only advances the fill count; any
    other array is copied in.

    With ``memory_budget=None`` (the default) the buffer holds
    :attr:`capacity` records — the most a build can produce, since a
    walk has at most one first visit per hop and per node other than
    its start — so nothing ever spills: pages never written never become
    resident, and ``finalize`` sorts the filled prefix in place and
    emits it — no copy and no temp I/O (the degenerate one-run case).
    With a budget, the buffer holds ``budget // 8`` records; a chunk
    that does not fit the vacant space first spills the buffer (sorted
    in place) as a run file of packed records in ``spill_dir`` (the
    archive's directory on the archive path, the system temp dir
    otherwise), and a chunk larger than the whole buffer is sorted and
    spilled straight from its own array.  ``finalize`` then streams the
    k-way merge of all runs — plus the buffered tail, sorted in place as
    one more run — into the writer.  Run files are deleted on every exit
    path.  More than :attr:`capacity` records raise
    :class:`~repro.errors.ParameterError`.

    Per-node metadata stays in memory — the O(metadata) term of the
    build's footprint: each run, once sorted, adds its offsets
    (:meth:`~repro.walks.records.RecordPacker.indptr`) to the build's
    ``indptr``, so nothing upstream counts records per node.
    """

    def __init__(
        self,
        num_nodes: int,
        num_replicates: int,
        length: int,
        memory_budget: "int | None" = None,
        spill_dir: "str | Path | None" = None,
    ):
        self.packer = RecordPacker(num_nodes, num_replicates, length)
        if memory_budget is not None and memory_budget <= 0:
            raise ParameterError("memory_budget must be a positive byte count")
        self._num_nodes = int(num_nodes)
        self._budget = None if memory_budget is None else int(memory_budget)
        self._spill_dir = (
            Path(spill_dir) if spill_dir is not None
            else Path(tempfile.gettempdir())
        )
        #: The most records a build of ``n R`` walks of ``L`` hops holds.
        self.capacity = self.packer.num_states * min(
            self.packer.length, max(self._num_nodes - 1, 0)
        )
        self._buffer_size = (
            self.capacity if self._budget is None
            else min(self.capacity, self._budget // _RECORD_BYTES)
        )
        self._buffer: "np.ndarray | None" = None
        self._filled = 0
        self._indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
        self._runs: "list[tuple[Path, int]]" = []
        self._readers: "list[_FileRun]" = []
        self.total_records = 0
        self.spilled_bytes = 0

    @property
    def spill_runs(self) -> int:
        """Runs spilled to disk so far (0 on the in-memory fast path)."""
        return len(self._runs)

    @property
    def buffered(self) -> int:
        """Records held in the buffer, not yet spilled."""
        return self._filled

    # ------------------------------------------------------------------
    def _records(self) -> np.ndarray:
        if self._buffer is None:
            self._buffer = np.empty(self._buffer_size, dtype=np.int64)
        return self._buffer

    def vacant(self) -> np.ndarray:
        """The buffer's unfilled tail, for a producer to pack into."""
        return self._records()[self._filled :]

    def _is_vacant_prefix(self, packed: np.ndarray) -> bool:
        """Whether ``packed`` was packed in place, at the fill point."""
        buffer = self._buffer
        return (
            buffer is not None
            and packed.base is buffer
            and packed.__array_interface__["data"][0]
            == buffer.__array_interface__["data"][0]
            + self._filled * _RECORD_BYTES
        )

    def consume(self, packed) -> None:
        """Take ``packed`` into the buffer (the sink owns it from here: an
        array too large for the buffer is sorted in place and spilled)."""
        size = int(packed.size)
        if size == 0:
            return
        if self.total_records + size > self.capacity:
            raise ParameterError(
                f"more than n R min(L, n - 1) = {self.capacity} records: "
                "a walk has at most one first visit per hop and per node "
                "other than its start"
            )
        self.total_records += size
        if self._is_vacant_prefix(packed):
            self._filled += size
            return
        buffer = self._records()
        if size > buffer.size - self._filled:
            self._spill()
            if size > buffer.size:
                self._write_run(packed)
                return
        buffer[self._filled : self._filled + size] = packed
        self._filled += size

    def _spill(self) -> None:
        """Sort the buffered records in place and spill them as one run."""
        if self._filled:
            self._write_run(self._buffer[: self._filled])
            self._filled = 0

    def _write_run(self, packed: np.ndarray) -> None:
        records = int(packed.size)
        with obs.span(
            "index.build.spill", run=len(self._runs) + 1, records=records
        ):
            # Keys are globally unique (states are unique within a hit
            # block), so the sorted values — hence every downstream byte
            # — are independent of the sort algorithm and of how records
            # were partitioned into chunks or runs.
            packed.sort()
            self._indptr += self.packer.indptr(packed)
            fd, name = tempfile.mkstemp(
                dir=self._spill_dir, prefix=".rwidx-run-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    packed.tofile(fh)
            except BaseException:
                os.unlink(name)
                raise
            self._runs.append((Path(name), records))
            self.spilled_bytes += packed.nbytes
        if obs.enabled():
            obs.inc(
                "index_build_runs_total",
                help="External-sort runs spilled by index builds.",
            )
            obs.inc(
                "index_build_spill_bytes_total",
                packed.nbytes,
                help="Bytes of sorted runs spilled by index builds.",
            )

    # ------------------------------------------------------------------
    def finalize(self, writer: EntryWriter):
        try:
            tail = self._buffer[: self._filled] if self._filled else None
            with obs.span("index.build.sort", records=self._filled):
                if tail is not None:
                    tail.sort()
                    self._indptr += self.packer.indptr(tail)
            writer.begin(self._indptr, self.packer)
            with obs.span("index.build.emit", runs=len(self._runs)):
                if not self._runs:
                    # Single-run fast path: the whole record set is in
                    # the buffer; one sort, one emit, zero temp I/O.
                    if tail is not None:
                        writer.emit(tail)
                else:
                    self._merge_into(writer, tail)
            # The records are all emitted: release the buffer before the
            # writer assembles its result.
            tail = self._buffer = None
            result = writer.finalize()
        except BaseException:
            writer.abort()
            raise
        finally:
            self.close()
        return result

    def _merge_into(self, writer: EntryWriter, tail) -> None:
        runs: list = [self._open_run(path, total) for path, total in self._runs]
        if tail is not None:
            runs.append(_ArrayRun(tail))
        # Half the budget for the runs' read blocks, half for the merged
        # batch that each round emits (at most what the blocks held).
        block = max(
            _MIN_MERGE_BLOCK, self._budget // (2 * _RECORD_BYTES * len(runs))
        )
        with obs.span("index.build.merge", runs=len(runs)):
            for packed in _merge_sorted_runs(runs, block):
                writer.emit(packed)

    def _open_run(self, path: Path, total: int) -> "_FileRun":
        reader = _FileRun(path, total)
        self._readers.append(reader)
        return reader

    def close(self) -> None:
        for reader in self._readers:
            reader.close()
        self._readers.clear()
        for path, _ in self._runs:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._runs.clear()
        self._buffer = None
        self._filled = 0


class _FileRun:
    """Sequential reader over one spilled run file of packed records."""

    def __init__(self, path: Path, total: int):
        self._path = path
        self._fh = open(path, "rb")
        self.remaining = int(total)

    def read(self, count: int) -> np.ndarray:
        count = min(int(count), self.remaining)
        packed = np.fromfile(self._fh, dtype=np.int64, count=count)
        if packed.size != count:
            raise GraphFormatError(
                f"{self._path}: spilled run truncated "
                f"(wanted {count} records, read {packed.size})"
            )
        self.remaining -= count
        return packed

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _ArrayRun:
    """The sorted in-memory tail, served through the run-reader protocol."""

    def __init__(self, packed: np.ndarray):
        self._packed = packed
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._packed.size - self._pos

    def read(self, count: int) -> np.ndarray:
        lo = self._pos
        hi = min(lo + int(count), self._packed.size)
        self._pos = hi
        return self._packed[lo:hi]

    def close(self) -> None:  # pragma: no cover - protocol symmetry
        pass


def _merge_sorted_runs(runs: list, block_records: int) -> "Iterator[np.ndarray]":
    """Vectorized k-way merge of sorted packed runs, yielding sorted batches.

    Each round computes the *safe boundary* — the smallest last-buffered
    record among runs that still have unread records; everything unread
    is strictly greater (runs are sorted, keys globally unique) — emits
    the ``<= boundary`` prefix of every buffer in one concatenate + sort,
    and refills drained buffers.  No per-record Python loop, and each
    emitted batch is bounded by the total buffered footprint (~the sort
    budget).  When every run is fully buffered the boundary vanishes and
    the remainder flushes in one batch.
    """
    buffers = []
    for run in runs:
        packed = run.read(block_records)
        if packed.size:
            buffers.append((packed, run))
    while buffers:
        capped = [b for b in buffers if b[1].remaining > 0]
        boundary = min(int(b[0][-1]) for b in capped) if capped else None
        parts: list[np.ndarray] = []
        next_buffers = []
        for packed, run in buffers:
            take = (
                packed.size if boundary is None
                else int(np.searchsorted(packed, boundary, side="right"))
            )
            if take:
                parts.append(packed[:take])
                packed = packed[take:]
            if packed.size == 0 and run.remaining > 0:
                packed = run.read(block_records)
            if packed.size:
                next_buffers.append((packed, run))
        buffers = next_buffers
        if parts:
            merged = np.concatenate(parts)
            merged.sort()
            yield merged


# ----------------------------------------------------------------------
# Entry writers
# ----------------------------------------------------------------------
class DenseEntryWriter(EntryWriter):
    """Materialize the flat entry arrays — ``FlatWalkIndex.build``'s sink."""

    def __init__(self, num_nodes: int, num_replicates: int):
        self._state_dtype = entry_state_dtype(num_nodes, num_replicates)

    def begin(self, indptr, packer) -> None:
        self._indptr = indptr
        self._packer = packer
        total = int(indptr[-1])
        self._state = np.empty(total, dtype=self._state_dtype)
        self._hop = np.empty(total, dtype=np.int16)
        self._scratch = _decode_scratch(total)
        self._pos = 0

    def emit(self, packed) -> None:
        for lo in range(0, packed.size, _DECODE_BLOCK):
            block = packed[lo : lo + _DECODE_BLOCK]
            at, self._pos = self._pos, self._pos + block.size
            self._packer.decode_into(
                block, self._state[at : self._pos],
                self._hop[at : self._pos], self._scratch,
            )

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._indptr, self._state, self._hop


class _MmapArchiveWriter(EntryWriter):
    """Stream the entry columns into a v3 archive (``encoding="dense"``).

    Entries arrive in canonical order, so each block's decoded state and
    hop columns are appended (``tofile``) to staged sibling temp files
    as-is and concatenate to exactly the arrays ``save_index`` would
    write; O(n) metadata and one decode block stay in memory.
    ``finalize`` builds the exact header ``save_index`` would and hands
    the staged files to the shared v3 serializer as
    :class:`FileArraySource`\\ s — one streamed copy into an atomic temp,
    then ``os.replace``, so a crash anywhere leaves any prior archive
    untouched and ``abort``/cleanup removes every staged temp.
    """

    def __init__(
        self, out: Path, header: dict, num_nodes: int, num_replicates: int
    ):
        self._out = out
        self._header = header
        self._staged: "dict[str, tuple[object, Path]]" = {}
        self._state_dtype = entry_state_dtype(num_nodes, num_replicates)

    def _stage(self, label: str):
        fd, name = tempfile.mkstemp(
            dir=self._out.parent,
            prefix=f".{self._out.name}-{label}-",
            suffix=".tmp",
        )
        fh = os.fdopen(fd, "wb")
        self._staged[label] = (fh, Path(name))
        return fh

    def _staged_source(self, label: str, dtype, shape) -> FileArraySource:
        fh, path = self._staged[label]
        fh.close()
        return FileArraySource(path, dtype, shape)

    def _cleanup(self) -> None:
        for fh, path in self._staged.values():
            try:
                fh.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._staged.clear()

    def abort(self) -> None:
        self._cleanup()

    def begin(self, indptr, packer) -> None:
        self._indptr = indptr
        self._packer = packer
        self._total = int(indptr[-1])
        self._scratch = _decode_scratch(self._total)
        block = self._scratch.shape[1]
        self._state = np.empty(block, dtype=self._state_dtype)
        self._hop = np.empty(block, dtype=np.int16)
        self._state_f = self._stage("state")
        self._hop_f = self._stage("hop")

    def emit(self, packed) -> None:
        for lo in range(0, packed.size, _DECODE_BLOCK):
            block = packed[lo : lo + _DECODE_BLOCK]
            size = block.size
            self._packer.decode_into(
                block, self._state[:size], self._hop[:size], self._scratch
            )
            self._state[:size].tofile(self._state_f)
            self._hop[:size].tofile(self._hop_f)

    def finalize(self) -> Path:
        self._header["state_dtype"] = self._state_dtype.str
        arrays: dict = {
            "indptr": self._indptr,
            "state": self._staged_source(
                "state", self._state_dtype, (self._total,)
            ),
            "hop": self._staged_source("hop", np.int16, (self._total,)),
        }
        try:
            _atomic_write_v3(self._out, self._header, arrays)
        finally:
            self._cleanup()
        return self._out


# ----------------------------------------------------------------------
# The archive build entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BuildReport:
    """What :func:`build_index_archive` did: where, how much, how spilled."""

    path: Path
    total_entries: int
    num_runs: int
    spilled_bytes: int


def build_index_archive(
    graph: Graph,
    length: int,
    num_replicates: int,
    out: "str | Path",
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    memory_budget: "int | None" = None,
    spill_dir: "str | Path | None" = None,
) -> BuildReport:
    """Build a walk-index archive without materializing the index.

    The streaming composition of ``FlatWalkIndex.build`` +
    ``save_index``: walk chunks stream through the external sorter
    straight into an incremental v3 writer, so peak memory is
    O(``memory_budget`` + one chunk's walks + per-node metadata) while
    the archive bytes are **identical** to saving the in-memory build of
    the same ``(seed, chunk_rows, engine)``.  Run files and staged
    arrays live next to the target and are removed on every exit path;
    the final rename is atomic, so a crash mid-build leaves any existing
    archive at ``out`` intact.
    """
    n = graph.num_nodes
    _validate_params(n, length, num_replicates)
    walk_engine = get_engine(engine)
    engine_meta = engine if isinstance(engine, str) else (
        engine.name if isinstance(engine, WalkEngine) else None
    )
    rng = resolve_rng(seed)
    out = _resolve_archive_path(out)
    with obs.span(
        "index.build", engine=walk_engine.name, num_nodes=n,
        length=length, num_replicates=num_replicates,
    ):
        with ExternalSortSink(
            n, num_replicates, length, memory_budget=memory_budget,
            spill_dir=out.parent if spill_dir is None else spill_dir,
        ) as sink:
            sink.consume_all(_walk_records(
                walk_engine, graph, length, num_replicates, sink, rng,
                chunk_rows,
            ))
            num_runs = sink.spill_runs + (1 if sink.buffered else 0)
            header = v3_index_header(
                n, length, num_replicates, encoding="dense",
                engine=engine_meta, seed=seed, graph=graph,
            )
            written = sink.finalize(
                _MmapArchiveWriter(out, header, n, num_replicates)
            )
            report = BuildReport(
                path=written,
                total_entries=sink.total_records,
                num_runs=num_runs,
                spilled_bytes=sink.spilled_bytes,
            )
    if obs.enabled():
        obs.inc(
            "index_builds_total",
            help="Flat walk-index builds.",
            engine=walk_engine.name,
        )
        obs.inc(
            "index_entries_total",
            report.total_entries,
            help="Index entries produced by builds.",
        )
    return report
