"""Out-of-core index construction: external sort into v3 archives (DESIGN.md §15).

An index build that holds every first-visit record at once peaks at a
multiple of the final index, so the largest graph the package could
*serve* (off a memory-mapped archive, DESIGN.md §13) would be far larger
than the largest it could *build*.  This module closes that gap by
turning the build into a streaming pipeline:

1. The walk engine yields per-chunk packed records and per-node counts
   (:meth:`~repro.walks.backends.WalkEngine.iter_walk_records`; one
   ``int64`` per record, :class:`~repro.walks.records.RecordPacker`: the
   canonical sort key shifted left past the hop bits).
2. A :class:`RecordSink` consumes them.  The concrete
   :class:`ExternalSortSink` appends the records to its buffer and adds
   the counts; when a ``memory_budget`` is set and the buffer exceeds
   it, the buffer is sorted in place and spilled as one *run* to a temp
   file next to the target.
3. At finalize the runs are k-way merged — vectorized: emit every
   buffered record up to the smallest "last buffered record" of any run
   with unread data, refill, repeat — into an *entry writer*.  Keys are
   globally unique, so the merged stream equals the in-memory sort
   exactly, and the in-memory path is the degenerate one-run case of the
   same pipeline (no temp I/O at all).

Two writers close the loop: :class:`DenseEntryWriter` materializes the
flat arrays (what ``FlatWalkIndex.build`` uses, any budget), and the
archive writer appends the state and hop columns to staged sibling files
as the merge emits them, then assembles the v3 container through the
same atomic header/layout writer ``save_index`` uses.  The result is
**byte-identical** to saving the in-memory build, for every engine and
any budget, while peak memory is O(budget + chunk walks + per-node
metadata) instead of O(entries).
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

    ``consume`` is called once per ``(packed, counts)`` chunk the walk
    engine yields (:meth:`consume_all` feeds a whole chunk stream);
    ``finalize`` drains whatever the sink retained into an entry writer
    and returns the writer's result.  The seam exists so the build loop
    (walks → records) is independent of what happens to the records —
    today one implementation (the external sorter), but the shape admits
    others (direct aggregators, samplers) without touching the engines.
    """

    @abstractmethod
    def consume(self, packed: np.ndarray, counts: np.ndarray) -> None:
        """Absorb one chunk: packed records and their per-node counts."""

    def consume_all(self, chunks) -> None:
        """:meth:`consume` every ``(packed, counts)`` chunk of a stream.

        A loop in the caller would keep the last chunk referenced
        through ``finalize``'s sort; here it dies with this frame.
        """
        for packed, counts in chunks:
            self.consume(packed, counts)

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
    """Receiver of the merged, canonically ordered entry stream.

    ``begin`` is called once with the full per-node layout (counts are
    known before the merge starts — the sink sums the chunk counts),
    then ``emit`` receives sorted ``(key, hop)`` batches (``int64`` keys
    ``hit * n R + state``, ``int16`` hops) covering the entries exactly
    once, in canonical order, and ``finalize`` assembles the result.
    ``abort`` must release staged temp files after a failed merge; it is
    never called after a successful ``finalize``.
    """

    @abstractmethod
    def begin(
        self, indptr: np.ndarray, counts: np.ndarray, total: int
    ) -> None: ...

    @abstractmethod
    def emit(self, keys: np.ndarray, hops: np.ndarray) -> None: ...

    @abstractmethod
    def finalize(self): ...

    def abort(self) -> None: ...


# ----------------------------------------------------------------------
# The external sorter
# ----------------------------------------------------------------------
class ExternalSortSink(RecordSink):
    """Bounded-memory record sorter: buffer, spill sorted runs, merge.

    Every record arrives and is buffered as one packed ``int64`` in the
    format of :attr:`packer` (a :class:`~repro.walks.records.RecordPacker`
    for walks of ``length`` hops; its range check runs before anything
    is allocated), which producers pass to
    :func:`~repro.walks.records.first_visit_records`.  With
    ``memory_budget=None`` (the default) nothing ever spills and
    ``finalize`` sorts the whole buffer in place, decodes it once and
    emits it — no temp I/O (the degenerate one-run case).  With a
    budget, the buffer is capped at ``budget`` bytes at 8 bytes per
    record; overflow sorts and spills the buffer as a run file of packed
    records in ``spill_dir`` (the archive's directory on the archive
    path, the system temp dir otherwise), and ``finalize`` streams the
    k-way merge of all runs — plus the unsorted tail, sorted in place as
    one more run — into the writer.  Run files are deleted on every exit
    path.

    Per-node metadata (the summed chunk ``counts`` that become
    ``indptr``) stays in memory — the O(metadata) term of the build's
    footprint.
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
        self._counts = np.zeros(self._num_nodes, dtype=np.int64)
        self._parts: list[np.ndarray] = []
        self._buffered = 0
        self._runs: "list[tuple[Path, int]]" = []
        self._readers: "list[_FileRun]" = []
        self.total_records = 0
        self.spilled_bytes = 0

    @property
    def spill_runs(self) -> int:
        """Runs spilled to disk so far (0 on the in-memory fast path)."""
        return len(self._runs)

    # ------------------------------------------------------------------
    def consume(self, packed, counts) -> None:
        """Buffer ``packed`` (the sink owns it from here: it is sorted in
        place) and add ``counts`` to the per-node totals."""
        if packed.size == 0:
            return
        self._counts += counts
        self._parts.append(packed)
        self._buffered += int(packed.size)
        self.total_records += int(packed.size)
        if (
            self._budget is not None
            and self._buffered * _RECORD_BYTES > self._budget
        ):
            self._spill()

    def _sorted_buffer(self) -> np.ndarray:
        """The buffered packed records, sorted in place, as one array."""
        parts = self._parts
        packed = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._parts = []
        self._buffered = 0
        # Keys are globally unique (states are unique within a hit block),
        # so the sorted values — hence every downstream byte — are
        # independent of the sort algorithm and of how records were
        # partitioned into chunks or runs.
        packed.sort()
        return packed

    def _spill(self) -> None:
        records = self._buffered
        with obs.span(
            "index.build.spill", run=len(self._runs) + 1, records=records
        ):
            packed = self._sorted_buffer()
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
            indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
            np.cumsum(self._counts, out=indptr[1:])
            writer.begin(indptr, self._counts, self.total_records)
            if not self._runs:
                # Single-run fast path: the whole record set is in memory;
                # one sort, one decode, one emit, zero temp I/O.
                if self._buffered:
                    writer.emit(*self.packer.decode(self._sorted_buffer()))
            else:
                runs: list = [
                    self._open_run(path, total) for path, total in self._runs
                ]
                if self._buffered:
                    runs.append(_ArrayRun(self._sorted_buffer()))
                block = _MIN_MERGE_BLOCK
                if self._budget is not None:
                    block = max(
                        _MIN_MERGE_BLOCK,
                        self._budget // (_RECORD_BYTES * len(runs)),
                    )
                with obs.span("index.build.merge", runs=len(runs)):
                    for packed in _merge_sorted_runs(runs, block):
                        writer.emit(*self.packer.decode(packed))
            result = writer.finalize()
        except BaseException:
            writer.abort()
            raise
        finally:
            self.close()
        return result

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
        self._parts = []
        self._buffered = 0


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
    the remainder flushes in one batch.  Every batch is a fresh array
    (``np.concatenate`` always copies), so the caller may decode it in
    place without touching a run's buffer.
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
        self._num_states = num_nodes * num_replicates
        self._state_dtype = entry_state_dtype(num_nodes, num_replicates)

    def begin(self, indptr, counts, total) -> None:
        self._indptr = indptr
        self._state = np.empty(total, dtype=self._state_dtype)
        self._hop = np.empty(total, dtype=np.int16)
        self._pos = 0

    def emit(self, keys, hops) -> None:
        if keys.size == 0:
            return
        lo = self._pos
        self._pos = lo + keys.size
        # The state is the key's remainder, narrowed straight into the
        # int32/int64 column (values fit by range); the hit is implied
        # by the position, so no quotient is computed.
        np.remainder(
            keys, self._num_states, out=self._state[lo : self._pos],
            casting="unsafe",
        )
        self._hop[lo : self._pos] = hops

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._indptr, self._state, self._hop


class _MmapArchiveWriter(EntryWriter):
    """Stream the entry columns into a v3 archive (``encoding="dense"``).

    Entries arrive in canonical order, so the state and hop columns are
    appended to staged sibling temp files as-is and concatenate to
    exactly the arrays ``save_index`` would write; O(n) metadata stays
    in memory.  ``finalize`` builds the exact header ``save_index``
    would and hands the staged files to the shared v3 serializer as
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
        self._num_states = num_nodes * num_replicates
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

    def begin(self, indptr, counts, total) -> None:
        self._indptr = indptr
        self._total = total
        self._state_f = self._stage("state")
        self._hop_f = self._stage("hop")

    def emit(self, keys, hops) -> None:
        if keys.size == 0:
            return
        states = keys % self._num_states
        self._state_f.write(states.astype(self._state_dtype).tobytes())
        self._hop_f.write(
            np.ascontiguousarray(hops, dtype=np.int16).tobytes()
        )

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
                walk_engine, graph, length, num_replicates, sink.packer,
                rng, chunk_rows,
            ))
            num_runs = sink.spill_runs + (1 if sink._buffered else 0)
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
