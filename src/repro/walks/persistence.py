"""Walk-index persistence.

Building the inverted walk index (Algorithm 3) is the dominant cost of the
approximate greedy solvers; everything after it is sub-second.  Persisting
the index lets operational workflows — parameter sweeps over ``k``,
re-ranking after a business-rule change, the paper's own Figs. 6-7 protocol
of reading one greedy run at several budgets — pay that cost once.

:func:`save_index` writes one archive format, **v3** (DESIGN.md §13): a
raw binary container built for ``np.memmap`` — magic, a JSON header
(provenance: walk-engine name, seed material, and a fingerprint of the
graph the index was built on), then the three flat arrays at
64-byte-aligned offsets, uncompressed.  Loading is O(metadata): every
array comes back as a read-only view over a memory map and pages in only
when touched.  The graph fingerprint lets :func:`load_index` refuse a
*stale* index — one whose graph has since been edited — instead of
silently producing selections for a topology that no longer exists.

:func:`load_index` checks the magic bytes first: the **v1/v2** ``.npz``
archives that earlier releases wrote are refused with a pointer to
``repro index``, as are v3 archives of the retired ``"compressed"``
encoding.  The reader checks the arrays' structure before handing out an
index.  It maps every declared array but uses only those it names, so
arrays written by older releases (packed coverage rows) are ignored.

:func:`save_dynamic_index` / :func:`load_dynamic_index` persist the richer
:class:`~repro.dynamic.index.DynamicWalkIndex` as a *journal-aware
snapshot*: the graph CSR, the trajectories, the entry arrays, the seed
material, and the journal epoch.  A reloaded snapshot resumes incremental
maintenance exactly where it left off — ``sync`` against the owning
:class:`~repro.dynamic.graph.DynamicGraph` replays only the journal suffix
after the stored epoch (the frozen uniform stream is regenerated from the
seed material on first use, so snapshots stay small).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import GraphFormatError, ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.index import FlatWalkIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dynamic.index import DynamicWalkIndex

__all__ = [
    "save_index",
    "load_index",
    "index_provenance",
    "graph_fingerprint",
    "save_dynamic_index",
    "load_dynamic_index",
]

_DYNAMIC_FORMAT_VERSION = 1
_V3_VERSION = 3
#: v3 magic: 8 bytes, never a valid zip prefix, so one read disambiguates.
_V3_MAGIC = b"RWIDX3\x00\n"


def _resolve_archive_path(
    path: "str | Path", default_suffix: str = ".idx3"
) -> Path:
    """The path an archive actually lives at.

    ``save_index(idx, "myindex")`` and ``load_index("myindex")`` resolve
    identically: a literal path that already exists as a file is honored
    as-is (so a genuinely suffixless archive can be overwritten and
    re-read, never shadowed by a fresh suffixed sibling); otherwise
    ``default_suffix`` is appended when no known archive suffix is
    present (``.idx3`` for index archives, ``.npz`` for dynamic
    snapshots, which ``np.savez`` would suffix anyway).  The atomic
    writer never hands the resolved name to numpy (the temp file carries
    the suffix), so no second normalization can sneak in.
    """
    path = Path(path)
    if path.suffix in (".npz", ".idx3") or path.is_file():
        return path
    return path.with_name(path.name + default_suffix)


def _resolve_load_path(path: "str | Path") -> Path:
    """Where :func:`load_index` should look for ``path``.

    A literal existing file or a known suffix wins; otherwise the
    ``.idx3`` name :func:`save_index` writes is returned, so a suffixless
    save and load meet at the same file.  An ``.npz`` sibling is never
    probed: that suffix only ever held the retired v1/v2 archives.
    """
    path = Path(path)
    if path.suffix in (".npz", ".idx3") or path.is_file():
        return path
    return path.with_name(path.name + ".idx3")


def _atomic_savez(path: Path, payload: dict) -> None:
    """``np.savez_compressed`` through a same-directory temp + rename.

    Writing straight to the destination would truncate the previous good
    archive before the new one is complete, so a crash mid-write loses
    both.  The temp file keeps the ``.npz`` suffix (otherwise numpy would
    append one and the rename would miss it) and ``os.replace`` makes the
    swap atomic on POSIX — the snapshot-publish contract the serving
    layer (:mod:`repro.serve`) relies on.

    The temp file is created with mode ``0o666`` and the kernel applies
    the process umask (what a plain ``open()`` would have produced —
    ``tempfile.mkstemp``'s 0600 would make a maintenance job's archives
    unreadable by a separately-running serving process, and probing the
    umask via ``os.umask`` would briefly mutate process-global state
    under concurrent saver threads); overwrites then adopt the
    destination's existing mode.
    """
    tmp_name = _create_atomic_temp(path, ".npz")
    try:
        np.savez_compressed(tmp_name, **payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def _create_atomic_temp(path: Path, suffix: str) -> str:
    """A fresh same-directory temp sibling for an atomic write.

    Created empty with mode 0o666 under the process umask, then adopts
    the destination's existing mode on overwrite (the rationale in
    :func:`_atomic_savez`).  ``suffix`` must match what the actual
    writer will produce so the final ``os.replace`` renames the file the
    writer wrote (numpy appends suffixes silently).
    """
    tmp_name = None
    for attempt in range(100):
        candidate = path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{attempt}{suffix}"
        )
        try:
            fd = os.open(
                candidate, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666
            )
        except FileExistsError:  # pragma: no cover - concurrent saver
            continue
        os.close(fd)
        tmp_name = str(candidate)
        break
    if tmp_name is None:  # pragma: no cover - 100 stale temp files
        raise GraphFormatError(
            f"{path}: cannot create a temporary sibling for atomic save"
        )
    try:
        os.chmod(tmp_name, os.stat(path).st_mode & 0o777)
    except OSError:
        pass  # fresh destination: keep the umask-derived mode
    return tmp_name


def graph_fingerprint(graph: Graph) -> int:
    """CRC of the exact CSR arrays — changes on any edge edit.

    Cheap (one pass over the adjacency) and order-sensitive by
    construction: two graphs fingerprint equal iff their canonical CSR
    arrays are byte-identical, which for this package's builders means
    the graphs are equal.
    """
    crc = zlib.crc32(np.ascontiguousarray(graph.indptr).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(graph.indices).tobytes(), crc)
    return crc


def _check_graph_match(
    path: Path,
    graph: Graph,
    num_nodes: int,
    meta: "dict | None",
) -> None:
    """Raise :class:`ParameterError` when an index is stale for ``graph``."""
    if graph.num_nodes != num_nodes:
        raise ParameterError(
            f"{path}: index was built for {num_nodes} nodes but the graph "
            f"has {graph.num_nodes}"
        )
    if meta is None:
        return
    if meta["graph_num_edges"] != graph.num_edges:
        raise ParameterError(
            f"{path}: stale index — built on a graph with "
            f"{meta['graph_num_edges']} edges, this graph has "
            f"{graph.num_edges}; rebuild the index (or use "
            "repro.dynamic to maintain it incrementally)"
        )
    actual = graph_fingerprint(graph)
    if meta["graph_fingerprint"] != actual:
        raise ParameterError(
            f"{path}: stale index — this graph's adjacency fingerprint "
            f"{actual:#010x} does not match fingerprint "
            f"{meta['graph_fingerprint']:#010x} stored in the archive; "
            "the graph was edited after the index was built; rebuild the "
            "index (or use repro.dynamic to maintain it incrementally)"
        )


def _check_index_arrays(
    path: Path, indptr: np.ndarray, state: np.ndarray, hop: np.ndarray
) -> None:
    """Raise :class:`GraphFormatError` unless the arrays form an index.

    Every reader calls this before building a :class:`FlatWalkIndex`:
    ``indptr`` must be an integer CSR offset vector (starts at 0, never
    decreases, ends at the entry count), ``state`` ``int32``/``int64``
    and ``hop`` ``int16`` — the dtypes every builder writes, and the
    ones the gain engine indexes and subtracts with.  The cost is one
    pass over ``indptr`` (O(n)); entry *values* are not range-checked,
    since that would read every entry and make a mapped load O(entries).
    """
    problem = None
    if indptr.ndim != 1 or state.ndim != 1 or hop.ndim != 1:
        problem = "arrays must be one-dimensional"
    elif not np.issubdtype(indptr.dtype, np.integer) or indptr.size == 0:
        problem = "indptr must be a non-empty integer array"
    elif state.dtype not in (np.int32, np.int64):
        problem = f"state dtype {state.dtype} is not int32/int64"
    elif hop.dtype != np.int16:
        problem = f"hop dtype {hop.dtype} is not int16"
    elif indptr[0] != 0 or indptr[-1] != state.size or hop.size != state.size:
        problem = "indptr does not span the entry arrays"
    elif indptr.size > 1 and (np.diff(indptr) < 0).any():
        problem = "indptr decreases"
    if problem is not None:
        raise GraphFormatError(f"{path}: inconsistent index arrays ({problem})")


# ----------------------------------------------------------------------
# Persistence v3: raw aligned arrays behind a JSON header (DESIGN.md §13)
# ----------------------------------------------------------------------
def _align64(offset: int) -> int:
    return (offset + 63) & ~63


class FileArraySource:
    """An array whose bytes live in a (temp) file, for streaming v3 writes.

    The out-of-core builder (:mod:`repro.walks.build`, DESIGN.md §15)
    appends big entry arrays to sibling temp files during its merge and
    hands them to :func:`_write_v3` as sources: the writer computes the
    same specs a materialized array would get and stream-copies the bytes
    in bounded chunks, so the assembled archive is byte-identical to a
    fully in-memory save without the array ever existing in RAM.
    """

    __slots__ = ("path", "dtype", "shape")

    def __init__(self, path: "str | Path", dtype, shape):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(dim) for dim in shape)

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return self.dtype.itemsize * count


_COPY_CHUNK = 8 << 20


def v3_index_header(
    num_nodes: int,
    length: int,
    num_replicates: int,
    encoding: str,
    engine: "str | None" = None,
    seed: "int | str | None" = None,
    graph: "Graph | None" = None,
) -> dict:
    """The v3 header dict for a flat-index archive (sans array specs).

    One constructor shared by :func:`save_index` and the out-of-core
    writer so the serialized JSON — and therefore the archive bytes —
    cannot depend on which build path produced the index.
    """
    return {
        "version": _V3_VERSION,
        "encoding": encoding,
        "header": [num_nodes, length, num_replicates],
        "meta": {
            "engine": engine or "",
            "seed": "" if seed is None else str(seed),
        },
        "graph_meta": None if graph is None else [
            graph.num_nodes, graph.num_edges, graph_fingerprint(graph),
        ],
    }


def _write_v3(
    tmp_name: str,
    header: dict,
    arrays: "dict[str, np.ndarray | FileArraySource]",
) -> None:
    """Serialize a v3 container: magic | header len | JSON | aligned arrays.

    Array offsets in the header are relative to the data section, which
    starts at the first 64-byte boundary after the JSON — so the loader
    can compute every array's absolute position from the header alone
    and hand each one to ``np.memmap`` without reading the data.  Values
    may be ndarrays (written from memory) or :class:`FileArraySource`
    descriptors (stream-copied from their file); the bytes written are
    identical either way.
    """
    specs: list[dict] = []
    blobs: list = []
    offset = 0
    for name, arr in arrays.items():
        if not isinstance(arr, FileArraySource):
            arr = np.ascontiguousarray(arr)
        specs.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        })
        blobs.append(arr)
        offset = _align64(offset + arr.nbytes)
    header = dict(header, arrays=specs)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align64(len(_V3_MAGIC) + 8 + len(blob))
    with open(tmp_name, "wb") as fh:
        fh.write(_V3_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for spec, arr in zip(specs, blobs):
            fh.seek(data_start + spec["offset"])
            if isinstance(arr, FileArraySource):
                _copy_file_bytes(arr, fh)
            else:
                fh.write(arr.tobytes())
        fh.truncate(data_start + offset)


def _copy_file_bytes(source: FileArraySource, dest) -> None:
    """Stream a :class:`FileArraySource`'s bytes into an open archive."""
    expected = source.nbytes
    copied = 0
    with open(source.path, "rb") as src:
        while True:
            chunk = src.read(min(_COPY_CHUNK, expected - copied))
            if not chunk:
                break
            dest.write(chunk)
            copied += len(chunk)
    if copied != expected:
        raise GraphFormatError(
            f"{source.path}: staged array holds {copied} bytes, "
            f"expected {expected} — incomplete spill?"
        )


def _atomic_write_v3(
    path: Path, header: dict, arrays: "dict[str, np.ndarray]"
) -> None:
    """:func:`_write_v3` through a same-directory temp + rename (the
    discipline and permission rules of :func:`_atomic_savez`).

    Both static-archive writers, :func:`save_index` and the streamed
    :func:`repro.walks.build.build_index_archive`, end here, so the
    ``persistence.save`` span and the save counters live here too.
    """
    started = time.perf_counter()
    with obs.span("persistence.save"):
        tmp_name = _create_atomic_temp(path, path.suffix or ".idx3")
        try:
            _write_v3(tmp_name, header, arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
    if obs.enabled():
        obs.inc("persistence_saves_total", help="Index archives written.")
        obs.inc(
            "persistence_bytes_written_total",
            path.stat().st_size,
            help="Bytes of index archive written.",
        )
        obs.observe(
            "persistence_save_seconds",
            time.perf_counter() - started,
            help="Index archive write wall time.",
        )


def _read_v3_header(path: Path) -> tuple[dict, int, int]:
    """``(header, data_start, file_size)`` of a v3 container.

    The magic bytes are checked first: a zip file is a v1/v2 ``.npz``
    archive of an earlier release, whose reader is retired, and the
    error names the format and the rebuild.  Unrecognized magic,
    truncated or malformed headers raise :class:`GraphFormatError` too —
    the corruption error class (staleness stays :class:`ParameterError`).
    """
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            magic = fh.read(len(_V3_MAGIC))
            if magic[:2] == b"PK":
                raise GraphFormatError(
                    f"{path}: v1/v2 .npz index archives of earlier releases "
                    "are no longer readable; rebuild the archive with "
                    "'repro index'"
                )
            if magic != _V3_MAGIC:
                raise GraphFormatError(
                    f"{path}: unreadable index archive (unrecognized magic "
                    "bytes)"
                )
            raw = fh.read(8)
            if len(raw) < 8:
                raise GraphFormatError(f"{path}: truncated index archive")
            (header_len,) = struct.unpack("<Q", raw)
            if len(_V3_MAGIC) + 8 + header_len > size:
                raise GraphFormatError(f"{path}: truncated index archive")
            blob = fh.read(header_len)
    except OSError as exc:
        raise GraphFormatError(f"{path}: unreadable index archive") from exc
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphFormatError(
            f"{path}: unreadable index archive (corrupt v3 header)"
        ) from exc
    if not isinstance(header, dict):
        raise GraphFormatError(
            f"{path}: unreadable index archive (corrupt v3 header)"
        )
    return header, _align64(len(_V3_MAGIC) + 8 + header_len), size


def _map_v3_arrays(
    path: Path, header: dict, data_start: int, size: int
) -> "dict[str, np.ndarray]":
    """Read-only views over memory maps of every array a v3 header declares.

    Each declared extent is checked against the file size first, so a
    truncated data section fails loudly at load rather than as a bus
    error when the missing pages are first touched.  The views are plain
    ``np.ndarray`` objects, not ``np.memmap`` ones: numpy runs a
    subclass's hooks on every slice and arithmetic result, which slowed
    CELF's per-candidate work measurably.  Each view's ``.base`` is its
    map, so the map (and the open file) lives as long as the view.
    """
    arrays: dict[str, np.ndarray] = {}
    for spec in header.get("arrays", ()):
        try:
            name = spec["name"]
            dtype = np.dtype(str(spec["dtype"]))
            shape = tuple(int(s) for s in spec["shape"])
            offset = int(spec["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(
                f"{path}: unreadable index archive (corrupt array table)"
            ) from exc
        count = 1
        for dim in shape:
            if dim < 0:
                raise GraphFormatError(
                    f"{path}: unreadable index archive (corrupt array table)"
                )
            count *= dim
        nbytes = dtype.itemsize * count
        if offset < 0 or data_start + offset + nbytes > size:
            raise GraphFormatError(
                f"{path}: truncated index archive (array {name!r} extends "
                "past the end of the file)"
            )
        if nbytes == 0:
            arrays[name] = np.empty(shape, dtype=dtype)
        else:
            arrays[name] = np.asarray(np.memmap(
                path, mode="r", dtype=dtype, shape=shape,
                offset=data_start + offset,
            ))
    return arrays


def _v3_graph_meta(header: dict, path: Path) -> "dict | None":
    raw = header.get("graph_meta")
    if raw is None:
        return None
    try:
        return {
            "graph_num_nodes": int(raw[0]),
            "graph_num_edges": int(raw[1]),
            "graph_fingerprint": int(raw[2]),
        }
    except (TypeError, ValueError, IndexError) as exc:
        raise GraphFormatError(
            f"{path}: unreadable index archive (corrupt graph provenance)"
        ) from exc


def _load_index_impl(
    path: "str | Path", graph: "Graph | None" = None
) -> FlatWalkIndex:
    path = _resolve_load_path(path)
    header, data_start, size = _read_v3_header(path)
    try:
        version = int(header["version"])
        encoding = str(header["encoding"])
        num_nodes, length, num_replicates = (int(v) for v in header["header"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(
            f"{path}: not a walk-index archive (missing v3 header fields)"
        ) from exc
    if version != _V3_VERSION:
        raise GraphFormatError(
            f"{path}: unsupported index format version {version}"
        )
    if encoding == "compressed":
        raise GraphFormatError(
            f"{path}: v3 encoding 'compressed' (the retired delta codec) "
            "is no longer readable; rebuild the archive with 'repro index'"
        )
    if encoding != "dense":
        raise GraphFormatError(
            f"{path}: unsupported v3 encoding {encoding!r}"
        )
    arrays = _map_v3_arrays(path, header, data_start, size)
    if obs.enabled():
        obs.inc(
            "persistence_bytes_mapped_total",
            sum(a.nbytes for a in arrays.values()),
            help="Index bytes exposed as read-only memory maps.",
        )
    missing = {"indptr", "state", "hop"} - set(arrays)
    if missing:
        raise GraphFormatError(
            f"{path}: not a walk-index archive (missing {sorted(missing)})"
        )
    if graph is not None:
        _check_graph_match(
            path, graph, num_nodes, _v3_graph_meta(header, path)
        )
    return _checked_index(
        path, arrays["indptr"], arrays["state"], arrays["hop"],
        num_nodes, length, num_replicates,
    )


def _checked_index(
    path: Path,
    indptr: np.ndarray,
    state: np.ndarray,
    hop: np.ndarray,
    num_nodes: int,
    length: int,
    num_replicates: int,
) -> FlatWalkIndex:
    """A :class:`FlatWalkIndex` over checked archive arrays."""
    _check_index_arrays(path, indptr, state, hop)
    try:
        return FlatWalkIndex(
            indptr=indptr,
            state=state,
            hop=hop,
            num_nodes=num_nodes,
            length=length,
            num_replicates=num_replicates,
        )
    except ParameterError as exc:
        raise GraphFormatError(f"{path}: inconsistent index arrays") from exc


def save_index(
    index: FlatWalkIndex,
    path: "str | Path",
    graph: "Graph | None" = None,
    engine: "str | None" = None,
    seed: "int | str | None" = None,
) -> Path:
    """Write a :class:`FlatWalkIndex` to ``path`` as a v3 archive.

    The archive holds the three flat arrays at aligned offsets — the
    layout :func:`load_index` maps back without materializing.  The
    optional keyword metadata is provenance: ``engine`` (walk backend
    that generated the walks), ``seed`` (seed material, stored as text
    so arbitrary-precision entropy survives), and ``graph`` — when
    given, the graph's shape and CSR fingerprint are stored and enforced
    at load time.

    The destination resolves exactly as :func:`load_index` resolves it
    (an existing literal file is overwritten in place; otherwise
    ``.idx3`` is appended when no ``.idx3``/``.npz`` suffix is present;
    the suffix never changes what is written), so save/load round-trips
    for any path.  Every write is atomic: a temp file in the destination
    directory, renamed into place, so a crash mid-write never destroys a
    previous good archive.  Returns the path actually written.
    """
    if graph is not None and graph.num_nodes != index.num_nodes:
        raise ParameterError(
            "provenance graph does not match the index node count"
        )
    path = _resolve_archive_path(path)
    header = v3_index_header(
        index.num_nodes, index.length, index.num_replicates,
        encoding="dense", engine=engine, seed=seed, graph=graph,
    )
    header["state_dtype"] = index.state.dtype.str
    _atomic_write_v3(path, header, {
        "indptr": index.indptr, "state": index.state, "hop": index.hop,
    })
    return path


def load_index(
    path: "str | Path", graph: "Graph | None" = None
) -> FlatWalkIndex:
    """Read a :class:`FlatWalkIndex` written by :func:`save_index`.

    Validates the version stamp and the structural invariants (an
    integer ``indptr`` that starts at 0, never decreases and spans the
    entry arrays; ``int32``/``int64`` states and ``int16`` hops) so a
    truncated or foreign file fails loudly instead of corrupting a
    selection run.

    Pass the ``graph`` the index is about to be used with to also enforce
    freshness: a node-count mismatch always raises
    :class:`ParameterError`, and for archives carrying graph provenance
    (saved with ``graph=``), an edge-count or adjacency-fingerprint
    mismatch (a stale index for an edited graph) raises too.

    Accepts the same suffixless paths :func:`save_index` does: when the
    literal path does not exist, the ``.idx3``-suffixed name is tried.
    The format is checked by its magic bytes, never the suffix: arrays
    load as read-only views over memory maps (O(metadata) — see the
    module docstring), and a v1/v2 ``.npz`` archive of an earlier release
    raises :class:`GraphFormatError` naming ``repro index``.
    """
    started = time.perf_counter()
    with obs.span("persistence.load", path=str(path)):
        index = _load_index_impl(path, graph)
    if obs.enabled():
        obs.inc("persistence_loads_total", help="Index archives loaded.")
        obs.observe(
            "persistence_load_seconds",
            time.perf_counter() - started,
            help="Index archive load wall time.",
        )
    return index


def index_provenance(path: "str | Path") -> dict:
    """Provenance metadata of a saved index (empty strings when absent).

    Returns ``version``, ``engine``, ``seed`` (text), and — when the
    archive carries graph provenance — ``graph_num_nodes`` /
    ``graph_num_edges`` / ``graph_fingerprint``, and ``encoding``
    (``"dense"``, or ``"compressed"`` for a retired codec archive that
    :func:`load_index` refuses).  A v1/v2 ``.npz`` archive raises
    :class:`GraphFormatError`, as in :func:`load_index`.
    """
    path = _resolve_load_path(path)
    header, _, _ = _read_v3_header(path)
    meta = header.get("meta") or {}
    info = {
        "version": int(header.get("version", _V3_VERSION)),
        "encoding": str(header.get("encoding", "")),
        "engine": str(meta.get("engine", "")),
        "seed": str(meta.get("seed", "")),
    }
    graph_meta = _v3_graph_meta(header, path)
    if graph_meta is not None:
        info.update(graph_meta)
    return info


# ----------------------------------------------------------------------
# Journal-aware dynamic snapshots
# ----------------------------------------------------------------------
def save_dynamic_index(index: "DynamicWalkIndex", path: "str | Path") -> Path:
    """Persist a :class:`~repro.dynamic.index.DynamicWalkIndex` snapshot.

    Stores everything incremental maintenance needs to resume: the graph
    CSR at the index's epoch, the trajectories, the canonical entry
    arrays, the seed material / engine provenance, and the epoch itself.
    The frozen uniform stream is *not* stored — it regenerates
    deterministically from the seed material.  The header keeps five
    ``int64`` slots; the fifth, a shard count that only snapshots of the
    retired per-shard seeding used, is always written as 0.  Suffix
    handling and
    atomicity follow :func:`save_index`: the snapshot lands at a
    ``*.npz`` path (returned) via a same-directory temp file and
    ``os.replace``.
    """
    path = _resolve_archive_path(path, default_suffix=".npz")
    graph = index.graph
    _atomic_savez(path, {
        "dynamic_version": np.int64(_DYNAMIC_FORMAT_VERSION),
        "header": np.asarray(
            [
                index.num_nodes,
                index.length,
                index.num_replicates,
                index.epoch,
                0,
            ],
            dtype=np.int64,
        ),
        "indptr": index.flat.indptr,
        "state": index.flat.state,
        "hop": index.flat.hop,
        "walks": index.walks,
        "graph_indptr": graph.indptr,
        "graph_indices": graph.indices,
        "meta_engine": np.str_(index.engine_name),
        "meta_seed": np.str_(str(index.seed_entropy)),
    })
    return path


def load_dynamic_index(
    path: "str | Path", graph: "Graph | None" = None
) -> "DynamicWalkIndex":
    """Reload a snapshot written by :func:`save_dynamic_index`.

    The snapshot carries its own graph (the snapshot-epoch topology);
    pass ``graph`` to additionally assert it matches — a mismatch raises
    :class:`ParameterError`, the stale-index guard for callers that load
    a snapshot against what they believe is the same graph.  A nonzero
    stored shard count (a snapshot of the retired per-shard seeding,
    whose walks no current engine reproduces) raises
    :class:`GraphFormatError`.
    """
    from repro.dynamic.index import DynamicWalkIndex

    path = _resolve_archive_path(path, default_suffix=".npz")
    required = {
        "dynamic_version", "header", "indptr", "state", "hop",
        "walks", "graph_indptr", "graph_indices", "meta_engine", "meta_seed",
    }
    try:
        with np.load(path) as archive:
            missing = required - set(archive.files)
            if missing:
                raise GraphFormatError(
                    f"{path}: not a dynamic-index snapshot "
                    f"(missing {sorted(missing)})"
                )
            version = int(archive["dynamic_version"])
            if version != _DYNAMIC_FORMAT_VERSION:
                raise GraphFormatError(
                    f"{path}: unsupported dynamic snapshot version {version}"
                )
            header = archive["header"]
            num_nodes, length, num_replicates, epoch, shard_slot = (
                int(v) for v in header
            )
            indptr = archive["indptr"]
            state = archive["state"]
            hop = archive["hop"]
            walks = archive["walks"]
            snapshot_graph = Graph(
                archive["graph_indptr"], archive["graph_indices"]
            )
            engine_name = str(archive["meta_engine"])
            entropy = int(str(archive["meta_seed"]))
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise GraphFormatError(f"{path}: unreadable dynamic snapshot") from exc
    if shard_slot != 0:
        raise GraphFormatError(
            f"{path}: snapshot of the retired per-shard seeding "
            f"({shard_slot} shards) is no longer readable; rebuild it "
            "with DynamicWalkIndex.build"
        )
    if graph is not None and (
        graph.num_nodes != snapshot_graph.num_nodes
        or graph_fingerprint(graph) != graph_fingerprint(snapshot_graph)
    ):
        raise ParameterError(
            f"{path}: snapshot graph does not match the supplied graph "
            "(the snapshot was taken at a different epoch or on a "
            "different graph)"
        )
    flat = _checked_index(
        path, indptr, state, hop, num_nodes, length, num_replicates
    )
    if walks.shape != (num_nodes * num_replicates, length + 1):
        raise GraphFormatError(
            f"{path}: inconsistent snapshot arrays (walk matrix shape)"
        )
    return DynamicWalkIndex(
        graph=snapshot_graph,
        flat=flat,
        walks=np.ascontiguousarray(walks),
        seed_entropy=entropy,
        engine_name=engine_name,
        epoch=epoch,
    )
