"""Stream-slicing walk kernels and shared-memory plumbing (DESIGN.md §11).

This module is the substrate of the two parallel walk backends in
:mod:`repro.walks.backends`:

* ``"sharded"`` runs the slice kernels on a thread pool over the graph's
  own CSR arrays;
* ``"multiproc"`` runs them in worker *processes* that read the CSR from
  :mod:`multiprocessing.shared_memory` segments and is driven by the
  top-level task entry point :func:`run_task` (spawn-picklable).

The kernels compute **row slices of one logical batch**: a canonical
batch-walk call over ``total`` rows consumes ``rng.random(total)`` once
per hop from a single PCG64 stream (the ``numpy``/``csr`` discipline).
A slice kernel reconstructs that stream from its picklable state
(:func:`repro.walks.rng.generator_at`), jumps to its rows' offset inside
each per-hop block, draws only its rows, and skips the rest with
``advance`` — so the assembled output is *bit-identical* to the
sequential engines, for any partitioning, on any worker count.

It also owns the first-visit record format every index builder shares:
the extraction (:func:`first_visit_records`), the canonical sort key
(:func:`canonical_record_key`) and the one-``int64`` packed record that
the canonical sort runs on (:class:`RecordPacker`).

Everything here is deliberately import-light (numpy + stdlib + the rng
helpers and error types): spawned worker processes import this module
once and nothing heavier.
"""

from __future__ import annotations

import numpy as np
from multiprocessing import shared_memory

from repro.errors import ParameterError
from repro.walks.rng import generator_at

__all__ = [
    "slice_walks",
    "slice_first_hits",
    "slice_weighted_walks",
    "first_visit_records",
    "canonical_record_key",
    "MAX_WALK_LENGTH",
    "RecordPacker",
    "SharedArrayPack",
    "run_task",
]


# ----------------------------------------------------------------------
# Slice kernels (thread- and process-agnostic: plain arrays in, arrays out)
# ----------------------------------------------------------------------
def slice_walks(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees_f64: np.ndarray,
    starts: np.ndarray,
    length: int,
    state: "tuple[str, dict]",
    lo: int,
    total: int,
) -> np.ndarray:
    """Rows ``[lo, lo + len(starts))`` of a ``total``-row batch-walk call.

    ``indptr``/``indices``/``degrees_f64`` are the *augmented* CSR of the
    CSR backend's plan (dangling nodes carry a self-loop), and the hop
    arithmetic mirrors :meth:`~repro.walks.backends.CSRWalkEngine.batch_walks`
    operation for operation, so the slice is bit-identical to the matching
    rows of the sequential call.
    """
    batch = starts.size
    walks = np.empty((length + 1, batch), dtype=np.int32)
    walks[0] = starts
    if length and batch:
        gen = generator_at(state, lo)
        bit_gen = gen.bit_generator
        u = np.empty(batch, dtype=np.float64)
        deg = np.empty(batch, dtype=np.float64)
        off = np.empty(batch, dtype=np.int64)
        pos = np.empty(batch, dtype=np.int64)
        current = np.empty(batch, dtype=np.int64)
        np.copyto(current, starts)
        for t in range(1, length + 1):
            gen.random(out=u)
            np.take(degrees_f64, current, out=deg, mode="clip")
            np.multiply(u, deg, out=u)
            np.copyto(off, u, casting="unsafe")  # trunc == floor: u >= 0
            np.take(indptr, current, out=pos, mode="clip")
            pos += off
            np.take(indices, pos, out=walks[t], mode="clip")
            np.copyto(current, walks[t])
            bit_gen.advance(total - batch)  # skip the other rows' draws
    return np.ascontiguousarray(walks.T)


def slice_first_hits(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees_f64: np.ndarray,
    starts: np.ndarray,
    length: int,
    target_mask: np.ndarray,
    state: "tuple[str, dict]",
    lo: int,
    total: int,
) -> np.ndarray:
    """Fused first-hit twin of :func:`slice_walks` (no walk matrix)."""
    batch = starts.size
    first = np.where(target_mask[starts], 0, -1).astype(np.int64)
    if length and batch:
        gen = generator_at(state, lo)
        bit_gen = gen.bit_generator
        u = np.empty(batch, dtype=np.float64)
        deg = np.empty(batch, dtype=np.float64)
        off = np.empty(batch, dtype=np.int64)
        pos = np.empty(batch, dtype=np.int64)
        nxt = np.empty(batch, dtype=np.int32)
        current = np.empty(batch, dtype=np.int64)
        np.copyto(current, starts)
        for t in range(1, length + 1):
            gen.random(out=u)
            np.take(degrees_f64, current, out=deg, mode="clip")
            np.multiply(u, deg, out=u)
            np.copyto(off, u, casting="unsafe")
            np.take(indptr, current, out=pos, mode="clip")
            pos += off
            np.take(indices, pos, out=nxt, mode="clip")
            np.copyto(current, nxt)
            newly = (first < 0) & target_mask[current]
            first[newly] = t
            bit_gen.advance(total - batch)
    return first


def slice_weighted_walks(
    indptr: np.ndarray,
    indices: np.ndarray,
    out_degrees_f64: np.ndarray,
    prob: np.ndarray,
    alias: np.ndarray,
    starts: np.ndarray,
    length: int,
    state: "tuple[str, dict]",
    lo: int,
    total: int,
) -> np.ndarray:
    """Row slice of a dangling-free weighted batch-walk call.

    A weighted hop burns two per-hop blocks — ``total`` slot uniforms,
    then ``total`` coin uniforms (the
    :meth:`~repro.walks.backends.CSRWalkEngine.weighted_batch_walks`
    fast-path order) — so the slice jumps twice per hop.  Graphs with
    dangling rows consume the stream data-dependently (the masked
    :meth:`~repro.walks.alias.AliasSampler.step` path) and cannot be
    sliced; the backends fall back to a sequential call for those.
    """
    batch = starts.size
    walks = np.empty((length + 1, batch), dtype=np.int32)
    walks[0] = starts
    if length and batch:
        gen = generator_at(state, lo)
        bit_gen = gen.bit_generator
        current = starts.astype(np.int64)
        for t in range(1, length + 1):
            u_slot = gen.random(batch)
            bit_gen.advance(total - batch)
            u_coin = gen.random(batch)
            bit_gen.advance(total - batch)
            slots = indptr[current] + (
                u_slot * out_degrees_f64[current]
            ).astype(np.int64)
            chosen = np.where(u_coin >= prob[slots], alias[slots], slots)
            current = indices[chosen]
            walks[t] = current
    return np.ascontiguousarray(walks.T)


# ----------------------------------------------------------------------
# First-visit records: extraction, sort key, packed format (every builder)
# ----------------------------------------------------------------------
def first_visit_records(
    walks: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-visit ``(hit, state, hop)`` records of a block of walks.

    The Algorithm-3 extraction shared by the static builder
    (:meth:`~repro.walks.index.FlatWalkIndex.build`), the dynamic builder
    (:mod:`repro.dynamic.index`), and the multiproc workers (which run it
    shard-locally and ship back only the records): a position is a record
    iff its node differs from every earlier position of the walk.
    ``states`` carries the per-row flattened ``D`` index.
    """
    batch = walks.shape[0]
    length = walks.shape[1] - 1
    hit_parts: list[np.ndarray] = []
    state_parts: list[np.ndarray] = []
    hop_parts: list[np.ndarray] = []
    for hop in range(1, length + 1):
        col = walks[:, hop].astype(np.int64)
        fresh = np.ones(batch, dtype=bool)
        for prev in range(hop):
            np.logical_and(fresh, col != walks[:, prev], out=fresh)
        if not fresh.any():
            continue
        hit_parts.append(col[fresh])
        state_parts.append(states[fresh])
        hop_parts.append(np.full(int(fresh.sum()), hop, dtype=np.int64))
    if not hit_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate(hit_parts),
        np.concatenate(state_parts),
        np.concatenate(hop_parts),
    )


def canonical_record_key(
    hits: np.ndarray, states: np.ndarray, num_states: int
) -> np.ndarray:
    """The canonical ``hit * num_states + state`` sort key, as ``int64``.

    States are unique within one hit node's records (first-visit dedup),
    so the key is a strict total order over any record set — the one
    every builder sorts by, in-memory (``FlatWalkIndex._from_records``)
    and out-of-core (:mod:`repro.walks.build`) alike, kept in one place
    so the two can never disagree.  Both operands are forced to
    ``int64`` *before* the multiply: under NEP 50 (numpy >= 2) and under
    1.x value-based casting alike, ``int32_array * python_int`` stays
    ``int32`` whenever the scalar fits, so int32 inputs would wrap
    silently once ``hit * n * R`` crosses 2^31 — reordering entries
    instead of crashing.  Keys are decodable: ``hit = key // num_states``
    and ``state = key % num_states`` (states are ``< num_states`` by
    construction), which is what lets :class:`RecordPacker` carry a whole
    record in one ``int64``.
    """
    keys = np.multiply(hits, np.int64(num_states), dtype=np.int64)
    keys += states
    return keys


#: The longest walk an index can hold: every builder stores hops as int16.
MAX_WALK_LENGTH = int(np.iinfo(np.int16).max)


class RecordPacker:
    """One first-visit record as one sortable ``int64``: ``key << b | hop``.

    ``key`` is :func:`canonical_record_key` and the low ``b =
    L.bit_length()`` bits hold the hop.  Keys are unique and hops are
    ``< 2**b``, so sorting the packed *values* orders records exactly as
    sorting by key — an in-place SIMD value sort instead of an argsort
    plus one gather per column — and every assembler (the external
    sorter's buffer, spill runs and merge; ``FlatWalkIndex._from_records``;
    the dynamic index) shares this one format.  A mask reads the hop
    back, a shift the key, and ``key % num_states`` the state.

    The constructor is the range check: the largest packed record,
    ``(n * n R << b) - 1``, must fit ``int64`` and ``L`` must fit the
    int16 hop column, else :class:`~repro.errors.ParameterError`.  No
    buildable instance reaches the int64 bound — 10^6 nodes at R=100
    fit at every valid ``L`` — so there is no fallback format.
    """

    def __init__(self, num_nodes: int, num_replicates: int, length: int):
        if not 0 <= length <= MAX_WALK_LENGTH:
            raise ParameterError(
                f"walk length L={length} outside [0, {MAX_WALK_LENGTH}] "
                "(hops are stored as int16)"
            )
        num_states = int(num_nodes) * int(num_replicates)
        bits = int(length).bit_length()
        if (int(num_nodes) * num_states) << bits > 1 << 63:
            raise ParameterError(
                f"walk records of n={num_nodes}, R={num_replicates}, "
                f"L={length} do not pack into int64 (needs "
                f"n * n * R * 2**{bits} <= 2**63)"
            )
        self.num_states = num_states
        self.length = int(length)
        self.hop_bits = bits

    def check_hops(self, hops: np.ndarray) -> int:
        """Raise unless every hop lies in ``[0, L]``; return the largest.

        A hop past ``L`` would spill into the key bits and a negative
        one would set them all, silently reordering records.
        """
        if hops.size == 0:
            return 0
        low, high = int(hops.min()), int(hops.max())
        if low < 0 or high > self.length:
            raise ParameterError(
                f"record hops must lie in [0, L={self.length}] "
                f"(got {low}..{high})"
            )
        return high

    def pack(
        self, hits: np.ndarray, states: np.ndarray, hops: np.ndarray
    ) -> np.ndarray:
        """A fresh ``int64`` array of packed records.

        ``hops`` must lie in ``[0, L]`` (:meth:`check_hops`) and
        ``states`` in ``[0, n R)``.
        """
        packed = canonical_record_key(hits, states, self.num_states)
        packed <<= self.hop_bits
        packed |= hops
        return packed

    def decode(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, int16 hops)``, shifting ``packed`` into the keys in place."""
        hops = np.empty(packed.size, dtype=np.int16)
        np.bitwise_and(
            packed, (1 << self.hop_bits) - 1, out=hops, casting="unsafe"
        )
        packed >>= self.hop_bits
        return packed, hops

    def sort_decode(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sort ``packed`` in place, then :meth:`decode` it."""
        packed.sort()
        return self.decode(packed)


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
class SharedArrayPack:
    """A named bundle of numpy arrays copied into shared-memory segments.

    The parent creates the pack once (per graph, or per call for
    transient inputs like a target mask), hands workers the picklable
    ``specs`` dict, and remains the *sole owner* of the segments:
    :meth:`close` both closes and unlinks every one.  Workers only ever
    attach read-only views (:func:`attach_array`) and never unlink — so
    a crashed worker cannot leak a segment; leaks are impossible as long
    as the parent's ``close`` runs, which the multiproc engine guarantees
    on every exception path (and via a finalizer on interpreter exit).
    """

    def __init__(self, arrays: "dict[str, np.ndarray]"):
        self.specs: "dict[str, tuple[str, tuple, str]]" = {}
        self._segments: "list[shared_memory.SharedMemory]" = []
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                self.specs[name] = (
                    segment.name, array.shape, array.dtype.str
                )
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close and unlink every segment (idempotent, exception-safe)."""
        segments, self._segments = self._segments, []
        self.specs = {}
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass  # already unlinked (double-close is legal)

    @property
    def segment_names(self) -> "tuple[str, ...]":
        """Kernel names of the live segments (diagnostics and tests)."""
        return tuple(segment.name for segment in self._segments)


#: Worker-side attach cache: segment name -> (SharedMemory, base array),
#: LRU-bounded.  Keeping mappings open across tasks amortizes attach
#: cost, but an open mapping also keeps an *unlinked* segment's physical
#: memory alive — so when the parent cycles through many graphs (its own
#: pack cache evicts and unlinks), workers must drop stale mappings too
#: or the freed packs never actually free.  The cap comfortably exceeds
#: the handful of arrays any single task touches, so a task can never
#: evict a segment it is about to read.
_ATTACH_CACHE_SIZE = 16
_ATTACHED: "dict[str, tuple[shared_memory.SharedMemory, np.ndarray]]" = {}


def attach_array(spec: "tuple[str, tuple, str]") -> np.ndarray:
    """A read-only view of a shared array, attached and LRU-cached per
    worker.

    Pool workers share the parent's resource-tracker process, and the
    tracker's registry is a per-name set — the attach-side ``register``
    the stdlib performs is therefore idempotent with the parent's, and
    the parent's single ``unlink`` retires the name exactly once.
    Workers must never unregister (or unlink) themselves: that would
    retire the parent's registration early and double-free the name.
    Evicted mappings are merely *closed*, which is what releases the
    segment's memory once the parent has unlinked it.
    """
    name, shape, dtype = spec
    cached = _ATTACHED.pop(name, None)
    if cached is None:
        segment = shared_memory.SharedMemory(name=name)
        base = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        base.flags.writeable = False
        cached = (segment, base)
    _ATTACHED[name] = cached  # re-insert at the MRU end (dicts keep order)
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        oldest = next(iter(_ATTACHED))  # front of the dict == LRU
        stale_segment, _stale_base = _ATTACHED.pop(oldest)
        stale_segment.close()
    return cached[1]


# ----------------------------------------------------------------------
# Process-pool task entry point
# ----------------------------------------------------------------------
def run_task(task: dict):
    """Execute one multiproc shard task (top-level: spawn-picklable).

    ``task["mode"]`` selects the kernel:

    * ``"walks"`` → the ``(rows, L+1)`` walk slice;
    * ``"first_hits"`` → the per-row first-hit hops (mask from shared
      memory);
    * ``"records"`` → the slice's first-visit ``(hit, state, hop)``
      arrays — the streaming index-build path that never ships a walk
      matrix back to the parent;
    * ``"weighted"`` → the weighted walk slice.

    Workers are stateless between tasks apart from the read-only attach
    cache: the slice generator is rebuilt from the pickled stream state
    every time, so a task that dies mid-shard (worker crash, interrupt)
    leaves nothing to tear down worker-side — recovery is entirely the
    parent's unlink-and-raise path.

    When the parent sets ``task["telemetry"]`` (it does so only while its
    own telemetry is enabled) the payload comes back as
    ``("__obs__", payload, snapshot_dict)``: shard-level metrics recorded
    into a private worker registry and shipped through the same
    record-streaming return path, for the parent to ``obs.absorb``.
    """
    if task.get("telemetry"):
        return _run_task_telemetry(task)
    return _run_task_kernel(task)


def _run_task_kernel(task: dict):
    mode = task["mode"]
    specs = task["specs"]
    starts = task["starts"]
    length = task["length"]
    state = task["state"]
    lo = task["lo"]
    total = task["total"]
    if mode == "weighted":
        return slice_weighted_walks(
            attach_array(specs["indptr"]),
            attach_array(specs["indices"]),
            attach_array(specs["out_degrees_f64"]),
            attach_array(specs["prob"]),
            attach_array(specs["alias"]),
            starts, length, state, lo, total,
        )
    indptr = attach_array(specs["indptr"])
    indices = attach_array(specs["indices"])
    degrees = attach_array(specs["degrees_f64"])
    if mode == "walks":
        return slice_walks(
            indptr, indices, degrees, starts, length, state, lo, total
        )
    if mode == "first_hits":
        mask = attach_array(task["mask_spec"]).view(bool)
        return slice_first_hits(
            indptr, indices, degrees, starts, length, mask, state, lo, total
        )
    if mode == "records":
        walks = slice_walks(
            indptr, indices, degrees, starts, length, state, lo, total
        )
        return first_visit_records(walks, task["states"])
    raise ValueError(f"unknown multiproc task mode {mode!r}")


def _run_task_telemetry(task: dict):
    # Imported lazily: this module stays numpy+stdlib on the default path,
    # and workers only pay the import when the parent opted in.
    import time

    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    mode = task["mode"]
    started = time.perf_counter()
    payload = _run_task_kernel(task)
    elapsed = time.perf_counter() - started
    rows = int(np.asarray(task["starts"]).size)
    registry.counter(
        "walk_shard_rows_total", {"mode": mode},
        help="Walk rows computed by multiproc shard workers.",
    ).inc(rows)
    registry.counter(
        "walk_shards_total", {"mode": mode},
        help="Multiproc shard tasks executed.",
    ).inc()
    registry.histogram(
        "walk_shard_kernel_seconds", {"mode": mode},
        help="In-worker shard kernel wall time.",
    ).observe(elapsed)
    if mode == "records":
        registry.counter(
            "walk_shard_records_total",
            help="First-visit records extracted in workers.",
        ).inc(int(payload[0].size))
    return "__obs__", payload, registry.snapshot().to_dict()
