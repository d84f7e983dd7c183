"""The inverted walk index of Algorithm 3 (``Invert_Index``).

For every node ``w`` the index materializes ``R`` independent L-length
random walks.  Each *first visit* of a node ``v`` by walk ``i`` of walker
``w`` at hop ``j`` becomes one entry "``w`` hits ``v`` at hop ``j``" filed
under ``(i, v)``.  The approximate greedy algorithm (Algorithm 6) then
answers every marginal-gain query from these entries alone.

Two interchangeable representations:

* :class:`InvertedIndex` — the paper's list-of-lists ``I[1:R][1:n]``,
  built exactly like the pseudocode (visited array, one walk at a time).
  Transparent, used for small graphs and as the test oracle.
* :class:`FlatWalkIndex` — all entries in flat numpy arrays grouped by hit
  node (CSR-by-hit), with the ``(replicate, walker)`` pair pre-flattened to
  an index into the flattened ``D`` matrix.  This is the representation the
  vectorized engine (:mod:`repro.core.approx_fast`) consumes; it is built
  chunk-wise so paper-scale graphs fit in memory, and a saved one loads
  back as read-only views over the archive's memory maps
  (:mod:`repro.walks.persistence`).

Both builders accept pre-generated walks, so tests can inject the exact
walks of the paper's Example 3.1 and compare the two representations
entry-for-entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.engine import random_walk
from repro.walks.records import (
    MAX_WALK_LENGTH,
    RecordPacker,
    first_visit_records,
)
from repro.walks.rng import resolve_rng

__all__ = [
    "IndexEntry",
    "InvertedIndex",
    "FlatWalkIndex",
    "canonical_entries",
    "check_index_fits",
    "entry_state_dtype",
    "walker_major_starts",
]


@dataclass(frozen=True)
class IndexEntry:
    """One inverted-index record: ``walker`` hits the list's node at ``hop``."""

    walker: int
    hop: int


def walker_major_starts(num_nodes: int, num_replicates: int) -> np.ndarray:
    """Start nodes for the canonical batch layout.

    Row ``b`` of the walk batch is replicate ``b % R`` of walker ``b // R``;
    this helper builds the matching ``starts`` vector
    ``[0,0,...,0, 1,1,...,1, ...]``.
    """
    return np.repeat(np.arange(num_nodes, dtype=np.int64), num_replicates)


def _walker_major_rows(
    num_nodes: int, num_replicates: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start node and flattened ``D`` state of rows ``[lo, hi)`` of the
    canonical batch.

    Row ``b`` is replicate ``b % R`` of walker ``b // R`` (the layout of
    :func:`walker_major_starts`), so its state is ``(b % R) * n + b // R``.
    """
    rows = np.arange(lo, hi, dtype=np.int64)
    starts = rows // num_replicates
    states = rows - starts * num_replicates
    states *= num_nodes
    states += starts
    return starts, states


def _walker_major_states(num_nodes: int, num_replicates: int) -> np.ndarray:
    """Flattened ``D`` state of each row of the whole canonical batch."""
    return _walker_major_rows(
        num_nodes, num_replicates, 0, num_nodes * num_replicates
    )[1]


def _walk_records(
    walk_engine: WalkEngine,
    graph: Graph,
    length: int,
    num_replicates: int,
    sink,
    seed: np.random.Generator,
    chunk_rows: int,
):
    """The canonical batch's ``(packed, hop_counts)`` chunks, walked by
    ``walk_engine`` and packed into ``sink``'s vacant buffer space.

    Each chunk's start and state rows are made when it is walked, so no
    batch-sized row array exists (two of 16 MB at n=20k, R=100).  The
    chunks draw from ``seed`` in order, as one
    :meth:`~repro.walks.backends.WalkEngine.iter_walk_records` call over
    the whole batch would.
    """
    if chunk_rows < 1:
        raise ParameterError("chunk_rows must be >= 1")
    n = graph.num_nodes
    total = n * num_replicates
    for lo in range(0, total, chunk_rows):
        starts, states = _walker_major_rows(
            n, num_replicates, lo, min(lo + chunk_rows, total)
        )
        yield from walk_engine.iter_walk_records(
            graph, starts, length, states, sink.packer, seed=seed,
            chunk_rows=chunk_rows, into=sink.vacant,
        )


def _validate_params(num_nodes: int, length: int, num_replicates: int) -> None:
    if num_nodes < 0:
        raise ParameterError("num_nodes must be >= 0")
    if length < 0:
        raise ParameterError("walk length L must be >= 0")
    if length > MAX_WALK_LENGTH:
        raise ParameterError(
            f"walk length L={length} exceeds {MAX_WALK_LENGTH} "
            "(hops are stored as int16)"
        )
    if num_replicates < 1:
        raise ParameterError("number of replicates R must be >= 1")


def check_index_fits(index, graph, length: int) -> None:
    """Refuse a prebuilt index that was built for another graph size or L.

    Every solver that accepts a prebuilt ``index`` (flat, inverted, edge
    or dynamic) calls this, so a mismatched index raises instead of
    answering a question about another instance.
    """
    if index.num_nodes != graph.num_nodes:
        raise ParameterError("index was built for a different graph size")
    if index.length != length:
        raise ParameterError(
            f"index was built for L={index.length}, not L={length}"
        )


def entry_state_dtype(num_nodes: int, num_replicates: int) -> np.dtype:
    """The dtype every builder stores entry states in.

    ``int32`` while the state space ``n * R`` fits, ``int64`` past it —
    one rule shared by the in-memory assembler (:func:`canonical_entries`)
    and the out-of-core archive writer (:mod:`repro.walks.build`), so the
    two paths can never disagree on the bytes an archive holds.
    """
    return np.dtype(
        np.int32
        if num_nodes * num_replicates < np.iinfo(np.int32).max
        else np.int64
    )


def canonical_entries(
    packed: np.ndarray,
    num_nodes: int,
    length: int,
    num_replicates: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble packed records into canonical ``(indptr, state, hop, keys)``.

    Canonical order is ``(hit, state)``.  States are unique within a hit
    node (first-visit dedup), so the key is a strict total order: the
    assembled arrays are *independent of record generation order* — for
    a fixed ``(seed, chunk_rows)``, every backend lands on
    byte-identical arrays, which is what lets the
    differential harness compare engines strictly.  (``chunk_rows``
    itself still matters: it shapes the stream consumption and hence the
    walks.)  ``packed`` holds one :class:`~repro.walks.records.RecordPacker`
    ``int64`` per record (the packer also range-checks ``(n, R, L)``), as
    :func:`~repro.walks.records.first_visit_records` returns them.  The
    records are value-sorted in place, ``indptr`` is read off the sorted
    records by binary search
    (:meth:`~repro.walks.records.RecordPacker.indptr`), and they are
    decoded, so ``packed`` becomes ``keys``: the sorted ``hit * n R +
    state`` keys, which the dynamic index maintains across patches.
    """
    packer = RecordPacker(num_nodes, num_replicates, length)
    indptr, keys, hop = packer.sort_decode(packed)
    state = np.empty(keys.size, dtype=entry_state_dtype(num_nodes, num_replicates))
    np.remainder(keys, packer.num_states, out=state, casting="unsafe")
    return indptr, state, hop, keys


class InvertedIndex:
    """Paper-faithful ``I[1:R][1:n]`` built per Algorithm 3.

    ``lists[i][v]`` is the (insertion-ordered) list of :class:`IndexEntry`
    for replicate ``i`` and hit node ``v``.
    """

    def __init__(self, num_nodes: int, length: int, num_replicates: int):
        _validate_params(num_nodes, length, num_replicates)
        self.num_nodes = num_nodes
        self.length = length
        self.num_replicates = num_replicates
        self.lists: list[list[list[IndexEntry]]] = [
            [[] for _ in range(num_nodes)] for _ in range(num_replicates)
        ]

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        length: int,
        num_replicates: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> "InvertedIndex":
        """Algorithm 3: run ``R`` walks per node and index first visits."""
        rng = resolve_rng(seed)
        index = cls(graph.num_nodes, length, num_replicates)
        for walker in range(graph.num_nodes):
            for i in range(num_replicates):
                walk = random_walk(graph, walker, length, seed=rng)
                index._insert_walk(i, walk)
        return index

    @classmethod
    def from_walks(
        cls,
        walks: "Sequence[Sequence[int]] | np.ndarray",
        num_nodes: int,
        num_replicates: int,
    ) -> "InvertedIndex":
        """Build from pre-generated walks in walker-major order.

        ``walks[w * R + i]`` must be replicate ``i`` of walker ``w``; every
        walk must start at its walker and have ``L + 1`` positions.
        """
        walks = [list(map(int, walk)) for walk in walks]
        if len(walks) != num_nodes * num_replicates:
            raise ParameterError(
                f"expected {num_nodes * num_replicates} walks, got {len(walks)}"
            )
        length = len(walks[0]) - 1 if walks else 0
        index = cls(num_nodes, length, num_replicates)
        for b, walk in enumerate(walks):
            if len(walk) != length + 1:
                raise ParameterError("all walks must have the same length")
            if walk[0] != b // num_replicates:
                raise ParameterError(
                    f"walk {b} starts at {walk[0]}, expected {b // num_replicates}"
                )
            index._insert_walk(b % num_replicates, walk)
        return index

    def _insert_walk(self, replicate: int, walk: Sequence[int]) -> None:
        """Index the first visits of one walk (Algorithm 3 lines 4-14)."""
        walker = walk[0]
        visited = {walker}
        for hop, node in enumerate(walk[1:], start=1):
            if node in visited:
                continue
            visited.add(node)
            self.lists[replicate][node].append(IndexEntry(walker=walker, hop=hop))

    # ------------------------------------------------------------------
    def entries(self, replicate: int, node: int) -> list[IndexEntry]:
        """Entries of ``I[replicate][node]``."""
        return self.lists[replicate][node]

    @property
    def total_entries(self) -> int:
        """Number of records across all replicates and nodes."""
        return sum(
            len(bucket) for replicate in self.lists for bucket in replicate
        )

    def to_flat(self) -> "FlatWalkIndex":
        """Convert to the array representation (same entries, assembled
        into the canonical ``(hit, state)`` order every builder emits)."""
        states: list[int] = []
        hops: list[int] = []
        hits: list[int] = []
        n = self.num_nodes
        for replicate in range(self.num_replicates):
            for node in range(n):
                for entry in self.lists[replicate][node]:
                    states.append(replicate * n + entry.walker)
                    hops.append(entry.hop)
                    hits.append(node)
        return FlatWalkIndex._from_records(
            np.asarray(hits, dtype=np.int64),
            np.asarray(states, dtype=np.int64),
            np.asarray(hops, dtype=np.int64),
            num_nodes=n,
            length=self.length,
            num_replicates=self.num_replicates,
        )


class FlatWalkIndex:
    """Array-backed inverted index grouped by hit node.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; entries whose hit node is ``v``
        occupy ``[indptr[v], indptr[v+1])`` in the flat arrays.
    state:
        Per-entry index ``replicate * n + walker`` into the flattened
        ``D[R, n]`` matrix of Algorithms 4-6 (``int32`` when it fits).
    hop:
        Per-entry first-visit hop (``int16``; hops are ``<= L``).

    The arrays are plain ndarrays: in RAM for a fresh build, read-only
    views over the archive's memory maps for a loaded one
    (:func:`repro.walks.persistence.load_index`).  Consumers read them
    whole (a full gain sweep) or as one hit node's slice
    (:meth:`entries_for`).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        state: np.ndarray,
        hop: np.ndarray,
        num_nodes: int = 0,
        length: int = 0,
        num_replicates: int = 1,
    ):
        _validate_params(num_nodes, length, num_replicates)
        if indptr.size != num_nodes + 1:
            raise ParameterError("indptr must have n + 1 entries")
        if state.size != indptr[-1] or hop.size != state.size:
            raise ParameterError("state/hop size must match indptr[-1]")
        self.indptr = indptr
        self.state = state
        self.hop = hop
        self.num_nodes = num_nodes
        self.length = length
        self.num_replicates = num_replicates

    def storage_nbytes(self) -> int:
        """Bytes of the three arrays (held in RAM or mapped from disk)."""
        return int(self.indptr.nbytes + self.state.nbytes + self.hop.nbytes)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        length: int,
        num_replicates: int,
        seed: "int | np.random.Generator | None" = None,
        chunk_rows: int = 1 << 19,
        engine: "str | WalkEngine | None" = None,
    ) -> "FlatWalkIndex":
        """Vectorized Algorithm 3.

        Delegates walk generation *and* record extraction to the walk
        backend (:meth:`~repro.walks.backends.WalkEngine.iter_walk_records`):
        walks are produced in chunks of ``chunk_rows`` rows and reduced to
        first-visit records before the next chunk starts, so peak memory
        is ``O(chunk_rows * L)`` plus the final entry arrays.  Every
        registered backend builds a **byte-identical** index under the
        same ``(seed, chunk_rows)``; entries land in canonical
        ``(hit, state)`` order regardless of the order records arrive in.

        The walks come from the default csr engine unless ``engine``
        names another (:mod:`repro.walks.backends`).  The record stream
        feeds the in-memory case of the external-sort pipeline of
        :mod:`repro.walks.build` (DESIGN.md §15): each chunk's records are
        packed, one ``int64`` each, straight into the sink's one record
        buffer, the filled prefix is value-sorted in place, and the entry
        writer decodes it block by block into the ``state`` and ``hop``
        columns.  Each stage runs under its ``index.build.*`` span.  To
        cap the build's memory, write an archive with
        :func:`repro.walks.build.build_index_archive` and a
        ``memory_budget`` instead: it writes the bytes ``save_index``
        writes for this index.
        """
        rng = resolve_rng(seed)
        walk_engine = get_engine(engine)
        n = graph.num_nodes
        _validate_params(n, length, num_replicates)
        # Lazy: build.py imports this module at top level.
        from repro.walks.build import DenseEntryWriter, ExternalSortSink

        started = time.perf_counter()
        with obs.span(
            "index.build", engine=walk_engine.name, num_nodes=n,
            length=length, num_replicates=num_replicates,
        ):
            with ExternalSortSink(n, num_replicates, length) as sink:
                sink.consume_all(_walk_records(
                    walk_engine, graph, length, num_replicates, sink, rng,
                    chunk_rows,
                ))
                indptr, state_arr, hop_arr = sink.finalize(
                    DenseEntryWriter(n, num_replicates)
                )
            index = cls(
                indptr=indptr, state=state_arr, hop=hop_arr, num_nodes=n,
                length=length, num_replicates=num_replicates,
            )
        if obs.enabled():
            obs.inc(
                "index_builds_total",
                help="Flat walk-index builds.",
                engine=walk_engine.name,
            )
            obs.inc(
                "index_entries_total",
                index.total_entries,
                help="Index entries produced by builds.",
            )
            obs.observe(
                "index_build_seconds",
                time.perf_counter() - started,
                help="Walk-index build wall time.",
                engine=walk_engine.name,
            )
        return index

    @classmethod
    def from_walks(
        cls,
        walks: "Sequence[Sequence[int]] | np.ndarray",
        num_nodes: int,
        num_replicates: int,
    ) -> "FlatWalkIndex":
        """Build from explicit walker-major walks (test/injection path).

        ``walks[w * R + i]`` must be replicate ``i`` of walker ``w``, with
        equal lengths and every node in ``[0, n)`` — the layout
        :meth:`InvertedIndex.from_walks` accepts.  The walks then take the
        production path of :meth:`build`: packed first-visit records
        through the external sorter, so tests that compare this index
        with the paper's :class:`InvertedIndex` on shared walks check
        the production extraction.
        """
        # Lazy: build.py imports this module at top level.
        from repro.walks.build import DenseEntryWriter, ExternalSortSink

        if isinstance(walks, np.ndarray) and walks.ndim == 2:
            matrix = walks
        else:
            rows = [list(map(int, walk)) for walk in walks]
            if len({len(row) for row in rows}) > 1:
                raise ParameterError("all walks must have the same length")
            width = len(rows[0]) if rows else 1
            matrix = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        starts = walker_major_starts(num_nodes, num_replicates)
        if matrix.shape[0] != starts.size:
            raise ParameterError(
                f"expected {starts.size} walks, got {matrix.shape[0]}"
            )
        length = matrix.shape[1] - 1
        _validate_params(num_nodes, length, num_replicates)
        wrong = np.flatnonzero(matrix[:, 0] != starts)
        if wrong.size:
            b = int(wrong[0])
            raise ParameterError(
                f"walk {b} starts at {matrix[b, 0]}, "
                f"expected {b // num_replicates}"
            )
        if matrix.size and (matrix.min() < 0 or matrix.max() >= num_nodes):
            raise ParameterError("walk nodes out of range")
        states = _walker_major_states(num_nodes, num_replicates)
        with ExternalSortSink(num_nodes, num_replicates, length) as sink:
            sink.consume(first_visit_records(
                matrix, states, sink.packer, out=sink.vacant()
            )[0])
            indptr, state, hop = sink.finalize(
                DenseEntryWriter(num_nodes, num_replicates)
            )
        return cls(
            indptr=indptr, state=state, hop=hop, num_nodes=num_nodes,
            length=length, num_replicates=num_replicates,
        )

    @classmethod
    def _from_records(
        cls,
        hits: np.ndarray,
        states: np.ndarray,
        hops: np.ndarray,
        num_nodes: int,
        length: int,
        num_replicates: int,
    ) -> "FlatWalkIndex":
        _validate_params(num_nodes, length, num_replicates)
        packer = RecordPacker(num_nodes, num_replicates, length)
        indptr, state, hop, _ = canonical_entries(
            packer.pack(hits, states, hops), num_nodes, length,
            num_replicates,
        )
        return cls(
            indptr=indptr,
            state=state,
            hop=hop,
            num_nodes=num_nodes,
            length=length,
            num_replicates=num_replicates,
        )

    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """Number of records across all replicates and nodes."""
        return int(self.indptr[-1])

    def entries_for(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(state, hop)`` views of the entries whose hit node is ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        lo, hi = int(self.indptr[node]), int(self.indptr[node + 1])
        return self.state[lo:hi], self.hop[lo:hi]

    def states_for(self, node: int) -> np.ndarray:
        """The ``state`` view alone for one hit node (f2 never reads hops)."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node {node} out of range")
        return self.state[int(self.indptr[node]) : int(self.indptr[node + 1])]

    def entry_records(self, node: int) -> list[tuple[int, int, int]]:
        """Readable ``(replicate, walker, hop)`` triples for one hit node,
        sorted — convenience for tests and debugging."""
        state, hop = self.entries_for(node)
        reps = state.astype(np.int64) // self.num_nodes
        walkers = state.astype(np.int64) % self.num_nodes
        return sorted(zip(reps.tolist(), walkers.tolist(), hop.tolist()))

    def same_entries(self, other: "FlatWalkIndex") -> bool:
        """Whether two indexes hold the same records, order-insensitively.

        Every current builder (static, dynamic, all walk backends) emits
        canonical ``(hit, state)`` order, so equal indexes are nowadays
        also array-equal; this order-insensitive comparison remains for
        archives written by older versions, whose entries kept insertion
        order.  No consumer depends on the order either way (every gain
        is a sum over a hit node's slice).
        """
        if (
            self.num_nodes != other.num_nodes
            or self.length != other.length
            or self.num_replicates != other.num_replicates
            or not np.array_equal(self.indptr, other.indptr)
        ):
            return False
        span = self.num_states  # hops fit far below this, keys cannot collide
        owners = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )

        def keys(index: "FlatWalkIndex") -> np.ndarray:
            raw = (
                owners * (span * (self.length + 1))
                + index.state.astype(np.int64) * (self.length + 1)
                + index.hop.astype(np.int64)
            )
            return np.sort(raw)

        return np.array_equal(keys(self), keys(other))

    def selection_metrics(self, targets) -> dict:
        """Sampled coverage and AHT of a target set, from the entries alone.

        Same quantities and conventions as
        :meth:`repro.dynamic.index.DynamicWalkIndex.selection_metrics`,
        which scans the materialized walk matrix — here computed from the
        inverted entries instead: a walk's first hit of the target *set*
        is the minimum of its first-visit hops over the targets (an
        earlier set hit would itself be a first visit of some target),
        with hop 0 on the targets' own walks.  ``coverage`` counts states
        whose walk hits the targets within ``L`` hops (hop 0 included —
        the F2 estimator's convention) and ``aht`` is the mean truncated
        first-hit hop (misses count ``L``, the F1 estimator's
        convention).  The two implementations agree exactly on the same
        underlying walks, which is what lets the serving layer
        (:mod:`repro.serve`) answer metrics queries from an index
        snapshot without the walks.
        """
        target_ids = np.asarray(
            sorted({int(v) for v in targets}), dtype=np.int64
        )
        if target_ids.size and (
            target_ids[0] < 0 or target_ids[-1] >= self.num_nodes
        ):
            raise ParameterError("targets out of range")
        total = self.num_states
        covered = np.zeros(total, dtype=bool)
        first = np.full(total, self.length, dtype=np.int64)
        for v in target_ids:
            state, hop = self.entries_for(int(v))
            state = state.astype(np.int64)
            covered[state] = True
            # States are unique within one hit node's slice (first-visit
            # dedup), so fancy assignment is race-free per target.
            first[state] = np.minimum(first[state], hop)
        if target_ids.size:
            self_states = (
                target_ids[None, :]
                + np.int64(self.num_nodes)
                * np.arange(self.num_replicates, dtype=np.int64)[:, None]
            ).ravel()
            covered[self_states] = True
            first[self_states] = 0
        num_covered = int(covered.sum())
        return {
            "coverage": num_covered,
            "coverage_fraction": num_covered / total if total else 0.0,
            "aht": float(first.mean()) if total else float("nan"),
            "num_states": total,
        }

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of ``(replicate, walker)`` states — cells of ``D``."""
        return self.num_nodes * self.num_replicates
