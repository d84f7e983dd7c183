"""Incrementally maintained walk index (DESIGN.md §9.2).

The static :meth:`~repro.walks.index.FlatWalkIndex.build` threads one RNG
stream through all ``n * R`` walks, so a single edge edit perturbs every
walk sampled after it — nothing short of a full rebuild reproduces the
same index.  :class:`DynamicWalkIndex` removes that coupling with *frozen
uniforms*: at build time it records the exact per-``(walk, hop)`` uniform
draws the selected walk engine consumes, making every trajectory a pure
deterministic function of ``(uniforms[row], graph)``.

That functional form yields the two properties this module is built on:

* **Locality.**  A walk can only change if it *visits a modified node with
  hops still left to take* — everywhere else the frozen uniforms map onto
  unchanged neighbor lists and reproduce the old trajectory step for step.
  The dirty set of an edit batch is therefore derivable from the cached
  trajectories alone.
* **Bit-identity.**  Re-walking exactly the dirty rows against the edited
  graph produces the same walk matrix — and, after patching the CSR-by-hit
  entry arrays, the same index — as a from-scratch
  :meth:`DynamicWalkIndex.build` on the edited graph with the same seed
  material.  ``tests/test_dynamic.py`` pins this with a hypothesis
  property over both walk engines, and
  ``benchmarks/bench_dynamic_updates.py`` gates it (plus a >= 5x
  end-to-end speedup) in CI.

Entries are kept in the *canonical* order — grouped by hit node, sorted
by state within each group — that every builder in the package now emits
(the static builder canonicalizes in
:meth:`~repro.walks.index.FlatWalkIndex._from_records`).  A dynamic
index is therefore byte-identical — not merely set-equivalent — to a
static rebuild whenever the ``n · R`` batch fits one static-build chunk
(``chunk_rows``, default ``2**19``); past that the static builder's
chunked stream consumption legitimately produces different *walks*, so
only the full-batch frozen-uniform discipline here is authoritative.
Canonical order is also what keeps edits cheap: a patch removes and
merges instead of re-sorting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.engine import batch_first_hits
from repro.walks.index import (
    FlatWalkIndex,
    _validate_params,
    canonical_entries,
    walker_major_starts,
)
from repro.walks.records import (
    RecordPacker,
    canonical_record_key,
    first_visit_records as _first_visit_records,
)
from repro.dynamic.graph import DynamicGraph, EditBatch, edit_graph

__all__ = [
    "DynamicWalkIndex",
    "DynamicUpdateStats",
    "replay_walks",
    "engine_uniforms",
]


def _resolve_entropy(seed: "int | None") -> int:
    """Seed material for the frozen uniform stream.

    The dynamic index must be able to *regenerate* its uniforms (e.g.
    after a journal-aware snapshot reload), so only replayable seeds are
    accepted: an ``int``, or ``None`` for one fresh entropy draw that is
    then recorded.  A caller-managed ``Generator`` has hidden state and is
    rejected.
    """
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ParameterError("integer seeds must be non-negative")
        return int(seed)
    raise ParameterError(
        "DynamicWalkIndex needs a replayable seed (int or None); a "
        "Generator instance cannot be re-derived for incremental updates"
    )


def engine_uniforms(entropy: int, batch: int, length: int) -> np.ndarray:
    """The uniform draws a walk engine consumes for one full batch call.

    Returns a walk-major ``(B, L)`` array: ``out[b, t - 1]`` is the
    uniform that decides walk ``b``'s hop ``t`` — walk-major so the
    incremental path can slice a dirty-row subset with contiguous reads.
    Every registered backend burns exactly one ``rng.random(batch)`` per
    hop from a single PCG64 stream, which is precisely
    ``default_rng(entropy).random((L, B))`` read row by row, so one
    frozen-uniform discipline reproduces all of them.
    """
    return np.ascontiguousarray(
        np.random.default_rng(entropy).random((length, batch)).T
    )


def replay_walks(
    graph: Graph, starts: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Deterministic walk kernel: trajectories from frozen uniforms.

    Mirrors :func:`repro.walks.engine.batch_walks` exactly — same
    ``floor(u * deg)`` neighbor choice, same stay-put dangling convention,
    one uniform consumed per walk per hop — but reads the uniforms from
    ``uniforms[:, t - 1]`` (walk-major, see :func:`engine_uniforms`)
    instead of an RNG, so any subset of rows can be recomputed
    independently of the rest of the batch.  Returns the ``(B, L + 1)``
    walk matrix.
    """
    starts = np.asarray(starts, dtype=np.int64)
    batch = starts.size
    if uniforms.ndim != 2 or uniforms.shape[0] != batch:
        raise ParameterError("uniforms must have shape (len(starts), L)")
    length = uniforms.shape[1]
    if batch and (starts.min() < 0 or starts.max() >= graph.num_nodes):
        raise ParameterError("start nodes out of range")
    walks = np.empty((batch, length + 1), dtype=np.int32)
    walks[:, 0] = starts
    if length == 0 or batch == 0:
        return walks
    indptr = graph.indptr
    indices = graph.indices
    degrees = graph.degrees
    current = starts.copy()
    for t in range(1, length + 1):
        deg = degrees[current]
        movable = deg > 0
        offsets = (uniforms[:, t - 1] * deg).astype(np.int64)
        nxt = current.copy()
        rows = current[movable]
        nxt[movable] = indices[indptr[rows] + offsets[movable]]
        walks[:, t] = nxt
        current = nxt
    return walks


@dataclass(frozen=True)
class DynamicUpdateStats:
    """What one :meth:`DynamicWalkIndex.sync` (or batch) actually did."""

    batches: int
    edits: int
    resampled_rows: int
    total_rows: int
    entries_removed: int
    entries_added: int

    @property
    def resampled_fraction(self) -> float:
        """Share of materialized walks that had to be regenerated."""
        return self.resampled_rows / self.total_rows if self.total_rows else 0.0


class DynamicWalkIndex:
    """A :class:`~repro.walks.index.FlatWalkIndex` that survives edge churn.

    Attributes
    ----------
    graph:
        The snapshot the index currently describes.
    flat:
        The maintained index in canonical ``(hit, state)`` order — feed it
        anywhere a :class:`FlatWalkIndex` is accepted (``approx_greedy_fast
        (index=...)``, :class:`~repro.core.approx_fast.FastApproxEngine`,
        ...).
    walks:
        The materialized ``(n * R, L + 1)`` trajectories in walker-major
        row order (row ``b`` is replicate ``b % R`` of walker ``b // R``).
    epoch:
        Journal position: how many edit batches have been folded in.
    """

    def __init__(
        self,
        graph: Graph,
        flat: FlatWalkIndex,
        walks: np.ndarray,
        seed_entropy: int,
        engine_name: str,
        epoch: int = 0,
        uniforms: "np.ndarray | None" = None,
        keys: "np.ndarray | None" = None,
    ):
        self.graph = graph
        self.flat = flat
        self.walks = walks
        self.seed_entropy = int(seed_entropy)
        self.engine_name = engine_name
        self.epoch = int(epoch)
        self._uniforms = uniforms
        # Canonical sort keys `hit * num_states + state`, maintained in
        # lock-step with the entry arrays so a patch can locate removals
        # by binary search instead of recomputing or re-sorting.
        self._keys = keys
        # Reusable splice buffers (internal arrays only — never aliased
        # into the exposed FlatWalkIndex), so steady-state syncs do not
        # re-fault fresh pages every batch.  `_spare_keys` ping-pongs
        # with the live keys backing.
        self._scratch: dict = {}
        self._spare_keys: "np.ndarray | None" = None
        self._packer = RecordPacker(
            flat.num_nodes, flat.num_replicates, flat.length
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        length: int,
        num_replicates: int,
        seed: "int | None" = None,
        engine: "str | WalkEngine | None" = None,
    ) -> "DynamicWalkIndex":
        """Materialize walks and index under frozen per-walk uniforms.

        The trajectories are bit-identical to what
        ``engine.batch_walks(graph, starts, L, seed=default_rng(seed))``
        produces for the full walker-major batch — the frozen-uniform
        replay consumes the same stream the engine would.  Both builders
        emit canonical ``(hit, state)`` order, so when the batch fits
        one static-build chunk (``n · R <= chunk_rows``) the entry
        arrays are byte-identical to the static builder's too; for
        larger batches the static builder's per-chunk stream consumption
        yields different walks, and this full-batch discipline is the
        one the incremental machinery reproduces.
        """
        _validate_params(graph.num_nodes, length, num_replicates)
        walk_engine = get_engine(engine)
        # Every registered backend consumes the same stream, so one
        # frozen-uniform discipline reproduces them all.
        entropy = _resolve_entropy(seed)
        n = graph.num_nodes
        starts = walker_major_starts(n, num_replicates)
        uniforms = engine_uniforms(entropy, starts.size, length)
        walks = replay_walks(graph, starts, uniforms)
        states = _states_of_rows(np.arange(starts.size), n, num_replicates)
        packer = RecordPacker(n, num_replicates, length)
        flat, keys = _canonical_flat(
            _first_visit_records(walks, states, packer)[0], packer,
            num_replicates,
        )
        return cls(
            graph=graph,
            flat=flat,
            walks=walks,
            seed_entropy=entropy,
            engine_name=walk_engine.name,
            uniforms=uniforms,
            keys=keys,
        )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.flat.num_nodes

    @property
    def length(self) -> int:
        return self.flat.length

    @property
    def num_replicates(self) -> int:
        return self.flat.num_replicates

    @property
    def num_states(self) -> int:
        return self.flat.num_states

    @property
    def total_entries(self) -> int:
        return self.flat.total_entries

    @property
    def keys(self) -> np.ndarray:
        """Maintained canonical sort keys ``hit * num_states + state``.

        Rebuilt once from the entry arrays after a snapshot reload; kept
        in lock-step with them by every patch.
        """
        if self._keys is None:
            owners = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64),
                np.diff(self.flat.indptr),
            )
            self._keys = canonical_record_key(
                owners, self.flat.state, self.num_states
            )
        return self._keys

    def _buffer(self, name: str, size: int, dtype) -> np.ndarray:
        """A pooled scratch array of at least ``size`` (grown 1.25x)."""
        cached = self._scratch.get(name)
        if cached is None or cached.size < size or cached.dtype != dtype:
            cached = np.empty(max(size, int(size * 1.25)), dtype=dtype)
            self._scratch[name] = cached
        return cached[:size]

    @property
    def uniforms(self) -> np.ndarray:
        """The frozen ``(n R, L)`` uniform stream (regenerated on demand).

        Journal-aware snapshots persist only the seed material, not the
        14-bytes-per-hop stream itself; the first incremental update after
        a reload regenerates it from the seed entropy.
        """
        if self._uniforms is None:
            self._uniforms = engine_uniforms(
                self.seed_entropy, self.walks.shape[0], self.length
            )
        return self._uniforms

    # ------------------------------------------------------------------
    def sync(self, dynamic_graph: DynamicGraph) -> DynamicUpdateStats:
        """Fold in every journal batch this index has not yet absorbed.

        The index may lag the journal by any number of batches; each is
        replayed in order against the matching intermediate snapshot, so
        after ``sync`` the index is exactly what :meth:`build` would
        produce on ``dynamic_graph.graph``.
        """
        if dynamic_graph.num_nodes != self.num_nodes:
            raise ParameterError(
                "dynamic graph and index disagree on the node count"
            )
        journal = dynamic_graph.journal
        if self.epoch > len(journal):
            raise ParameterError(
                f"index is at epoch {self.epoch} but the journal only has "
                f"{len(journal)} batches — wrong DynamicGraph?"
            )
        totals = [0, 0, 0, 0, 0]
        last_epoch = len(journal)
        for batch in journal[self.epoch :]:
            # The final snapshot is already materialized on the journal
            # owner; intermediate snapshots are re-derived per batch.
            known = dynamic_graph.graph if batch.epoch == last_epoch else None
            stats = self.apply_batch(batch, graph=known)
            totals[0] += stats.batches
            totals[1] += stats.edits
            totals[2] += stats.resampled_rows
            totals[3] += stats.entries_removed
            totals[4] += stats.entries_added
        return DynamicUpdateStats(
            batches=totals[0],
            edits=totals[1],
            resampled_rows=totals[2],
            total_rows=self.walks.shape[0],
            entries_removed=totals[3],
            entries_added=totals[4],
        )

    def apply_batch(
        self, batch: EditBatch, graph: "Graph | None" = None
    ) -> DynamicUpdateStats:
        """Apply one canonical :class:`EditBatch` (delete + insert edges).

        Derives the dirty set from the cached trajectories, re-walks only
        those rows under their frozen uniforms, and patches the entry
        arrays in place.
        ``graph`` may supply the already-edited snapshot (trusted to equal
        ``edit_graph(self.graph, batch...)``) to skip re-deriving it.
        """
        new_graph = (
            graph
            if graph is not None
            else edit_graph(self.graph, batch.inserts, batch.deletes)
        )
        rows = self._dirty_rows(batch.modified_nodes())
        removed = added = 0
        path = "noop"
        with obs.span(
            "dynamic.apply_batch", edits=batch.num_edits,
            resampled_rows=int(rows.size),
        ):
            if rows.size:
                replicates = self.num_replicates
                new_walks = replay_walks(
                    new_graph, rows // replicates, self.uniforms[rows]
                )
                if rows.size * 4 > self.walks.shape[0]:
                    # Past ~25% dirty, the sorted-merge splice moves more
                    # memory than simply re-extracting and re-sorting all
                    # records from the (mostly cached) walk matrix.
                    path = "rebuild"
                    dirty_states = _states_of_rows(
                        rows, self.num_nodes, replicates
                    )
                    removed = int(_first_visit_records(
                        self.walks[rows], dirty_states, self._packer
                    )[0].size)
                    before = self.flat.total_entries
                    self.walks[rows] = new_walks
                    self._rebuild_entries_from_walks()
                    added = self.flat.total_entries - before + removed
                else:
                    path = "incremental"
                    removed, added = self._patch_entries(rows, new_walks)
                    self.walks[rows] = new_walks
        if obs.enabled():
            obs.inc(
                "dynamic_updates_total",
                help="Edit batches applied, by update strategy.",
                path=path,
            )
            obs.observe(
                "dynamic_resampled_rows",
                int(rows.size),
                buckets=obs.COUNT_BUCKETS,
                help="Walk rows resampled per edit batch.",
            )
        self.graph = new_graph
        self.epoch += 1
        return DynamicUpdateStats(
            batches=1,
            edits=batch.num_edits,
            resampled_rows=int(rows.size),
            total_rows=self.walks.shape[0],
            entries_removed=removed,
            entries_added=added,
        )

    # ------------------------------------------------------------------
    def _rebuild_entries_from_walks(self) -> None:
        """Re-derive the entry arrays from the (updated) walk matrix.

        The large-batch path: same canonical result as the merge splice,
        reached by the same extraction + sort the from-scratch build uses
        — minus the walk generation, which is the part incremental
        maintenance always avoids.
        """
        states = _states_of_rows(
            np.arange(self.walks.shape[0]), self.num_nodes,
            self.num_replicates,
        )
        self.flat, self._keys = _canonical_flat(
            _first_visit_records(self.walks, states, self._packer)[0],
            self._packer, self.num_replicates,
        )
        self._spare_keys = None

    def _dirty_rows(self, touched: np.ndarray) -> np.ndarray:
        """Walk rows whose trajectory must be resampled for an edit.

        A walk changes only if it stands on a modified node with at least
        one hop left (positions ``0 .. L-1``).  The index itself answers
        that without scanning the walk matrix: a walk visits node ``v``
        iff ``v`` is its walker (position 0) or the walk first-visits
        ``v`` (an entry — later revisits imply an earlier first visit).
        Only a first visit *at hop L exactly* is a visit with no hops
        left, so the dirty set is the touched nodes' entry states with
        ``hop < L`` plus all rows of the touched walkers — ``O(entries of
        touched nodes)`` instead of ``O(n R L)``.  The rows are marked in a
        boolean mask over the walk rows and read back with
        ``np.flatnonzero``: ascending and unique, like ``np.unique`` of
        their concatenation, without its sort or hash pass.
        """
        n = self.num_nodes
        replicates = self.num_replicates
        length = self.length
        if length == 0 or touched.size == 0 or self.walks.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        dirty = np.zeros(self.walks.shape[0], dtype=bool)
        for v in touched:
            states, hops = self.flat.entries_for(int(v))
            states = states[hops < length].astype(np.int64)
            dirty[(states % n) * replicates + states // n] = True
        dirty.reshape(n, replicates)[touched] = True
        return np.flatnonzero(dirty)

    # ------------------------------------------------------------------
    def _patch_entries(
        self, rows: np.ndarray, new_walks: np.ndarray
    ) -> tuple[int, int]:
        """Splice the resampled rows' records into the canonical arrays.

        Drops every entry owned by a dirty state, extracts the fresh
        records, and merges them back with one ``searchsorted`` over the
        maintained canonical keys — ``O(E + C log E)`` for ``C`` changed
        records, never a full re-sort.  The removed records come from the
        dirty rows' *old* trajectories (their first visits are exactly
        the entries being dropped), and the new ``indptr`` is the old one
        minus the removed records' offsets plus the fresh records', both
        read off their sorted arrays
        (:meth:`~repro.walks.records.RecordPacker.indptr`), so no
        full-length pass beyond the keep/merge splice itself is needed.
        """
        n = self.num_nodes
        replicates = self.num_replicates
        num_states = self.num_states
        packer = self._packer
        flat = self.flat
        keys = self.keys
        dirty_states = _states_of_rows(rows, n, replicates)

        # The entries to drop are exactly the first visits of the dirty
        # rows' *old* trajectories, so their positions come from binary
        # search over the maintained keys — no full-length gather.  The
        # sorted packed records shifted past the hop bits are their keys.
        old_keys = _first_visit_records(
            self.walks[rows], dirty_states, packer
        )[0]
        old_keys.sort()
        old_indptr = packer.indptr(old_keys)
        old_keys >>= packer.hop_bits
        removed_pos = np.searchsorted(keys, old_keys)
        if old_keys.size and (
            removed_pos[-1] >= keys.size
            or not np.array_equal(keys[removed_pos], old_keys)
        ):
            raise ParameterError(
                "walk index is inconsistent with its cached trajectories "
                "(was the walks matrix mutated externally?)"
            )
        keep = self._buffer("keep", keys.size, bool)
        keep[:] = True
        keep[removed_pos] = False
        kept_keys = keys[keep]
        kept_state = flat.state[keep]
        kept_hop = flat.hop[keep]

        fresh = _first_visit_records(new_walks, dirty_states, packer)[0]
        new_indptr, new_keys, new_hops = packer.sort_decode(fresh)

        positions = np.searchsorted(kept_keys, new_keys)
        total = kept_keys.size + new_keys.size
        new_slots = positions + np.arange(new_keys.size, dtype=np.int64)
        kept_mask = self._buffer("kept_mask", total, bool)
        kept_mask[:] = True
        kept_mask[new_slots] = False
        # The merged keys land in the spare backing; the current keys'
        # backing becomes next batch's spare (ping-pong, zero copies).
        # The exposed entry arrays are allocated fresh — consumers may
        # hold references to the previous ones; only scratch is pooled.
        spare = self._spare_keys
        if spare is None or spare.size < total:
            spare = np.empty(max(total, int(total * 1.25)), dtype=np.int64)
        merged_keys = spare[:total]
        merged_keys[kept_mask] = kept_keys
        merged_keys[new_slots] = new_keys
        merged_state = np.empty(total, dtype=flat.state.dtype)
        merged_state[kept_mask] = kept_state
        merged_state[new_slots] = new_keys % num_states
        merged_hop = np.empty(total, dtype=np.int16)
        merged_hop[kept_mask] = kept_hop
        merged_hop[new_slots] = new_hops
        indptr = flat.indptr - old_indptr
        indptr += new_indptr
        self.flat = FlatWalkIndex(
            indptr=indptr,
            state=merged_state,
            hop=merged_hop,
            num_nodes=n,
            length=self.length,
            num_replicates=replicates,
        )
        retiring = self._keys
        self._spare_keys = (
            retiring.base if retiring.base is not None else retiring
        )
        self._keys = merged_keys
        return int(old_keys.size), int(new_keys.size)

    # ------------------------------------------------------------------
    def selection_metrics(self, targets) -> dict:
        """Sampled coverage and AHT of a target set on the current index.

        ``coverage`` counts states whose walk hits the targets within
        ``L`` hops (hop 0 included — the F2 estimator's convention), and
        ``aht`` is the mean truncated first-hit hop (misses count ``L``,
        the F1 estimator's convention).
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        targets = np.asarray(list(targets), dtype=np.int64)
        if targets.size and (
            targets.min() < 0 or targets.max() >= self.num_nodes
        ):
            raise ParameterError("targets out of range")
        mask[targets] = True
        total = self.walks.shape[0]
        first = batch_first_hits(self.walks, mask)
        covered = int((first >= 0).sum())
        truncated = np.where(first >= 0, first, self.length)
        return {
            "coverage": covered,
            "coverage_fraction": covered / total if total else 0.0,
            "aht": float(truncated.mean()) if total else float("nan"),
            "num_states": total,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicWalkIndex(n={self.num_nodes}, R={self.num_replicates}, "
            f"L={self.length}, entries={self.total_entries}, "
            f"epoch={self.epoch}, engine={self.engine_name!r})"
        )


# ----------------------------------------------------------------------
def _states_of_rows(
    rows: np.ndarray, num_nodes: int, num_replicates: int
) -> np.ndarray:
    """Flattened ``D`` state ids of walker-major walk rows.

    Row ``b`` is replicate ``b % R`` of walker ``b // R``; its state is
    ``(b % R) * n + b // R``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return (rows % num_replicates) * num_nodes + rows // num_replicates


def _canonical_flat(
    packed: np.ndarray,
    packer: RecordPacker,
    num_replicates: int,
) -> tuple[FlatWalkIndex, np.ndarray]:
    """Assemble packed records into canonical ``(hit, state)`` order.

    The layout is independent of record generation order
    (:func:`~repro.walks.index.canonical_entries`) — the property that
    lets incremental patches merge instead of re-sorting.  Returns the
    index and its sorted key array (maintained by the patches).
    """
    indptr, state, hop, keys = canonical_entries(
        packed, packer.num_nodes, packer.length, num_replicates
    )
    flat = FlatWalkIndex(
        indptr=indptr,
        state=state,
        hop=hop,
        num_nodes=packer.num_nodes,
        length=packer.length,
        num_replicates=num_replicates,
    )
    return flat, keys
