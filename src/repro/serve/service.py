"""Concurrent query serving over index snapshots (DESIGN.md §10).

:class:`DominationService` is the online read path the paper's three
scenarios need: many clients concurrently asking selection and coverage
questions against a precomputed walk index — built in process, or loaded
from a v3 archive and served off its read-only memory maps
(:meth:`DominationService.from_index_file`).  Three mechanisms make the
concurrent path cheap without changing a single answer:

* **Immutable snapshots, atomic swap.**  Readers resolve the current
  :class:`~repro.serve.snapshot.IndexSnapshot` with one reference read
  and compute on it to completion; churn maintenance runs against the
  service's *private* :class:`~repro.dynamic.index.DynamicWalkIndex` and
  publishes a fresh snapshot only when the new epoch is fully patched.
  Readers never block on writers and can never observe a half-updated
  index.
* **One greedy prefix per snapshot.**  The lazy greedy's pick order
  does not depend on the budget (the documented
  :class:`~repro.core.result.SelectionResult` contract), so every
  ``select(k)`` is a slice of the longest
  :func:`~repro.core.approx_fast.approx_greedy_fast` run held for that
  objective on the current publish.  A budget past it re-solves once at
  ``max(k, 2 * held)``, so a snapshot costs at most
  ``ceil(log2 k_max) + 1`` solves per objective.  Publishing drops the
  held runs.
* **LRU result cache** for ``metrics``, ``coverage`` and
  ``min_targets``, keyed by ``(graph_fingerprint, epoch, query
  kind, params)`` plus a per-service publish generation — two different
  indexes can legitimately be published for the same graph at the same
  epoch (a reseeded rebuild loaded at epoch 0), and the generation keeps
  their answers apart.  Publishing changes the key prefix and evicts
  every entry from earlier publishes, so a stale answer can never be
  served after a swap.

Every answer is bit-identical to the corresponding direct solver call on
the same snapshot (``benchmarks/bench_serving.py`` gates this in CI):
``select`` ↔ :func:`~repro.core.approx_fast.approx_greedy_fast`,
``metrics``/``coverage`` ↔
:meth:`~repro.walks.index.FlatWalkIndex.selection_metrics`, and
``min_targets`` ↔ :func:`~repro.core.coverage.min_targets_for_coverage`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ParameterError
from repro.core.approx_fast import approx_greedy_fast
from repro.core.coverage import min_targets_for_coverage
from repro.core.result import SelectionResult
from repro.serve.snapshot import IndexSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.dynamic.graph import DynamicGraph
    from repro.dynamic.index import DynamicUpdateStats, DynamicWalkIndex
    from repro.graphs.adjacency import Graph

__all__ = ["DominationService", "ServiceStats", "QUERY_KINDS"]

#: Query kinds accepted by :meth:`DominationService.submit`.
QUERY_KINDS = ("select", "metrics", "coverage", "min_targets")

_OBJECTIVES = ("f1", "f2")


def _fresh_result(result: SelectionResult) -> SelectionResult:
    """A caller-owned copy of a cached result.

    ``SelectionResult`` is frozen but its ``params`` dict is not; handing
    out the cached instance would let one client's mutation poison every
    later cache hit (``metrics`` dicts get the same treatment via
    ``dict(...)`` copies).
    """
    return replace(result, params=dict(result.params))


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service counters (one consistent reading).

    ``kernel_passes`` counts every solver run; ``select_batches`` the
    greedy prefix solves among them, and ``batched_queries`` the
    ``select`` queries answered by slicing a held prefix.
    """

    queries: int
    cache_hits: int
    kernel_passes: int
    select_batches: int
    batched_queries: int
    publishes: int
    epoch: int


class DominationService:
    """Thread-safe query front end over immutable index snapshots.

    Parameters
    ----------
    snapshot:
        The initial :class:`~repro.serve.snapshot.IndexSnapshot` to
        serve from (see :meth:`from_index_file` / :meth:`from_dynamic`).
    max_workers:
        Thread-pool size for :meth:`submit`; synchronous query methods
        run on the caller's thread and are safe from any number of
        threads.
    cache_size:
        Capacity of the LRU cache of ``metrics``, ``coverage`` and
        ``min_targets`` answers, in entries; ``0`` disables it.
    """

    def __init__(
        self,
        snapshot: IndexSnapshot,
        max_workers: int = 4,
        cache_size: int = 256,
    ):
        if max_workers < 1:
            raise ParameterError("max_workers must be >= 1")
        if cache_size < 0:
            raise ParameterError("cache_size must be >= 0")
        # The published state is a single (generation, snapshot) pair so
        # readers resolve both with one atomic reference read.  The
        # generation increments on every publish and participates in
        # cache keys: (fingerprint, epoch) alone cannot distinguish two
        # *different* indexes published for the same graph at the same
        # epoch (e.g. a reseeded rebuild loaded at epoch 0).
        self._current: "tuple[int, IndexSnapshot]" = (0, snapshot)
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._cache_size = int(cache_size)
        self._cache_lock = threading.Lock()
        # Per objective, the longest select solve on the current publish,
        # as (generation, result); installed and dropped under _cache_lock.
        self._prefixes: "dict[str, tuple[int, SelectionResult]]" = {}
        self._prefix_locks = {
            objective: threading.Lock() for objective in _OBJECTIVES
        }
        self._publish_lock = threading.Lock()
        self._maintenance_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters = {
            "queries": 0,
            "cache_hits": 0,
            "kernel_passes": 0,
            "select_batches": 0,
            "batched_queries": 0,
            "publishes": 0,
        }
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="rwdom-serve"
        )
        self._dynamic: "DynamicWalkIndex | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index_file(
        cls,
        path: "str | Path",
        graph: "Graph",
        **kwargs,
    ) -> "DominationService":
        """Serve a persisted index, provenance-checked against ``graph``.

        A stale archive (edited graph, wrong node count) raises
        :class:`~repro.errors.ParameterError` at construction instead of
        quietly serving answers for a topology that no longer exists.
        A v3 archive is served straight off its read-only memory maps.
        """
        return cls(IndexSnapshot.load(path, graph), **kwargs)

    @classmethod
    def from_dynamic(
        cls, dynamic_index: "DynamicWalkIndex", **kwargs
    ) -> "DominationService":
        """Serve a maintained index and enable the churn update path.

        The service takes ownership of ``dynamic_index`` as its private
        maintenance copy — callers must route further edits through
        :meth:`sync` (or re-:meth:`publish` after mutating it) so
        publication stays atomic.
        """
        service = cls(IndexSnapshot.of_dynamic(dynamic_index), **kwargs)
        service._dynamic = dynamic_index
        return service

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (atomic reference read)."""
        return self._current[1]

    @property
    def epoch(self) -> int:
        return self._current[1].epoch

    @property
    def stats(self) -> ServiceStats:
        with self._counter_lock:
            return ServiceStats(
                epoch=self._current[1].epoch, **self._counters
            )

    def describe(self) -> dict:
        """JSON-friendly identity of the served snapshot.

        One atomic ``(generation, snapshot)`` read, so the fields are
        mutually consistent even while publishes race — the HTTP tier
        serves this from ``/healthz``.
        """
        generation, snap = self._current
        return {
            "num_nodes": snap.num_nodes,
            "length": snap.length,
            "num_replicates": snap.index.num_replicates,
            "epoch": snap.epoch,
            "generation": generation,
            "fingerprint": f"{snap.fingerprint:#x}",
        }

    def publish(self, snapshot: IndexSnapshot) -> None:
        """Atomically swap the serving snapshot.

        In-flight queries finish on the snapshot they resolved at entry;
        queries arriving after the swap see only the new one.  Cache
        entries and held greedy prefixes of earlier publishes are dropped
        — they could never be served again anyway, and holding them
        would just crowd out live entries.
        """
        with self._publish_lock:
            generation = self._current[0] + 1
            self._current = (generation, snapshot)
            with self._cache_lock:
                stale = [k for k in self._cache if k[0] != generation]
                for key in stale:
                    del self._cache[key]
                self._prefixes.clear()
        self._count("publishes")

    def sync(self, dynamic_graph: "DynamicGraph") -> "DynamicUpdateStats":
        """Swap-on-churn: absorb journal batches, publish the new epoch.

        Maintenance mutates only the service's private
        :class:`~repro.dynamic.index.DynamicWalkIndex` (incremental
        patches allocate fresh entry arrays, so previously published
        snapshots are untouched); readers keep answering from the
        current snapshot throughout and switch only at the atomic
        :meth:`publish`.  Writers are serialized by a maintenance lock.
        """
        if self._dynamic is None:
            raise ParameterError(
                "this service has no maintained index — construct it "
                "with DominationService.from_dynamic to enable churn "
                "updates"
            )
        started = time.perf_counter()
        with self._maintenance_lock:
            with obs.span("serve.sync"):
                stats = self._dynamic.sync(dynamic_graph)
                self.publish(IndexSnapshot.of_dynamic(self._dynamic))
        if obs.enabled():
            obs.observe(
                "serve_epoch_publish_seconds",
                time.perf_counter() - started,
                help="Churn absorb + snapshot publish wall time.",
            )
        return stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, k: int, objective: str = "f2") -> SelectionResult:
        """Best-``k`` placement on the current snapshot (a greedy prefix).

        Bit-identical (``selected`` and ``gains``) to
        ``approx_greedy_fast(graph, k, L, index=snapshot.index,
        objective=objective)`` on the snapshot the
        query resolved; ``params`` additionally records the serving
        provenance (epoch, ``prefix_k``: the length of the run sliced).
        """
        generation, snap = self._current
        # Counted on arrival, like every other kind — a rejected select
        # must not make stats.queries disagree with the load report.
        self._count("queries")
        if objective not in _OBJECTIVES:
            raise ParameterError(f"objective must be one of {_OBJECTIVES}")
        k = int(k)
        if not 0 <= k <= snap.num_nodes:
            raise ParameterError(
                f"k={k} must lie in [0, n={snap.num_nodes}]"
            )
        held = self._held_prefix(generation, objective)
        if held is None or len(held.selected) < k:
            held = self._extend_prefix(generation, snap, objective, k)
        self._count("batched_queries")
        return SelectionResult(
            algorithm=held.algorithm,
            selected=held.selected[:k],
            gains=held.gains[:k],
            elapsed_seconds=held.elapsed_seconds,
            num_gain_evaluations=held.num_gain_evaluations,
            params={
                **held.params,
                "k": k,
                "served": True,
                "epoch": snap.epoch,
                "prefix_k": len(held.selected),
            },
        )

    def metrics(self, selection) -> dict:
        """Sampled coverage/AHT of ``selection`` on the current snapshot.

        Bit-identical to
        :meth:`~repro.walks.index.FlatWalkIndex.selection_metrics` on
        the snapshot index.  The key canonicalizes the selection (sorted,
        deduplicated) — the answer is set-valued, so permutations share
        one cache entry.
        """
        self._count("queries")
        generation, snap = self._current
        return dict(self._metrics_cached(generation, snap, selection))

    def coverage(self, selection) -> float:
        """Covered fraction of ``selection`` (shares the metrics pass)."""
        self._count("queries")
        generation, snap = self._current
        return float(
            self._metrics_cached(generation, snap, selection)[
                "coverage_fraction"
            ]
        )

    def min_targets(
        self, fraction: float, max_size: "int | None" = None
    ) -> SelectionResult:
        """Smallest greedy set reaching ``fraction`` expected coverage.

        Bit-identical to
        :func:`~repro.core.coverage.min_targets_for_coverage` on the
        snapshot index; an unreachable target raises
        :class:`~repro.errors.ParameterError` exactly as the direct call
        does (failures are never cached).
        """
        generation, snap = self._current
        self._count("queries")
        key = (
            generation, snap.fingerprint, snap.epoch, "min_targets",
            float(fraction), max_size,
        )
        hit, value = self._cache_get(key)
        if hit:
            return _fresh_result(value)
        result = min_targets_for_coverage(
            snap.graph, fraction, snap.length, index=snap.index,
            max_size=max_size,
        )
        self._count("kernel_passes")
        self._cache_put(key, result)
        return _fresh_result(result)

    def submit(self, kind: str, **params) -> Future:
        """Run one query on the service thread pool; returns a Future.

        ``kind`` is one of :data:`QUERY_KINDS`; ``params`` are forwarded
        to the matching synchronous method.
        """
        if kind not in QUERY_KINDS:
            raise ParameterError(
                f"unknown query kind {kind!r} (expected one of "
                f"{QUERY_KINDS})"
            )
        return self._pool.submit(getattr(self, kind), **params)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the submit pool (synchronous queries keep working)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "DominationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self._current[1]
        return (
            f"DominationService(n={snap.num_nodes}, L={snap.length}, "
            f"epoch={snap.epoch})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += amount

    def _cache_get(self, key: tuple) -> tuple[bool, object]:
        with self._cache_lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                value = self._cache[key]
            else:
                obs.inc(
                    "serve_cache_misses_total",
                    help="Result-cache misses (hits live in ServiceStats).",
                )
                return False, None
        self._count("cache_hits")
        return True, value

    def _cache_put(self, key: tuple, value) -> None:
        if self._cache_size == 0:
            return
        with self._cache_lock:
            # Generation check under the cache lock: publish() evicts
            # under the same lock, so checking outside would let a query
            # that resolved a superseded snapshot slip its (forever
            # unreachable) entry in right after the sweep.
            if key[0] != self._current[0]:
                return
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def _metrics_cached(
        self, generation: int, snap: IndexSnapshot, selection
    ) -> dict:
        targets = tuple(sorted({int(v) for v in selection}))
        key = (generation, snap.fingerprint, snap.epoch, "metrics", targets)
        hit, value = self._cache_get(key)
        if hit:
            return value
        result = snap.index.selection_metrics(targets)
        self._count("kernel_passes")
        self._cache_put(key, result)
        return result

    def _held_prefix(
        self, generation: int, objective: str
    ) -> "SelectionResult | None":
        entry = self._prefixes.get(objective)
        if entry is None or entry[0] != generation:
            return None
        return entry[1]

    def _extend_prefix(
        self, generation: int, snap: IndexSnapshot, objective: str, k: int
    ) -> SelectionResult:
        """A greedy run on ``snap`` of at least ``k`` picks.

        One solve per objective at a time: a query that waited on the lock
        usually finds its budget covered.  Otherwise the budget doubles
        the held length, which caps the solves per snapshot at
        ``ceil(log2 k_max) + 1``.  A failed solve stores nothing.
        """
        with self._prefix_locks[objective]:
            held = self._held_prefix(generation, objective)
            size = 0 if held is None else len(held.selected)
            if held is not None and size >= k:
                return held
            result = approx_greedy_fast(
                snap.graph, min(snap.num_nodes, max(k, 2 * size)),
                snap.length, index=snap.index, objective=objective,
            )
            self._count("kernel_passes")
            self._count("select_batches")
            with self._cache_lock:
                # The rule of _cache_put: a run on a superseded publish
                # answers its own query but is never held.
                if generation == self._current[0]:
                    self._prefixes[objective] = (generation, result)
            return result
