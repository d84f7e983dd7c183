"""Pluggable walk-engine backends (DESIGN.md §3).

Every consumer of batched random walks — the solvers, the Monte-Carlo
estimators, the application simulators, the CLI — goes through the
:class:`WalkEngine` interface defined here instead of calling a particular
kernel directly.  Engines are looked up by name in a process-wide registry,
so alternative execution strategies (GPU, distributed, cached) can be
slotted in by registering a new backend without touching any solver.

Two backends ship with the package, and **both are bit-identical under
one seed**: they consume the same PCG64 stream — one batch of uniforms
per hop — so either engine can replace the other mid-experiment,
mid-index, or mid-serving-epoch without changing a single answer.
Differential tests (``tests/test_differential.py``) enforce this across
index builds, solvers, dynamic replay, and serving.

``"csr"``
    The default: a tighter CSR formulation.  The adjacency is augmented
    once per graph (dangling nodes get a self-loop, realizing the
    DESIGN.md §5 convention without per-hop masking), and each hop is
    three ``np.take`` gathers per cache-sized block of walkers into
    buffers allocated once per call — no boolean indexing, no copies,
    no bounds-check passes.
    Weighted graphs reuse a cached :class:`~repro.walks.alias.AliasSampler`
    (alias tables are built once per graph, not once per call).
``"numpy"``
    The original gather-loop kernels, :func:`repro.walks.engine.batch_walks`
    and :func:`repro.walks.alias.weighted_batch_walks`, unchanged: the
    paper-faithful reference that the parity tests compare csr against.

Resolution rules (:func:`get_engine`): ``None`` means the package default
(``"csr"``), a string is looked up in the registry, and a ready
:class:`WalkEngine` instance passes through unchanged, so every API that
takes ``engine=`` accepts all three forms.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.weighted import WeightedDiGraph
from repro.walks.alias import AliasSampler, weighted_batch_walks
from repro.walks.engine import batch_first_hits, batch_walks
from repro.walks.records import RecordPacker, first_visit_records
from repro.walks.rng import resolve_rng

__all__ = [
    "WalkEngine",
    "NumpyWalkEngine",
    "CSRWalkEngine",
    "DEFAULT_ENGINE",
    "available_engines",
    "get_engine",
    "register_engine",
]

DEFAULT_ENGINE = "csr"


def _check_walk_args(
    num_nodes: int, starts: np.ndarray, length: int
) -> np.ndarray:
    """Shared argument validation, matching :mod:`repro.walks.engine`."""
    if length < 0:
        raise ParameterError("walk length L must be >= 0")
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= num_nodes):
        raise ParameterError("start nodes out of range")
    return starts


class WalkEngine(ABC):
    """Backend interface: batched walks and first-hit detection.

    Concrete engines implement the two walk generators; the remaining
    methods have default implementations in terms of them, so a minimal
    backend is two methods.  All engines honor the package seed convention
    (:func:`repro.walks.rng.resolve_rng`) and the dangling-node convention
    (DESIGN.md §5: a walker on a degree-0 node stays put).
    """

    #: Registry name; set by subclasses.
    name: str = "abstract"

    @abstractmethod
    def batch_walks(
        self,
        graph: Graph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Unweighted L-length walks for a batch of starts, ``(B, L+1)``."""

    @abstractmethod
    def weighted_batch_walks(
        self,
        graph: WeightedDiGraph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Weight-proportional walks on a directed graph, ``(B, L+1)``."""

    # ------------------------------------------------------------------
    def run_walks(
        self,
        graph: "Graph | WeightedDiGraph",
        starts: "Sequence[int] | np.ndarray",
        length: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Dispatch on the graph flavor (the simulators' entry point)."""
        if isinstance(graph, WeightedDiGraph):
            return self.weighted_batch_walks(graph, starts, length, seed=seed)
        return self.batch_walks(graph, starts, length, seed=seed)

    def batch_first_hits(
        self, walks: np.ndarray, target_mask: np.ndarray
    ) -> np.ndarray:
        """First-hit hop per walk row (``-1`` on miss)."""
        return batch_first_hits(walks, target_mask)

    def walk_first_hits(
        self,
        graph: "Graph | WeightedDiGraph",
        starts: "Sequence[int] | np.ndarray",
        length: int,
        target_mask: np.ndarray,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Generate walks and return only their first-hit hops.

        Backends may fuse the two passes (the CSR engine never materializes
        the walk matrix); the default composes :meth:`run_walks` with
        :meth:`batch_first_hits`.  Results are identical either way.
        """
        walks = self.run_walks(graph, starts, length, seed=seed)
        return self.batch_first_hits(walks, target_mask)

    def iter_walk_records(
        self,
        graph: Graph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        states: np.ndarray,
        packer: RecordPacker,
        seed: "int | np.random.Generator | None" = None,
        chunk_rows: int = 1 << 19,
        into: "Callable[[], np.ndarray] | None" = None,
    ):
        """Per-chunk first-visit ``(packed, hop_counts)`` records.

        The index builders' entry point (Algorithm 3's extraction):
        ``states[b]`` is row ``b``'s flattened ``D`` index, carried into
        the records, and ``packer`` is the caller's record format (the
        sink's :attr:`~repro.walks.build.ExternalSortSink.packer`).
        Yields one :func:`~repro.walks.records.first_visit_records` pair
        (packed records and per-hop counts; no per-node counts — the sink
        reads those off its sorted records) per ``chunk_rows``-row chunk
        of the batch, so a consumer (the
        out-of-core builder, :mod:`repro.walks.build`) can reduce each
        chunk before the next one's walks exist — peak memory is one
        chunk's walks plus whatever the consumer retains.  The chunking
        is part of the RNG contract — chunk ``c`` consumes its
        ``len(chunk) * length`` uniforms before chunk ``c + 1`` begins —
        so every backend yields the same per-chunk record *sets* for the
        same ``(seed, chunk_rows)``; record order is a detail the
        canonical sort removes.  ``into``, when given, is called before
        each chunk's extraction and returns the ``int64`` array to pack
        that chunk's records into (the sink's
        :meth:`~repro.walks.build.ExternalSortSink.vacant` space), so
        they are written once, straight into the sink's buffer.  Each
        chunk's walks and extraction run under the ``index.build.walks``
        and ``index.build.first_visit`` spans.  Arguments are validated
        eagerly (before the first chunk is computed); the caller's
        generator is only guaranteed to be positioned past the whole
        batch once the iterator is exhausted.
        """
        starts = _check_walk_args(graph.num_nodes, starts, length)
        states = np.asarray(states, dtype=np.int64)
        if states.size != starts.size:
            raise ParameterError("states must align with starts")
        if chunk_rows < 1:
            raise ParameterError("chunk_rows must be >= 1")
        if length > packer.length:
            raise ParameterError(
                f"walk length L={length} exceeds the packer's "
                f"L={packer.length}"
            )
        rng = resolve_rng(seed)
        return self._iter_records(
            graph, starts, length, states, packer, rng, chunk_rows, into
        )

    def _iter_records(
        self, graph, starts, length, states, packer, rng, chunk_rows, into
    ):
        for lo in range(0, starts.size, chunk_rows):
            yield self._chunk_records(
                graph, starts[lo : lo + chunk_rows], length,
                states[lo : lo + chunk_rows], packer, rng, into,
            )

    def _chunk_records(self, graph, starts, length, states, packer, rng, into):
        # A helper, so that no frame of the generator keeps a chunk's
        # walks or records alive while the next chunk is walked.
        with obs.span("index.build.walks", rows=starts.size):
            walks = self.batch_walks(graph, starts, length, seed=rng)
        with obs.span("index.build.first_visit"):
            return first_visit_records(
                walks, states, packer, out=None if into is None else into()
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyWalkEngine(WalkEngine):
    """The original per-hop gather loop — the reference backend."""

    name = "numpy"

    def batch_walks(self, graph, starts, length, seed=None):
        return batch_walks(graph, starts, length, seed=seed)

    def weighted_batch_walks(self, graph, starts, length, seed=None):
        return weighted_batch_walks(graph, starts, length, seed=seed)


# ----------------------------------------------------------------------
# CSR backend
# ----------------------------------------------------------------------
class _CSRPlan:
    """Per-graph precomputation for the CSR backend (unweighted).

    The adjacency is augmented so every dangling node carries one
    self-loop.  A dangling walker then "moves" along its self-loop —
    landing where it already is — which realizes the stay-put convention
    (DESIGN.md §5) without any per-hop mask, while consuming exactly the
    same uniform draw the numpy backend burns on it.
    """

    __slots__ = ("indptr", "indices", "degrees_f64")

    def __init__(self, graph: Graph):
        degrees = graph.degrees
        dangling = np.flatnonzero(degrees == 0)
        if dangling.size == 0:
            self.indptr = graph.indptr
            self.indices = graph.indices
            self.degrees_f64 = degrees.astype(np.float64)
            return
        n = graph.num_nodes
        aug_deg = degrees.copy()
        aug_deg[dangling] = 1
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(aug_deg, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        src_rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        within = np.arange(graph.indices.size, dtype=np.int64) - graph.indptr[src_rows]
        indices[indptr[src_rows] + within] = graph.indices
        indices[indptr[dangling]] = dangling
        self.indptr = indptr
        self.indices = indices
        self.degrees_f64 = aug_deg.astype(np.float64)


class _WeightedPlan:
    """Per-graph precomputation for the CSR backend (weighted)."""

    __slots__ = ("sampler", "indices", "out_degrees_f64", "has_dangling")

    def __init__(self, graph: WeightedDiGraph):
        self.sampler = AliasSampler(graph)
        self.indices = graph.indices.astype(np.int64)
        out_deg = graph.out_degrees
        self.out_degrees_f64 = out_deg.astype(np.float64)
        self.has_dangling = bool((out_deg == 0).any())


class _PlanCache:
    """Bounded FIFO of per-graph plans, keyed by object identity.

    The cache keeps a strong reference to each graph, so an ``id()`` can
    never be recycled while its plan is alive; graphs are immutable, so a
    cached plan never goes stale.  Concurrent builds of the same plan
    (serving threads share the registry's csr instance) are benign: both
    threads compute the same immutable arrays and one wins the dict slot.
    """

    def __init__(self, maxsize: int = 8):
        self._maxsize = maxsize
        self._data: "dict[int, tuple[object, object]]" = {}

    def get(self, graph: object, build: Callable[[object], object]) -> object:
        key = id(graph)
        hit = self._data.get(key)
        if hit is not None and hit[0] is graph:
            return hit[1]
        plan = build(graph)
        self._data[key] = (graph, plan)
        while len(self._data) > self._maxsize:
            # pop(…, None): two serving threads may race to evict the
            # same oldest entry; losing the race must not raise.
            self._data.pop(next(iter(self._data)), None)
        return plan


#: Rows per block of the csr hop loop.  Each hop draws its uniforms for
#: the whole batch (the RNG contract) and then moves the walkers block
#: by block, so the four block buffers (1 MiB) stay in cache and a call
#: allocates one batch-sized array beyond its output.
_HOP_BLOCK = 1 << 15


def _hop_buffers(batch: int) -> "tuple[np.ndarray, ...]":
    """The ``(current, deg, off, pos)`` block buffers of :func:`_advance`."""
    size = min(batch, _HOP_BLOCK)
    return (
        np.empty(size, dtype=np.int64),  # take() needs intp indices
        np.empty(size, dtype=np.float64),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
    )


def _advance(plan: _CSRPlan, prev: np.ndarray, u: np.ndarray,
             out: np.ndarray, buffers: "tuple[np.ndarray, ...]") -> None:
    """One hop of every walker: ``out[i]`` is the neighbor of ``prev[i]``
    at offset ``floor(u[i] * deg(prev[i]))`` of its adjacency row.

    Every step is an allocation-free kernel into the block ``buffers``
    (:func:`_hop_buffers`); ``mode="clip"`` skips numpy's bounds-check
    pass, because positions are valid by construction.
    """
    block = buffers[0].size
    for lo in range(0, prev.size, block):
        hi = min(lo + block, prev.size)
        current, deg, off, pos = (b[: hi - lo] for b in buffers)
        np.copyto(current, prev[lo:hi])
        np.take(plan.degrees_f64, current, out=deg, mode="clip")
        np.multiply(u[lo:hi], deg, out=deg)
        np.copyto(off, deg, casting="unsafe")  # trunc == floor: u >= 0
        np.take(plan.indptr, current, out=pos, mode="clip")
        pos += off
        np.take(plan.indices, pos, out=out[lo:hi], mode="clip")


class CSRWalkEngine(WalkEngine):
    """Vectorized CSR backend — the default: three gathers per hop.

    Bit-identical to :class:`NumpyWalkEngine` under the same seed (the
    parity tests in ``tests/test_walk_backends.py`` assert it), roughly
    2-3x faster on batched unweighted walks, and much faster on repeated
    weighted calls because alias tables are built once per graph.
    """

    name = "csr"

    def __init__(self, cache_size: int = 8):
        self._plans = _PlanCache(cache_size)
        self._weighted_plans = _PlanCache(cache_size)

    # ------------------------------------------------------------------
    def _plan(self, graph: Graph) -> _CSRPlan:
        return self._plans.get(graph, _CSRPlan)

    def _weighted_plan(self, graph: WeightedDiGraph) -> _WeightedPlan:
        return self._weighted_plans.get(graph, _WeightedPlan)

    # ------------------------------------------------------------------
    def batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        batch = starts.size
        walks = np.empty((length + 1, batch), dtype=np.int32)
        walks[0] = starts
        if length and batch:
            plan = self._plan(graph)
            # The buffers live for this call only, so no walk-sized heap
            # outlives the walks.  The per-hop ``rng.random`` calls
            # consume the PCG64 stream exactly like the numpy backend's,
            # which is what makes the two backends bit-identical under
            # one seed.
            u = np.empty(batch, dtype=np.float64)
            buffers = _hop_buffers(batch)
            for t in range(1, length + 1):
                rng.random(out=u)
                _advance(plan, walks[t - 1], u, walks[t], buffers)
        # (B, L+1) transposed view: column-major hop access, which is how
        # every consumer reads walks, stays contiguous.
        return walks.T

    def weighted_batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        batch = starts.size
        plan = self._weighted_plan(graph)
        if plan.has_dangling or not (length and batch):
            # The masked per-hop path of AliasSampler.step draws uniforms
            # for movable walkers only; reuse it so the RNG stream matches
            # the numpy backend exactly.  The cached sampler still skips
            # the per-call alias-table rebuild.
            return weighted_batch_walks(
                graph, starts, length, seed=rng, sampler=plan.sampler
            )
        sampler = plan.sampler
        indptr, indices = graph.indptr, plan.indices
        outdegf = plan.out_degrees_f64
        prob, alias = sampler.prob, sampler.alias
        walks = np.empty((length + 1, batch), dtype=np.int32)
        walks[0] = starts
        current = starts
        for t in range(1, length + 1):
            # Draw order (slots, then coins) matches AliasSampler.step so
            # the stream stays aligned with the numpy backend.
            u_slot = rng.random(batch)
            u_coin = rng.random(batch)
            slots = indptr[current] + (u_slot * outdegf[current]).astype(np.int64)
            chosen = np.where(u_coin >= prob[slots], alias[slots], slots)
            current = indices[chosen]
            walks[t] = current
        return walks.T

    def walk_first_hits(self, graph, starts, length, target_mask, seed=None):
        if isinstance(graph, WeightedDiGraph):
            return super().walk_first_hits(
                graph, starts, length, target_mask, seed=seed
            )
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        batch = starts.size
        first = np.where(target_mask[starts], 0, -1).astype(np.int64)
        if length and batch:
            plan = self._plan(graph)
            u = np.empty(batch, dtype=np.float64)
            buffers = _hop_buffers(batch)
            current = starts.astype(np.int32)
            nxt = np.empty(batch, dtype=np.int32)
            for t in range(1, length + 1):
                rng.random(out=u)
                _advance(plan, current, u, nxt, buffers)
                current, nxt = nxt, current
                newly = (first < 0) & target_mask[current]
                first[newly] = t
        return first


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: "dict[str, Callable[[], WalkEngine]]" = {}
_INSTANCES: "dict[str, WalkEngine]" = {}


def register_engine(
    name: str, factory: Callable[[], WalkEngine], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called lazily, once, on first :func:`get_engine` lookup.
    Re-registering an existing name requires ``replace=True`` (and drops
    any cached instance), so a typo cannot silently shadow a builtin.
    """
    if not name or not isinstance(name, str):
        raise ParameterError("engine name must be a non-empty string")
    if name in _FACTORIES and not replace:
        raise ParameterError(
            f"engine {name!r} is already registered (pass replace=True)"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_engines() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_engine(engine: "str | WalkEngine | None" = None) -> WalkEngine:
    """Resolve an ``engine=`` argument to a :class:`WalkEngine` instance.

    ``None`` -> the default backend (``"csr"``); a string -> the shared
    instance registered under that name; an instance -> itself.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, WalkEngine):
        return engine
    if not isinstance(engine, str):
        raise ParameterError(
            f"cannot interpret {type(engine).__name__} as a walk engine"
        )
    try:
        instance = _INSTANCES.get(engine)
        if instance is None:
            instance = _INSTANCES[engine] = _FACTORIES[engine]()
        return instance
    except KeyError:
        raise ParameterError(
            f"unknown walk engine {engine!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None


register_engine("numpy", NumpyWalkEngine)
register_engine("csr", CSRWalkEngine)
