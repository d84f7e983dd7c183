"""Edit-trace replay: coverage decay and re-solve points (DESIGN.md §9.4).

The operational question behind the dynamic subsystem: a placement was
selected on one snapshot — how fast does its quality decay as the graph
churns, and when is it worth re-solving?  :func:`churn_replay` streams an
edit trace batch by batch, keeps the walk index fresh with incremental
updates, tracks the sampled coverage / AHT of the standing selection, and
re-solves (on the maintained in-RAM index — no rebuild, no copy) whenever
coverage falls below a configurable fraction of what the last solve
achieved.

Trace files are plain text, one directive per line (``#`` comments and
blank lines ignored)::

    add U V      # insert undirected edge {U, V}
    del U V      # delete undirected edge {U, V}
    leave U      # peer U departs: delete all its current edges
    rejoin U     # peer U returns: restore its original edges to
                 # neighbors that are themselves present
    step         # end of batch: apply everything since the last step

``leave``/``rejoin`` are membership sugar expanded against the *original*
adjacency (captured when replay starts), so the same format drives both
the generic ``repro dynamic`` replay and the P2P churn simulation
(``repro simulate --app p2p --churn-trace``).  A trailing batch without a
final ``step`` is applied too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.core.approx_fast import approx_greedy_fast
from repro.walks.backends import WalkEngine
from repro.dynamic.graph import DynamicGraph
from repro.dynamic.index import DynamicWalkIndex

__all__ = [
    "TraceOp",
    "parse_trace",
    "expand_membership",
    "ChurnStep",
    "ChurnReport",
    "churn_replay",
]


@dataclass(frozen=True)
class TraceOp:
    """One parsed trace directive (``kind`` in add/del/leave/rejoin).

    ``line`` is the 1-based trace line the op came from (0 for ops built
    programmatically) — validation errors quote it so a bad id in a
    million-line trace is findable.
    """

    kind: str
    u: int
    v: int = -1
    line: int = 0


def _op_context(op: TraceOp) -> str:
    return f"churn trace line {op.line}: " if op.line else ""


def parse_trace(text: str) -> list[list[TraceOp]]:
    """Parse a churn trace into batches of :class:`TraceOp`.

    Each ``step`` line closes a batch; empty batches (consecutive
    ``step`` lines) are preserved so a trace can express "time passes,
    nothing changed" phases for the simulators.  Node ids must be
    non-negative here (negative ids would silently wrap around numpy
    membership arrays); the upper bound depends on the graph and is
    enforced by :func:`expand_membership`.
    """
    batches: list[list[TraceOp]] = []
    current: list[TraceOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind in ("add", "del") and len(parts) == 3:
                current.append(
                    TraceOp(
                        kind=kind, u=int(parts[1]), v=int(parts[2]),
                        line=lineno,
                    )
                )
            elif kind in ("leave", "rejoin") and len(parts) == 2:
                current.append(
                    TraceOp(kind=kind, u=int(parts[1]), line=lineno)
                )
            elif kind == "step" and len(parts) == 1:
                batches.append(current)
                current = []
            else:
                raise ValueError
        except ValueError:
            raise ParameterError(
                f"churn trace line {lineno}: cannot parse {raw!r} "
                "(expected 'add U V', 'del U V', 'leave U', 'rejoin U', "
                "or 'step')"
            )
        op = current[-1] if kind != "step" else None
        if op is not None:
            ids = (op.u,) if op.kind in ("leave", "rejoin") else (op.u, op.v)
            for node in ids:
                if node < 0:
                    raise ParameterError(
                        f"churn trace line {lineno}: negative node id "
                        f"{node} in {raw.strip()!r}"
                    )
    if current:
        batches.append(current)
    return batches


def _check_op_ids(op: TraceOp, num_nodes: int) -> None:
    """Reject ids outside ``[0, num_nodes)`` with the op's line context.

    Negative ids are re-checked here (not just in :func:`parse_trace`)
    because ops can be constructed programmatically, and numpy would
    silently wrap ``present[-1]`` instead of failing.
    """
    if op.kind in ("leave", "rejoin"):
        ids, text = (op.u,), f"{op.kind} {op.u}"
    else:
        ids, text = (op.u, op.v), f"{op.kind} {op.u} {op.v}"
    for node in ids:
        if not 0 <= node < num_nodes:
            raise ParameterError(
                f"{_op_context(op)}node id {node} out of range for a "
                f"{num_nodes}-node graph in op {text!r}"
            )


def expand_membership(
    ops: Iterable[TraceOp],
    dynamic_graph: DynamicGraph,
    original: Graph,
    present: np.ndarray,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Expand one batch of trace ops into concrete edge edits.

    ``leave U`` deletes *all* of U's current edges (original overlay
    links and edges added during the replay alike); ``rejoin U`` re-adds
    U's *original* edges to neighbors that are present (including peers
    that rejoined earlier in the same batch — ops apply in order).
    ``present`` is updated in place.  Every node id is validated against
    the graph before any membership state is touched — an out-of-range
    (or negative) id raises :class:`~repro.errors.ParameterError` with
    the offending trace line instead of crashing on the membership
    array.  Explicit ``add``/``del`` ops must be consistent with
    membership (editing edges of a departed peer is rejected — it would
    silently desynchronize a later rejoin).

    Ops within one batch compose as set edits against the pre-batch
    snapshot: deleting an edge and re-adding it in the same batch (e.g.
    ``leave U`` directly followed by ``rejoin U``) cancels out instead of
    emitting a conflicting insert/delete pair.
    """
    pending_del: set[tuple[int, int]] = set()
    pending_ins: set[tuple[int, int]] = set()

    def _edge(u: int, v: int) -> tuple[int, int]:
        return (min(u, v), max(u, v))

    def _exists(u: int, v: int) -> bool:
        edge = _edge(u, v)
        if edge in pending_del:
            return False
        if edge in pending_ins:
            return True
        return dynamic_graph.has_edge(u, v)

    def _insert(u: int, v: int) -> None:
        edge = _edge(u, v)
        if edge in pending_del:  # delete + re-add cancels out
            pending_del.discard(edge)
        else:
            pending_ins.add(edge)

    def _delete(u: int, v: int) -> None:
        edge = _edge(u, v)
        if edge in pending_ins:  # add + re-delete cancels out
            pending_ins.discard(edge)
        else:
            pending_del.add(edge)

    ops = list(ops)
    num_nodes = dynamic_graph.num_nodes
    # Validate every id up front so a bad op later in the batch cannot
    # leave `present` (mutated in place below) half-updated.
    for op in ops:
        _check_op_ids(op, num_nodes)
    for op in ops:
        if op.kind == "leave":
            if not present[op.u]:
                raise ParameterError(
                    f"{_op_context(op)}peer {op.u} left twice in the trace"
                )
            current = {int(v) for v in dynamic_graph.graph.neighbors(op.u)}
            current.update(
                u if v == op.u else v
                for u, v in pending_ins
                if op.u in (u, v)
            )
            for v in sorted(current):
                if _exists(op.u, v):
                    _delete(op.u, v)
            present[op.u] = False
        elif op.kind == "rejoin":
            if present[op.u]:
                raise ParameterError(
                    f"{_op_context(op)}peer {op.u} rejoined while still "
                    "present"
                )
            present[op.u] = True
            for v in original.neighbors(op.u):
                if present[v] and not _exists(op.u, int(v)):
                    _insert(op.u, int(v))
        elif op.kind in ("add", "del"):
            if not (present[op.u] and present[op.v]):
                raise ParameterError(
                    f"{_op_context(op)}edge op on departed peer: "
                    f"{op.kind} {op.u} {op.v}"
                )
            if op.kind == "add":
                _insert(op.u, op.v)
            else:
                _delete(op.u, op.v)
        else:  # pragma: no cover - parse_trace only emits known kinds
            raise ParameterError(f"unknown trace op {op.kind!r}")
    return sorted(pending_ins), sorted(pending_del)


@dataclass(frozen=True)
class ChurnStep:
    """Index and selection health after one replayed batch."""

    epoch: int
    num_inserts: int
    num_deletes: int
    resampled_rows: int
    resampled_fraction: float
    coverage_fraction: float
    aht: float
    resolved: bool
    update_seconds: float


@dataclass(frozen=True)
class ChurnReport:
    """Full replay outcome (one row per batch, plus solve history).

    ``selections`` holds ``(epoch, selected_tuple)`` for the initial solve
    (epoch 0) and every re-solve; the selection standing at any step is
    the last entry at or before that epoch.
    """

    steps: tuple[ChurnStep, ...]
    selections: tuple[tuple[int, tuple[int, ...]], ...]
    baseline_coverage_fraction: float
    resolve_threshold: float
    k: int
    length: int
    num_replicates: int

    @property
    def num_resolves(self) -> int:
        """Re-solves triggered during the replay (initial solve excluded)."""
        return len(self.selections) - 1


def churn_replay(
    graph: Graph,
    batches: "Sequence[Sequence[TraceOp]] | str",
    k: int,
    length: int,
    num_replicates: int = 100,
    seed: "int | None" = None,
    engine: "str | WalkEngine | None" = None,
    resolve_threshold: float = 0.9,
) -> ChurnReport:
    """Stream an edit trace, maintain the index, report decay/re-solves.

    ``batches`` is either parsed trace batches or raw trace text.  The
    placement is solved with the sampled ``ApproxF2`` greedy on the
    maintained index; after each batch the index is synced incrementally
    and the standing selection's coverage fraction is compared against
    ``resolve_threshold`` times the fraction achieved at its solve time —
    dropping below triggers a re-solve on the *current* index (cost: one
    greedy run, no walk regeneration).
    """
    if isinstance(batches, str):
        batches = parse_trace(batches)
    if not 0.0 < resolve_threshold <= 1.0:
        raise ParameterError("resolve_threshold must lie in (0, 1]")
    dyn = DynamicWalkIndex.build(
        graph, length, num_replicates, seed=seed, engine=engine
    )
    dgraph = DynamicGraph(graph)
    present = np.ones(graph.num_nodes, dtype=bool)

    def _solve() -> tuple[int, ...]:
        result = approx_greedy_fast(
            dyn.graph, k, dyn.length, index=dyn.flat, objective="f2"
        )
        return result.selected

    selection = _solve()
    selections = [(0, selection)]
    baseline = dyn.selection_metrics(selection)["coverage_fraction"]
    solve_baseline = baseline
    steps: list[ChurnStep] = []
    for ops in batches:
        inserts, deletes = expand_membership(ops, dgraph, graph, present)
        started = time.perf_counter()
        with obs.span(
            "churn.batch", inserts=len(inserts), deletes=len(deletes)
        ):
            dgraph.apply_batch(inserts, deletes)
            stats = dyn.sync(dgraph)
        update_seconds = time.perf_counter() - started
        metrics = dyn.selection_metrics(selection)
        resolved = False
        if metrics["coverage_fraction"] < resolve_threshold * solve_baseline:
            selection = _solve()
            selections.append((dyn.epoch, selection))
            metrics = dyn.selection_metrics(selection)
            solve_baseline = metrics["coverage_fraction"]
            resolved = True
        if obs.enabled():
            obs.inc("churn_batches_total", help="Churn batches replayed.")
            if resolved:
                obs.inc(
                    "churn_resolves_total",
                    help="Re-solves triggered by coverage decay.",
                )
            obs.observe(
                "churn_resampled_rows",
                stats.resampled_rows,
                buckets=obs.COUNT_BUCKETS,
                help="Walk rows resampled per churn batch.",
            )
            obs.observe(
                "churn_update_seconds",
                update_seconds,
                help="Per-batch incremental maintenance wall time.",
            )
        steps.append(
            ChurnStep(
                epoch=dyn.epoch,
                num_inserts=len(inserts),
                num_deletes=len(deletes),
                resampled_rows=stats.resampled_rows,
                resampled_fraction=stats.resampled_fraction,
                coverage_fraction=metrics["coverage_fraction"],
                aht=metrics["aht"],
                resolved=resolved,
                update_seconds=update_seconds,
            )
        )
    return ChurnReport(
        steps=tuple(steps),
        selections=tuple(selections),
        baseline_coverage_fraction=baseline,
        resolve_threshold=resolve_threshold,
        k=k,
        length=length,
        num_replicates=num_replicates,
    )
