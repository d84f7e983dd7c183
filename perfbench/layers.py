"""Per-layer span attribution for the benchmark's traced runs.

The benchmark wraps the public calls into each layer of the pipeline at
the names their callers look them up by, and times every wrapped call with
a :class:`repro.obs.tracing.SpanTracer` that the benchmark owns.  The
program's own telemetry switch (``repro.obs``) is never turned on, so the
per-layer numbers do not move when the program grows spans of its own.

Each thread gets its own tracer.  Spans nest per thread, and a tracer is
drained by its own thread whenever the thread's outermost wrapped call
returns, so the per-layer table folds every span while the ring buffer
never has to hold more than one top-level call.  The most recent spans
are kept for the Chrome trace; the table counts all of them.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import deque

from repro.obs.tracing import SpanTracer

#: Span name -> layer.  Names are ``<owner>.<function>`` as wrapped.
LAYER_OF = {
    "power_law_graph": "graph",
    "NumpyWalkEngine.batch_walks": "walks",
    "first_visit_records": "first_visit",
    "ExternalSortSink.consume": "sort",
    "ExternalSortSink.finalize": "sort",
    "DenseEntryWriter.emit": "storage",
    "save_index": "storage",
    "load_index": "storage",
    "FastApproxEngine.__init__": "gain",
    "FastApproxEngine.gains_all": "gain",
    "FastApproxEngine.gain_of": "gain",
    "FastApproxEngine.select": "gain",
    "FastApproxEngine.run": "greedy",
    "approx_greedy_fast": "greedy",
    "min_targets_for_coverage": "greedy",
    "DominationService.select": "service",
    "DominationService.metrics": "service",
    "DominationService.coverage": "service",
    "DominationService.min_targets": "service",
}

#: Spans whose individual durations are kept (for percentiles); the
#: others are only summed.
SAMPLED = frozenset(name for name in LAYER_OF if name.startswith("Domination"))

#: Spans kept for the Chrome trace (the newest ones).
KEEP_EVENTS = 50_000

#: Ring size of each per-thread tracer; one top-level call must fit.
THREAD_BUFFER = 1 << 20


def _targets():
    """``(owner, attribute, span name, item counter)`` for every wrap.

    Functions imported by name into another module are wrapped at every
    name a caller uses: the service calls the greedy entry points through
    its own module globals, and the walk engine calls
    ``first_visit_records`` through the backends module.
    """
    from repro.core import approx_fast, coverage
    from repro.graphs import generators
    from repro.serve import service
    from repro.walks import backends, build, persistence

    engine = approx_fast.FastApproxEngine

    def rows(args, kwargs, result):
        return {"walks.rows": len(args[2])}

    def records(args, kwargs, result):
        return {"first_visit.records": int(result[0].size)}

    runs_seen = weakref.WeakKeyDictionary()

    def consumed(args, kwargs, result):
        sink = args[0]
        runs = sink.spill_runs  # cumulative per sink: count the new ones
        spilled = runs - runs_seen.get(sink, 0)
        runs_seen[sink] = runs
        return {"sort.records": int(args[1].size), "sort.spill_runs": spilled}

    def emitted(args, kwargs, result):
        return {"storage.entries": int(args[1].size)}

    def archive(args, kwargs, result):
        return {"storage.archive_bytes": result.stat().st_size}

    def engine_init(args, kwargs, result):
        return {"storage.index_bytes": args[1].storage_nbytes()}

    return [
        (generators, "power_law_graph", "power_law_graph", None),
        (backends.NumpyWalkEngine, "batch_walks",
         "NumpyWalkEngine.batch_walks", rows),
        (backends, "first_visit_records", "first_visit_records", records),
        (build.ExternalSortSink, "consume", "ExternalSortSink.consume",
         consumed),
        (build.ExternalSortSink, "finalize", "ExternalSortSink.finalize",
         None),
        (build.DenseEntryWriter, "emit", "DenseEntryWriter.emit", emitted),
        (persistence, "save_index", "save_index", archive),
        (persistence, "load_index", "load_index", None),
        (engine, "__init__", "FastApproxEngine.__init__", engine_init),
        (engine, "gains_all", "FastApproxEngine.gains_all", None),
        (engine, "gain_of", "FastApproxEngine.gain_of", None),
        (engine, "select", "FastApproxEngine.select", None),
        (engine, "run", "FastApproxEngine.run", None),
        (approx_fast, "approx_greedy_fast", "approx_greedy_fast", None),
        (service, "approx_greedy_fast", "approx_greedy_fast", None),
        (coverage, "min_targets_for_coverage", "min_targets_for_coverage",
         None),
        (service, "min_targets_for_coverage", "min_targets_for_coverage",
         None),
        (service.DominationService, "select", "DominationService.select",
         None),
        (service.DominationService, "metrics", "DominationService.metrics",
         None),
        (service.DominationService, "coverage", "DominationService.coverage",
         None),
        (service.DominationService, "min_targets",
         "DominationService.min_targets", None),
    ]


class LayerTrace:
    """Wraps the layer entry points and folds their spans per layer."""

    def __init__(self):
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=KEEP_EVENTS)
        self._installed: list = []
        self.reset()

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, count))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _thread_state(self) -> list:
        state = getattr(self._local, "state", None)
        if state is None:
            tracer = SpanTracer(buffer_size=THREAD_BUFFER)
            offset_us = (time.perf_counter() - self._epoch) * 1e6
            state = self._local.state = [tracer, offset_us, []]
        return state

    def wrap(self, fn, name: str, count):
        """``fn`` timed as span ``name``; ``count`` maps a call to item counts."""
        def traced(*args, **kwargs):
            tracer, offset_us, stack = self._thread_state()
            parent = stack[-1] if stack else None
            stack.append(name)
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                items = count(args, kwargs, result) if count else {}
            finally:
                stack.pop()
                if not stack:
                    self._drain(tracer, offset_us)
            self._count(name, parent, items)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- aggregation ---------------------------------------------------
    def reset(self) -> None:
        """Start a new phase: clear the folded spans and item counts."""
        with self._lock:
            self.spans: dict = {}
            self.samples: dict = {name: [] for name in SAMPLED}
            self.items: dict = {}

    def _count(self, name: str, parent, items: dict) -> None:
        if parent == "FastApproxEngine.run" and name in (
            "FastApproxEngine.gain_of", "FastApproxEngine.select"
        ):
            items = dict(items)
            items["greedy.celf_pops"] = 1
            if name == "FastApproxEngine.select":
                items["greedy.celf_picks"] = 1
        if not items:
            return
        with self._lock:
            for key, value in items.items():
                if key == "storage.index_bytes":
                    self.items[key] = max(self.items.get(key, 0), value)
                else:
                    self.items[key] = self.items.get(key, 0) + value

    def _drain(self, tracer: SpanTracer, offset_us: float) -> None:
        events = tracer.events()
        tracer.reset()
        with self._lock:
            for event in events:
                name = event["name"]
                agg = self.spans.get(name)
                if agg is None:
                    agg = self.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += event["dur_us"] * 1e-6
                agg[2] += event["self_us"] * 1e-6
                if name in self.samples:
                    self.samples[name].append(event["dur_us"] * 1e-6)
                event["ts_us"] += offset_us  # onto this trace's clock
                self._events.append(event)

    def phase(self) -> dict:
        """The folded phase so far (JSON-ready), then :meth:`reset`."""
        with self._lock:
            payload = {
                "spans": {
                    name: {"calls": c, "wall_s": w, "self_s": s}
                    for name, (c, w, s) in sorted(self.spans.items())
                },
                "samples": {k: list(v) for k, v in self.samples.items()},
                "items": dict(self.items),
            }
        self.reset()
        return payload

    def write_chrome_trace(self, path) -> None:
        """Kept spans as Chrome ``trace_event`` JSON (``ph: "X"``)."""
        with self._lock:
            events = list(self._events)
        trace_events = [
            {
                "name": e["name"],
                "cat": LAYER_OF.get(e["name"], "other"),
                "ph": "X",
                "ts": e["ts_us"],
                "dur": e["dur_us"],
                "pid": e["pid"],
                "tid": e["tid"],
                "args": {"self_us": round(e["self_us"], 3)},
            }
            for e in events
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": trace_events, "displayTimeUnit": "ms"},
                handle, separators=(",", ":"),
            )


def layer_table(phase: dict) -> dict:
    """``layer -> {self_s, calls}`` summed over the layer's spans."""
    table: dict = {}
    for name, agg in phase["spans"].items():
        row = table.setdefault(
            LAYER_OF.get(name, "other"), {"self_s": 0.0, "calls": 0}
        )
        row["self_s"] += agg["self_s"]
        row["calls"] += agg["calls"]
    return table

