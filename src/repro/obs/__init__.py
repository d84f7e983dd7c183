"""``repro.obs`` — unified telemetry: metrics, spans, exposition.

One process-wide switch (DESIGN.md §14).  Disabled by default: the
module-level registry is :data:`~repro.obs.registry.NULL_REGISTRY` and the
tracer is :data:`~repro.obs.tracing.NULL_TRACER`, so every instrumentation
site in the solver/walk/serve/persistence layers costs an attribute lookup
and a no-op call — the overhead benchmark
(``benchmarks/bench_observability.py``) holds the *enabled* path to ≤5%
on an end-to-end solve, and the disabled path is far below that.

Enable with :func:`configure` (or the CLI's ``--telemetry`` flag)::

    from repro import obs
    obs.configure()
    with obs.span("solve.greedy", k=8):
        ...
    obs.inc("solver_runs_total")
    print(obs.render_prometheus())

Instrumented code never imports metric classes; it goes through the
helpers here (:func:`inc`, :func:`observe`, :func:`set_gauge`,
:func:`span`) or grabs a metric handle via :func:`registry`.  Hot loops
should accumulate plain ints and flush once per operation under
:func:`enabled` — see ``core/approx_fast.py`` for the pattern.
"""

from __future__ import annotations

from repro.obs.exposition import render_prometheus as _render
from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
)
from repro.obs.tracing import (
    DEFAULT_TRACE_BUFFER,
    NULL_TRACER,
    NullTracer,
    SpanTracer,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NullTracer",
    "SpanTracer",
    "configure",
    "disable",
    "enabled",
    "export_chrome_trace",
    "inc",
    "observe",
    "registry",
    "render_prometheus",
    "reset",
    "set_gauge",
    "snapshot",
    "span",
    "tracer",
    "write_chrome_trace",
]

_registry: MetricsRegistry = NULL_REGISTRY
_tracer: SpanTracer = NULL_TRACER
_enabled: bool = False


def configure(
    metrics: bool = True,
    tracing: bool = True,
    trace_buffer: int = DEFAULT_TRACE_BUFFER,
) -> None:
    """Turn telemetry on for this process (idempotent; live metrics are
    kept when already enabled)."""
    global _registry, _tracer, _enabled
    if metrics and isinstance(_registry, NullRegistry):
        _registry = MetricsRegistry()
    if tracing and isinstance(_tracer, NullTracer):
        _tracer = SpanTracer(buffer_size=trace_buffer)
    _enabled = not isinstance(_registry, NullRegistry) or not isinstance(
        _tracer, NullTracer
    )


def disable() -> None:
    """Back to the zero-cost defaults; recorded data is dropped."""
    global _registry, _tracer, _enabled
    _registry = NULL_REGISTRY
    _tracer = NULL_TRACER
    _enabled = False


def enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry:
    """The active registry (the shared null registry when disabled)."""
    return _registry


def tracer() -> SpanTracer:
    return _tracer


def reset() -> None:
    """Clear recorded metrics and spans without toggling the switch."""
    if _registry is not NULL_REGISTRY:
        _registry.reset()
    if _tracer is not NULL_TRACER:
        _tracer.reset()


# -- cheap recording helpers (no-ops when disabled) --------------------
def inc(name: str, amount: float = 1.0, help: str = "", **labels) -> None:
    _registry.counter(name, labels or None, help=help).inc(amount)


def set_gauge(name: str, value: float, help: str = "", **labels) -> None:
    _registry.gauge(name, labels or None, help=help).set(value)


def observe(
    name: str,
    value: float,
    buckets=DEFAULT_LATENCY_BUCKETS,
    help: str = "",
    **labels,
) -> None:
    _registry.histogram(name, labels or None, buckets=buckets, help=help).observe(
        value
    )


def span(name: str, **args):
    return _tracer.span(name, **args)


# -- export ------------------------------------------------------------
def snapshot() -> MetricsSnapshot:
    return _registry.snapshot()


def render_prometheus(*extra: MetricsSnapshot) -> str:
    """Prometheus text of the process registry merged with ``extra``."""
    return _render(_registry.snapshot(), *extra)


def export_chrome_trace() -> dict:
    return _tracer.export_chrome_trace()


def write_chrome_trace(path) -> None:
    _tracer.write_chrome_trace(path)
