"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the storage layer of :mod:`repro.obs` (DESIGN.md §14).
Three metric families, all dependency-free and safe under free-threaded
access:

* :class:`Counter` — monotonically increasing float (``inc``).
* :class:`Gauge` — instantaneous value (``set``/``inc``/``dec``).
* :class:`Histogram` — fixed upper-bound buckets, cumulative on export
  (Prometheus ``le`` semantics), plus exact ``sum``/``count``.

Each metric instance owns one :class:`threading.Lock`; the registry's own
lock only guards the name table, so contention between distinct metrics is
zero and contention on one metric is a single uncontended-in-the-common-case
lock acquire (no busy retry loops, no lost updates — asserted by the
hypothesis suite in ``tests/test_obs.py``).

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain data and merge
(:meth:`MetricsSnapshot.merge`): counters and histograms add, gauges
last-write-win.

:class:`NullRegistry` is the disabled-mode stand-in: every accessor returns
a shared no-op metric, so instrumented code pays one attribute call and a
no-op method invocation when telemetry is off.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

from repro.errors import ParameterError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NULL_REGISTRY",
]

# Seconds-scale latency buckets (upper bounds); +Inf is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Power-of-two count buckets for size-like observations (batch occupancy,
# resampled rows, ...); +Inf is implicit.
COUNT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Metric identity inside a snapshot: ``(name, ((label, value), ...))``.
Key = "tuple[str, tuple[tuple[str, str], ...]]"


def _label_key(labels: "dict[str, str] | None") -> tuple:
    if not labels:
        return ()
    items = []
    for name in sorted(labels):
        if not _LABEL_RE.match(name):
            raise ParameterError(f"invalid metric label name {name!r}")
        items.append((name, str(labels[name])))
    return tuple(items)


class Counter:
    """Monotonic counter.  ``inc`` only; negative increments raise."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError("counter increments must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Instantaneous value; ``set``/``inc``/``dec``."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramState:
    """Immutable histogram snapshot: per-bucket counts are *non-cumulative*
    here (bucket ``i`` counts observations in ``(bounds[i-1], bounds[i]]``;
    the final slot is the +Inf overflow); exposition cumulates them."""

    bounds: tuple
    counts: tuple
    sum: float
    count: int

    def merged(self, other: "HistogramState") -> "HistogramState":
        if self.bounds != other.bounds:
            raise ParameterError(
                "cannot merge histograms with different buckets"
            )
        return HistogramState(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )


class Histogram:
    """Fixed-bucket histogram of float observations."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b >= c for b, c in zip(bounds, bounds[1:])
        ):
            raise ParameterError(
                "histogram buckets must be a non-empty increasing sequence"
            )
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def bounds(self) -> tuple:
        return self._bounds

    def state(self) -> HistogramState:
        with self._lock:
            return HistogramState(
                bounds=self._bounds,
                counts=tuple(self._counts),
                sum=self._sum,
                count=self._count,
            )


@dataclass
class MetricsSnapshot:
    """A point-in-time copy of a registry — plain data, mergeable.

    Keys are ``(name, ((label, value), ...))`` tuples.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    help: dict = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot with ``other`` folded in (counters/histograms
        add, gauges last-write-win)."""
        out = MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms=dict(self.histograms),
            help={**self.help, **other.help},
        )
        for key, value in other.counters.items():
            out.counters[key] = out.counters.get(key, 0.0) + value
        for key, value in other.gauges.items():
            out.gauges[key] = value
        for key, state in other.histograms.items():
            prior = out.histograms.get(key)
            out.histograms[key] = state if prior is None else prior.merged(state)
        return out

    @classmethod
    def merge_all(cls, snapshots) -> "MetricsSnapshot":
        out = cls()
        for snap in snapshots:
            out = out.merge(snap)
        return out


class MetricsRegistry:
    """Named, labelled metrics with per-metric locking (module docstring)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._help: dict = {}

    # -- accessors (create on first use) ------------------------------
    def _get(self, table, name, labels, factory, help):
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        key = (name, _label_key(labels))
        with self._lock:
            metric = table.get(key)
            if metric is None:
                metric = table[key] = factory()
                if help and name not in self._help:
                    self._help[name] = help
            return metric

    def counter(
        self, name: str, labels: "dict | None" = None, help: str = ""
    ) -> Counter:
        return self._get(self._counters, name, labels, Counter, help)

    def gauge(
        self, name: str, labels: "dict | None" = None, help: str = ""
    ) -> Gauge:
        return self._get(self._gauges, name, labels, Gauge, help)

    def histogram(
        self,
        name: str,
        labels: "dict | None" = None,
        buckets=DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get(
            self._histograms, name, labels, lambda: Histogram(buckets), help
        )

    # -- export / merge ------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            help = dict(self._help)
        return MetricsSnapshot(
            counters={k: c.value for k, c in counters.items()},
            gauges={k: g.value for k, g in gauges.items()},
            histograms={k: h.state() for k, h in histograms.items()},
            help=help,
        )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._help.clear()


class _NullMetric:
    """Shared no-op stand-in for every metric type when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """Disabled-mode registry: accessors return a shared no-op metric and
    snapshots are empty."""

    def counter(self, name, labels=None, help=""):
        return _NULL_METRIC

    def gauge(self, name, labels=None, help=""):
        return _NULL_METRIC

    def histogram(self, name, labels=None, buckets=DEFAULT_LATENCY_BUCKETS, help=""):
        return _NULL_METRIC

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


NULL_REGISTRY = NullRegistry()
