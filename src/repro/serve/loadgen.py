"""Closed-loop load generation against a :class:`DominationService`.

Workload files are plain text, one query per line (``#`` comments and
blank lines ignored)::

    select 25            # best-25 placement (ApproxF2 on the snapshot)
    select 25 f1         # same budget under the Problem-1 objective
    metrics 3,17,42      # sampled coverage/AHT of an explicit placement
    coverage 3,17,42     # covered fraction only
    min-targets 0.4      # smallest set reaching 40% expected coverage

:func:`run_load` replays a workload through ``num_clients`` *closed-loop*
clients — each issues one query, waits for the answer, then issues its
next, the arrival model of the paper's online scenarios — and reports
throughput, latency percentiles, and the service's prefix and cache
counters.  Two transports share the harness: ``"inproc"`` calls the
service directly on client threads, ``"http"`` drives the same queries
through keep-alive connections to a
:class:`~repro.serve.http.DominationHttpServer` (one connection per
client), so the wire tax is directly measurable against the in-process
numbers.  The same harness drives ``repro serve`` and the gated
``benchmarks/bench_serving.py`` / ``benchmarks/bench_http_serving.py``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from typing import TYPE_CHECKING, Sequence
from urllib.parse import urlsplit

import numpy as np

from repro.errors import ParameterError, RwdomError
from repro.serve.service import ServiceStats
from repro.serve.schemas import (
    CoverageRequest,
    MetricsRequest,
    MinTargetsRequest,
    SelectRequest,
    encode_request,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import DominationService

__all__ = [
    "WorkloadQuery",
    "parse_workload",
    "LoadReport",
    "run_load",
    "sample_percentile",
]

#: Transports :func:`run_load` understands.
TRANSPORTS = ("inproc", "http")


def sample_percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile under the small-sample rule.

    Latency percentiles here always return an *observed* sample — the
    smallest observed value that at least ``q`` percent of the sample
    does not exceed (numpy's ``method="higher"``).  Linear interpolation
    (numpy's default) is misleading on small samples: two latencies of
    1 ms and 100 ms would interpolate to a "p99" of 99 ms, implying 99 %
    of queries beat a number that half of them missed.  Under this rule
    a sample smaller than ``100 / (100 - q)`` observations (fewer than
    100 for p99) reports its maximum — an honest upper bound rather than
    a fabricated midpoint.
    """
    flat = np.asarray(list(values), dtype=float)
    if flat.size == 0:
        raise ParameterError("cannot take a percentile of an empty sample")
    return float(np.percentile(flat, q, method="higher"))


@dataclass(frozen=True)
class WorkloadQuery:
    """One parsed workload directive.

    ``kind`` is ``select``/``metrics``/``coverage``/``min-targets``;
    only the fields that kind uses are meaningful.  ``line`` is the
    1-based workload line for error context (0 when built
    programmatically).
    """

    kind: str
    k: int = 0
    objective: str = "f2"
    targets: tuple[int, ...] = ()
    fraction: float = 0.0
    line: int = 0

    def issue(self, service: "DominationService"):
        """Run this query synchronously against ``service``."""
        if self.kind == "select":
            return service.select(self.k, objective=self.objective)
        if self.kind == "metrics":
            return service.metrics(self.targets)
        if self.kind == "coverage":
            return service.coverage(self.targets)
        if self.kind == "min-targets":
            return service.min_targets(self.fraction)
        raise ParameterError(f"unknown workload query kind {self.kind!r}")

    def to_request(self):
        """This directive as its wire schema (:mod:`repro.serve.schemas`)."""
        if self.kind == "select":
            return SelectRequest(k=self.k, objective=self.objective)
        if self.kind == "metrics":
            return MetricsRequest(targets=self.targets)
        if self.kind == "coverage":
            return CoverageRequest(targets=self.targets)
        if self.kind == "min-targets":
            return MinTargetsRequest(fraction=self.fraction)
        raise ParameterError(f"unknown workload query kind {self.kind!r}")


def parse_workload(text: str) -> list[WorkloadQuery]:
    """Parse a workload file into :class:`WorkloadQuery` records.

    Malformed lines raise :class:`~repro.errors.ParameterError` with the
    offending line number (same discipline as
    :func:`repro.dynamic.churn.parse_trace`); range checks against the
    served graph happen at issue time, inside the service.
    """
    queries: list[WorkloadQuery] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "select" and len(parts) in (2, 3):
                objective = parts[2].lower() if len(parts) == 3 else "f2"
                if objective not in ("f1", "f2"):
                    raise ValueError
                queries.append(
                    WorkloadQuery(
                        kind="select", k=int(parts[1]),
                        objective=objective, line=lineno,
                    )
                )
            elif kind in ("metrics", "coverage") and len(parts) == 2:
                targets = tuple(
                    int(part) for part in parts[1].split(",") if part.strip()
                )
                queries.append(
                    WorkloadQuery(kind=kind, targets=targets, line=lineno)
                )
            elif kind == "min-targets" and len(parts) == 2:
                queries.append(
                    WorkloadQuery(
                        kind="min-targets", fraction=float(parts[1]),
                        line=lineno,
                    )
                )
            else:
                raise ValueError
        except ValueError:
            raise ParameterError(
                f"workload line {lineno}: cannot parse {raw!r} (expected "
                "'select K [f1|f2]', 'metrics U,V,...', "
                "'coverage U,V,...', or 'min-targets FRAC')"
            )
    return queries


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one closed-loop load run.

    ``throughput_qps`` counts every issued query (a rejection is still a
    served response); the latency fields describe *answered* queries
    only, so a fast-failing workload line cannot drag the percentiles
    toward its near-zero rejection time.  Percentiles follow the
    small-sample rule of :func:`sample_percentile` — they are always an
    observed latency, and with fewer than 100 answered queries the p99
    is the maximum.  A run in which *nothing* was answered raises
    :class:`~repro.errors.ParameterError` instead of reporting
    meaningless numbers.  ``errors`` counts library-rejected queries
    (typed 4xx over HTTP); ``rejections`` counts backpressure 503s from
    the HTTP tier (always 0 in-process).

    Over ``transport="http"`` the client-side aggregates above are
    joined by ``endpoints``: the server's own per-endpoint taxonomy from
    ``/stats`` (requests, errors broken down by status in
    ``errors_by_status``, rejections, latency percentiles), captured
    after the run drains — so server-side error detail is no longer
    collapsed into the single client-side ``errors`` count.  In-process
    runs have no server; ``endpoints`` is ``None`` there.
    """

    num_queries: int
    num_clients: int
    elapsed_seconds: float
    throughput_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p99_ms: float
    errors: int
    rejections: int
    stats: ServiceStats
    endpoints: "dict[str, dict] | None" = None


class _Rejected(Exception):
    """A backpressure 503 from the HTTP tier (internal sentinel)."""


class _HttpClient:
    """One keep-alive connection issuing schema-encoded queries."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ParameterError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._conn = HTTPConnection(
            parts.hostname, parts.port or 80, timeout=timeout
        )

    def request(self, method: str, path: str, payload: "dict | None" = None):
        """``(status, decoded JSON body)`` for one round trip."""
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, json.loads(data.decode("utf-8"))

    def issue(self, query: WorkloadQuery):
        """Issue one workload query; raise like the in-process path.

        Typed 4xx errors come back as
        :class:`~repro.errors.ParameterError` (mirroring the service's
        own rejections), backpressure 503s as the internal rejection
        sentinel, and anything else — a 500, a non-JSON body — as a hard
        failure that aborts the run.
        """
        kind, payload = encode_request(query.to_request())
        status, answer = self.request("POST", f"/query/{kind}", payload)
        if status == 200:
            return answer
        message = answer.get("error", {}).get("message", str(answer))
        if status == 503:
            raise _Rejected(message)
        if 400 <= status < 500:
            raise ParameterError(f"HTTP {status}: {message}")
        raise RuntimeError(f"HTTP {status} from /query/{kind}: {message}")

    def close(self) -> None:
        self._conn.close()


def _fetch_stats_payload(base_url: str) -> dict:
    client = _HttpClient(base_url)
    try:
        status, payload = client.request("GET", "/stats")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /stats returned HTTP {status}")
    return payload


def _fetch_service_stats(base_url: str) -> ServiceStats:
    return ServiceStats(**_fetch_stats_payload(base_url)["service"])


def run_load(
    service: "DominationService | None",
    queries: Sequence[WorkloadQuery],
    num_clients: int = 4,
    repeat: int = 1,
    transport: str = "inproc",
    base_url: "str | None" = None,
) -> LoadReport:
    """Drive ``queries`` through closed-loop clients; measure the service.

    The stream is the workload repeated ``repeat`` times, dealt
    round-robin to ``num_clients`` threads that all start on a barrier.
    Per-query latency is wall-clock from issue to answer on the client
    thread — a ``select`` that extends the service's greedy prefix pays
    for a solve of up to twice its budget, and the selects after it are
    slices.

    ``transport="inproc"`` (the default) calls ``service`` directly;
    ``transport="http"`` issues the same queries over keep-alive
    connections to ``base_url`` (a running
    :class:`~repro.serve.http.DominationHttpServer`), one connection per
    client.  Over HTTP, ``service`` may be ``None`` — the report's
    service counters are then fetched from the server's ``/stats``
    endpoint after the run drains.

    Library-level query failures (:class:`~repro.errors.RwdomError`
    in-process, typed 4xx responses over HTTP) are counted in
    ``errors``, and backpressure 503s in ``rejections``, not raised —
    one bad workload line must not tear down a load run.  Anything else
    (a genuine bug, a 500, a resource failure) aborts the client and
    re-raises after the run drains, rather than being silently
    swallowed into a plausible-looking report.
    """
    if num_clients < 1:
        raise ParameterError("num_clients must be >= 1")
    if repeat < 1:
        raise ParameterError("repeat must be >= 1")
    if transport not in TRANSPORTS:
        raise ParameterError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if transport == "http" and not base_url:
        raise ParameterError("transport='http' requires base_url")
    if transport == "inproc":
        if base_url is not None:
            raise ParameterError("base_url is only meaningful over http")
        if service is None:
            raise ParameterError("transport='inproc' requires a service")
    stream = list(queries) * repeat
    if not stream:
        raise ParameterError("the workload contains no queries")
    num_clients = min(num_clients, len(stream))
    latencies: list[list[float]] = [[] for _ in range(num_clients)]
    errors = [0] * num_clients
    rejections = [0] * num_clients
    fatal: list[BaseException] = []
    barrier = threading.Barrier(num_clients + 1)

    def client(i: int) -> None:
        # Client setup must not skip the barrier — the run thread waits
        # on it, so a setup failure is recorded and the barrier still
        # crossed before bailing out.
        http_client = None
        try:
            if transport == "http":
                http_client = _HttpClient(base_url)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            fatal.append(exc)
            barrier.wait()
            return
        issue = (
            http_client.issue
            if http_client is not None
            else lambda query: query.issue(service)
        )
        try:
            barrier.wait()
            for query in stream[i::num_clients]:
                started = time.perf_counter()
                try:
                    issue(query)
                except _Rejected:
                    rejections[i] += 1
                except RwdomError:
                    errors[i] += 1
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    fatal.append(exc)
                    return
                else:
                    latencies[i].append(time.perf_counter() - started)
        finally:
            if http_client is not None:
                http_client.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if fatal:
        raise fatal[0]
    flat = [lat for per in latencies for lat in per]
    if not flat:
        # Nothing was answered: there is no latency distribution, and a
        # report full of placeholder numbers would read as a healthy
        # run.  Fail loudly instead (regression-tested).
        raise ParameterError(
            f"no queries were answered: all {len(stream)} were rejected "
            f"({sum(errors)} errors, {sum(rejections)} backpressure 503s)"
        )
    endpoints = None
    if transport == "http":
        # One /stats read serves both: the service counters (when no
        # handle was passed) and the server-side per-endpoint error
        # taxonomy the client-side aggregates cannot see.
        payload = _fetch_stats_payload(base_url)
        endpoints = payload["endpoints"]
        stats = (
            service.stats
            if service is not None
            else ServiceStats(**payload["service"])
        )
    else:
        stats = service.stats
    return LoadReport(
        num_queries=len(stream),
        num_clients=num_clients,
        elapsed_seconds=elapsed,
        throughput_qps=len(stream) / elapsed if elapsed > 0 else float("inf"),
        latency_mean_ms=float(np.mean(flat)) * 1e3,
        latency_p50_ms=sample_percentile(flat, 50) * 1e3,
        latency_p99_ms=sample_percentile(flat, 99) * 1e3,
        errors=int(sum(errors)),
        rejections=int(sum(rejections)),
        stats=stats,
        endpoints=endpoints,
    )
