"""Asyncio HTTP/1.1 front end over :class:`DominationService` (DESIGN.md §12).

The network tier the paper's motivating workloads need: item
recommendation and ad placement are *online services*, so the typed
in-process queries of :mod:`repro.serve.service` get a wire here.  The
server is stdlib-first — :func:`asyncio.start_server` plus a small
HTTP/1.1 parser — keeping the numpy-only runtime; a FastAPI adapter
could reuse the same dispatch layer, but nothing here imports outside
the standard library.

Three properties the tests and ``benchmarks/bench_http_serving.py`` pin:

* **Bit-identical answers.**  Handlers decode a typed request
  (:mod:`repro.serve.schemas`), bridge into the thread-safe service via
  ``run_in_executor``, and encode the service's answer unchanged —
  floats survive JSON bit-exactly, so every HTTP reply equals the
  direct :class:`~repro.serve.service.DominationService` call.  Because
  queries execute on a thread pool, concurrent HTTP clients share the
  service's greedy prefix exactly as concurrent threads do.
* **Bounded work, fast rejection.**  Admission control is a bounded
  in-flight budget (``max_inflight``) checked *before* the executor is
  touched — an admitted request is the only kind that queues — plus a
  connection cap (``max_connections``).  Past either bound the server
  answers ``503`` with ``Retry-After`` immediately instead of letting
  queues grow without bound.  Each request must arrive within
  :data:`REQUEST_TIMEOUT_S`, so idle and trickling clients cannot hold
  connection slots.
* **Health vs. readiness.**  ``/healthz`` answers 200 whenever the
  process can parse a request.  ``/readyz`` flips to 200 only once the
  listening socket is bound *and* a snapshot is published, and flips
  back on :meth:`DominationHttpServer.drain`.  Epoch swaps
  (``service.sync``) publish atomically, so readiness never flickers
  during churn maintenance.

Observability (DESIGN.md §14): the per-endpoint counters behind
``/stats`` live in a server-local, always-on
:class:`~repro.obs.registry.MetricsRegistry` (the JSON shape of
``/stats`` is unchanged — it is now a *view* over the registry), and
``GET /metrics`` renders that registry, the service counters, and —
when the process enabled telemetry via ``repro.obs.configure()`` — the
global solver/walk/persistence metrics as Prometheus text exposition.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ParameterError, RwdomError
from repro.obs.exposition import render_prometheus
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.serve.schemas import REQUEST_KINDS, decode_request, encode_response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import DominationService

__all__ = [
    "DominationHttpServer",
    "HttpServerHandle",
    "EndpointStats",
    "start_http_server",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "REQUEST_TIMEOUT_S",
]

#: Header-block and body ceilings; past them the request is answered
#: with 431/413 instead of being buffered.
MAX_HEADER_BYTES = 16_384
MAX_BODY_BYTES = 1_048_576

#: Seconds a connection gets to deliver its next complete request, idle
#: time included.  Past it a connection that sent part of a request is
#: answered 408 and closed; one that sent nothing is closed silently.
REQUEST_TIMEOUT_S = 30.0

#: Seconds :meth:`DominationHttpServer.stop` gives connection handlers to
#: finish once their sockets are closed (an answer being computed runs
#: on); handlers still running after it are cancelled.
STOP_GRACE_S = 5.0

#: Default number of latency samples retained per endpoint for the
#: /stats percentiles (a bounded window, so stats memory never grows
#: with uptime).  Override per server with ``stats_window=`` (the CLI's
#: ``--stats-window``).
LATENCY_WINDOW = 2_048

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Stats endpoints, in the order /stats reports them.  ``"prometheus"``
#: is the ``/metrics`` exposition endpoint (``"metrics"`` already names
#: the query kind).
ENDPOINT_NAMES = REQUEST_KINDS + ("healthz", "readyz", "stats", "prometheus")


class _HttpError(Exception):
    """A request that cannot be dispatched; rendered and the connection
    closed (the stream may be desynchronized past a malformed frame)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class EndpointStats:
    """Point-in-time counters for one endpoint (from ``/stats``).

    Latency percentiles follow the small-sample rule of
    :func:`repro.serve.loadgen.sample_percentile` over a bounded window
    of the most recent answers; ``nan`` when nothing was answered yet.
    ``errors_by_status`` breaks ``errors`` down by HTTP status code
    (string keys, so the dict survives a JSON round trip unchanged).
    """

    requests: int
    errors: int
    rejections: int
    in_flight: int
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p99_ms: float
    errors_by_status: "dict[str, int]" = field(default_factory=dict)


class _EndpointCounters:
    """One endpoint's live counters, backed by the server registry.

    The counts live in :class:`~repro.obs.registry.MetricsRegistry`
    metrics (label ``endpoint=<name>``), so ``/stats`` and ``/metrics``
    are two views over the same numbers.  Touched only from the
    event-loop thread (handlers count before and after each ``await``,
    and executor results are delivered back on the loop).  The latency
    deque is the /stats percentile window; the registry histogram keeps
    the full-distribution buckets /metrics exports.
    """

    __slots__ = (
        "_registry", "_name", "_requests", "_rejections", "_in_flight",
        "_latency", "_errors", "samples",
    )

    def __init__(self, registry: MetricsRegistry, name: str, window: int):
        labels = {"endpoint": name}
        self._registry = registry
        self._name = name
        self._requests = registry.counter(
            "http_requests_total", labels, help="HTTP requests received."
        )
        self._rejections = registry.counter(
            "http_rejections_total", labels,
            help="Requests rejected by admission control.",
        )
        self._in_flight = registry.gauge(
            "http_in_flight", labels, help="Requests currently executing."
        )
        self._latency = registry.histogram(
            "http_request_seconds", labels,
            help="Admitted-request service time.",
        )
        self._errors: dict[int, object] = {}
        self.samples: deque[float] = deque(maxlen=window)

    def count_request(self) -> None:
        self._requests.inc()

    def count_error(self, status: int) -> None:
        counter = self._errors.get(status)
        if counter is None:
            counter = self._errors[status] = self._registry.counter(
                "http_errors_total",
                {"endpoint": self._name, "status": str(status)},
                help="Requests answered with an error status.",
            )
        counter.inc()

    def count_rejection(self) -> None:
        self._rejections.inc()

    def enter(self) -> None:
        self._in_flight.inc()

    def leave(self, elapsed: float) -> None:
        self._in_flight.dec()
        self._latency.observe(elapsed)
        self.samples.append(elapsed)

    def freeze(self) -> EndpointStats:
        from repro.serve.loadgen import sample_percentile

        if self.samples:
            window = list(self.samples)
            mean_ms = sum(window) / len(window) * 1e3
            p50_ms = sample_percentile(window, 50) * 1e3
            p99_ms = sample_percentile(window, 99) * 1e3
        else:
            mean_ms = p50_ms = p99_ms = float("nan")
        by_status = {
            str(status): int(counter.value)
            for status, counter in sorted(self._errors.items())
        }
        return EndpointStats(
            requests=int(self._requests.value),
            errors=sum(by_status.values()),
            rejections=int(self._rejections.value),
            in_flight=int(self._in_flight.value),
            latency_mean_ms=mean_ms,
            latency_p50_ms=p50_ms,
            latency_p99_ms=p99_ms,
            errors_by_status=by_status,
        )


def _error_body(exc_type: str, message: str, **context) -> dict:
    return {"error": {"type": exc_type, "message": message, **context}}


class DominationHttpServer:
    """Asyncio HTTP/1.1 server exposing one :class:`DominationService`.

    Parameters
    ----------
    service:
        The (thread-safe) query service to expose.  The server never
        mutates it; churn maintenance keeps going through
        ``service.sync`` from whatever thread owns the dynamic graph.
    host, port:
        Listening address; ``port=0`` binds an ephemeral port, readable
        as :attr:`port` after :meth:`start`.
    max_inflight:
        Bound on concurrently *executing* queries.  Requests beyond it
        are answered ``503`` + ``Retry-After`` without touching the
        executor.  Also sizes the executor thread pool, so admitted
        queries reach the service concurrently.
    max_connections:
        Bound on open client connections; connection attempts beyond it
        receive an immediate ``503`` and are closed.
    retry_after:
        Seconds advertised in ``Retry-After`` on backpressure 503s.
    stats_window:
        Latency samples retained per endpoint for the ``/stats``
        percentiles (default :data:`LATENCY_WINDOW`; the CLI's
        ``--stats-window``).  Must be ≥ 1.
    """

    def __init__(
        self,
        service: "DominationService",
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        max_connections: int = 128,
        retry_after: float = 1.0,
        stats_window: int = LATENCY_WINDOW,
    ):
        if max_inflight < 1:
            raise ParameterError("max_inflight must be >= 1")
        if max_connections < 1:
            raise ParameterError("max_connections must be >= 1")
        if retry_after < 0:
            raise ParameterError("retry_after must be >= 0 seconds")
        if stats_window < 1:
            raise ParameterError("stats_window must be >= 1")
        self._service = service
        self._host = host
        self._requested_port = int(port)
        self.max_inflight = int(max_inflight)
        self.max_connections = int(max_connections)
        self.retry_after = retry_after
        self._inflight = 0
        self._ready = False
        self._port: "int | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._rejected_connections = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="rwdom-http"
        )
        self.stats_window = int(stats_window)
        # Server-local and always on: /stats (and /metrics) work whether
        # or not the process enabled the global telemetry switch.
        self.registry = MetricsRegistry()
        self._endpoints = {
            name: _EndpointCounters(self.registry, name, self.stats_window)
            for name in ENDPOINT_NAMES
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket; flip readiness once it is live."""
        if self._server is not None:
            raise ParameterError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=MAX_HEADER_BYTES,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        # Readiness requires a published snapshot to answer from; the
        # property read is atomic, and later epoch swaps replace the
        # reference atomically too, so this can never flicker mid-sync.
        _ = self._service.snapshot
        self._ready = True

    def drain(self) -> None:
        """Flip readiness off (health stays up, queries still answered).

        The load-balancer drain convention: /readyz starts answering 503
        so new traffic routes elsewhere, while in-flight and straggler
        requests on open connections complete normally.
        """
        self._ready = False

    async def stop(self) -> None:
        """Stop listening, close client connections, drain the executor.

        The client sockets close before the server is awaited: from
        Python 3.12 ``Server.wait_closed`` waits for every open
        connection, so an idle keep-alive client would hold the stop
        until its read deadline.  Each handler then sees EOF and ends;
        one still running after :data:`STOP_GRACE_S` is cancelled, so no
        handler task outlives the loop.
        """
        self._ready = False
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._handlers:
            _, pending = await asyncio.wait(
                list(self._handlers), timeout=STOP_GRACE_S
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)

    @property
    def port(self) -> int:
        if self._port is None:
            raise ParameterError("server is not started")
        return self._port

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def in_flight(self) -> int:
        return self._inflight

    def endpoint_stats(self) -> dict[str, EndpointStats]:
        """Frozen per-endpoint counters (what ``/stats`` serializes)."""
        return {
            name: counters.freeze()
            for name, counters in self._endpoints.items()
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._handlers.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._writers) >= self.max_connections:
            self._rejected_connections += 1
            try:
                writer.write(
                    self._render(
                        503,
                        _error_body(
                            "ServiceUnavailable",
                            f"connection limit ({self.max_connections}) "
                            "reached",
                        ),
                        keep_alive=False,
                        retry_after=True,
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - racy peer
                pass
            finally:
                writer.close()
            return
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._next_request(reader)
                except _HttpError as exc:
                    writer.write(
                        self._render(
                            exc.status,
                            _error_body("ParameterError", exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, version, headers, body = request
                keep_alive = self._keep_alive(version, headers)
                status, payload, retry_after = await self._dispatch(
                    method, path, body
                )
                writer.write(
                    self._render(
                        status,
                        payload,
                        keep_alive=keep_alive,
                        retry_after=retry_after,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # peer went away mid-frame; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()

    @staticmethod
    def _keep_alive(version: str, headers: dict) -> bool:
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    async def _next_request(self, reader: asyncio.StreamReader):
        """The next request, read under one :data:`REQUEST_TIMEOUT_S`
        deadline; ``None`` when the peer closed or stayed silent."""
        started: list[bool] = []
        try:
            return await asyncio.wait_for(
                self._read_request(reader, started), REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            if not started:
                # Close without a reply: on a keep-alive connection the
                # client would read it as the answer to its next request.
                return None
            raise _HttpError(
                408, f"request not received within {REQUEST_TIMEOUT_S:g} s"
            ) from None

    async def _read_request(
        self, reader: asyncio.StreamReader, started: "list[bool]"
    ):
        """One parsed request, or ``None`` on a cleanly closed connection.

        Appends to ``started`` once the request's first byte arrives.
        """
        try:
            first = await reader.readexactly(1)
        except asyncio.IncompleteReadError:
            return None
        started.append(True)
        try:
            line = first if first == b"\n" else first + await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _HttpError(431, "request line too long") from None
        text = line.decode("latin-1").strip()
        parts = text.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line {text!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise _HttpError(431, "header line too long") from None
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _HttpError(400, "connection closed inside headers")
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _HttpError(431, "request headers too large")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(
                    400, f"malformed header line {line.decode('latin-1')!r}"
                )
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Only Content-Length framing is read: a chunked body would
            # otherwise read as empty and its chunk lines would parse as
            # the next request on this connection.
            raise _HttpError(
                501,
                "Transfer-Encoding is not supported; send the body with "
                "Content-Length",
            )
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(
                400, f"invalid Content-Length {raw_length!r}"
            ) from None
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, version, headers, body

    def _render(
        self,
        status: int,
        payload: "dict | str",
        keep_alive: bool,
        retry_after: bool = False,
    ) -> bytes:
        if isinstance(payload, str):  # /metrics: Prometheus text
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after:
            head.append(f"Retry-After: {self.retry_after:g}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, target: str, body: bytes):
        """``(status, payload, retry_after)`` for one parsed request."""
        path = target.split("?", 1)[0]
        if path in ("/healthz", "/readyz", "/stats", "/metrics"):
            name = "prometheus" if path == "/metrics" else path.lstrip("/")
            if method != "GET":
                self._endpoints[name].count_error(405)
                return (
                    405,
                    _error_body(
                        "ParameterError", f"{path} only supports GET"
                    ),
                    False,
                )
            self._endpoints[name].count_request()
            if path == "/healthz":
                return 200, {"status": "ok", **self._service.describe()}, False
            if path == "/readyz":
                if self._ready:
                    return (
                        200,
                        {"ready": True, "epoch": self._service.epoch},
                        False,
                    )
                return 503, {"ready": False}, True
            if path == "/metrics":
                return 200, self.render_metrics(), False
            return 200, self._stats_payload(), False
        if path.startswith("/query/"):
            kind = path[len("/query/"):]
            if kind not in REQUEST_KINDS:
                return (
                    404,
                    _error_body(
                        "ParameterError",
                        f"unknown query kind {kind!r} (expected one of "
                        f"{REQUEST_KINDS})",
                    ),
                    False,
                )
            if method != "POST":
                self._endpoints[kind].count_error(405)
                return (
                    405,
                    _error_body(
                        "ParameterError", f"{path} only supports POST"
                    ),
                    False,
                )
            return await self._handle_query(kind, body)
        return (
            404,
            _error_body(
                "ParameterError",
                f"no route for {path!r} (endpoints: /healthz, /readyz, "
                "/stats, /metrics, /query/<kind>)",
            ),
            False,
        )

    async def _handle_query(self, kind: str, body: bytes):
        counters = self._endpoints[kind]
        counters.count_request()
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            counters.count_error(400)
            return (
                400,
                _error_body(
                    "ParameterError",
                    f"{kind} request body is not valid JSON: {exc}",
                    kind=kind,
                ),
                False,
            )
        try:
            request = decode_request(kind, payload)
        except ParameterError as exc:
            counters.count_error(400)
            return 400, _error_body(type(exc).__name__, str(exc), kind=kind), False
        # Admission control: the check-and-increment pair runs without an
        # intervening await on the single loop thread, so the in-flight
        # budget cannot be oversubscribed by interleaved handlers.
        if self._inflight >= self.max_inflight:
            counters.count_rejection()
            return (
                503,
                _error_body(
                    "ServiceUnavailable",
                    f"server is at its in-flight limit "
                    f"({self.max_inflight}); retry later",
                    kind=kind,
                ),
                True,
            )
        self._inflight += 1
        counters.enter()
        started = time.perf_counter()
        try:
            value = await asyncio.get_running_loop().run_in_executor(
                self._executor, request.issue, self._service
            )
        except RwdomError as exc:
            counters.count_error(400)
            return 400, _error_body(type(exc).__name__, str(exc), kind=kind), False
        except Exception as exc:
            # A bug must surface as a typed 500, never a traceback
            # through the socket.
            counters.count_error(500)
            return (
                500,
                _error_body(
                    "InternalError",
                    f"{type(exc).__name__} while serving {kind}",
                    kind=kind,
                ),
                False,
            )
        finally:
            self._inflight -= 1
            counters.leave(time.perf_counter() - started)
        return 200, encode_response(kind, value), False

    def _stats_payload(self) -> dict:
        from dataclasses import asdict

        service_stats = self._service.stats
        endpoints = {}
        for name, stats in self.endpoint_stats().items():
            row = asdict(stats)
            for key, value in row.items():
                if value != value:  # NaN is not strict JSON
                    row[key] = None
            endpoints[name] = row
        return {
            "server": {
                "ready": self._ready,
                "in_flight": self._inflight,
                "max_inflight": self.max_inflight,
                "connections": len(self._writers),
                "max_connections": self.max_connections,
                "rejected_connections": self._rejected_connections,
            },
            "service": asdict(service_stats),
            "endpoints": endpoints,
        }

    _SERVICE_METRIC_HELP = {
        "serve_queries_total": "Queries accepted by the service.",
        "serve_cache_hits_total": "Result-cache hits.",
        "serve_kernel_passes_total": "Solver runs (select, metrics, min_targets).",
        "serve_select_batches_total": "Greedy prefix solves for select.",
        "serve_batched_queries_total": "Select queries answered from a held prefix.",
        "serve_publishes_total": "Snapshot publishes (epoch swaps).",
        "serve_epoch": "Currently published snapshot epoch.",
    }

    def render_metrics(self) -> str:
        """Prometheus text: server registry + service counters + (when the
        process enabled telemetry) the global solver/walk/persistence
        registry — one scrape covers every layer."""
        from dataclasses import asdict

        service = MetricsSnapshot(help=dict(self._SERVICE_METRIC_HELP))
        for name, value in asdict(self._service.stats).items():
            if name == "epoch":
                service.gauges[("serve_epoch", ())] = float(value)
            else:
                service.counters[(f"serve_{name}_total", ())] = float(value)
        server = MetricsSnapshot(
            gauges={
                ("http_ready", ()): float(self._ready),
                ("http_open_connections", ()): float(len(self._writers)),
                ("http_max_connections", ()): float(self.max_connections),
                ("http_max_inflight", ()): float(self.max_inflight),
            },
            counters={
                ("http_rejected_connections_total", ()): float(
                    self._rejected_connections
                ),
            },
            help={
                "http_ready": "1 once ready to serve, 0 while draining.",
                "http_open_connections": "Open client connections.",
                "http_max_connections": "Connection cap.",
                "http_max_inflight": "In-flight admission budget.",
                "http_rejected_connections_total":
                    "Connections refused at the cap.",
            },
        )
        return render_prometheus(
            self.registry.snapshot(), service, server, obs.snapshot()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.base_url if self._port is not None else "unbound"
        return (
            f"DominationHttpServer({where}, ready={self._ready}, "
            f"in_flight={self._inflight}/{self.max_inflight})"
        )


# ----------------------------------------------------------------------
# Threaded embedding: run the event loop on a daemon thread so
# synchronous callers (the CLI, tests, the load generator) can stand a
# server up without owning an event loop themselves.
# ----------------------------------------------------------------------
class HttpServerHandle:
    """A running server on a background event-loop thread."""

    def __init__(
        self,
        server: DominationHttpServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def base_url(self) -> str:
        return self.server.base_url

    def drain(self) -> None:
        self.server.drain()

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    def __enter__(self) -> "HttpServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_http_server(
    service: "DominationService", **kwargs
) -> HttpServerHandle:
    """Start a :class:`DominationHttpServer` on a daemon loop thread.

    Blocks until the listening socket is bound (so :attr:`base_url` is
    immediately usable) and re-raises any bind failure in the caller.
    """
    server = DominationHttpServer(service, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(
        target=run, name="rwdom-http-loop", daemon=True
    )
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return HttpServerHandle(server, loop, thread)
