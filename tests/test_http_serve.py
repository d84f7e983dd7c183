"""End-to-end tests for the HTTP serving tier (repro.serve.http/schemas).

Fast-lane tests stand a real asyncio server up on an ephemeral port and
talk to it over sockets: wire answers must be bit-identical to direct
:class:`DominationService` calls for every query kind, malformed input
must come back as typed 4xx JSON (never a traceback), readiness must
track the snapshot lifecycle atomically through ``sync()`` epoch swaps,
and saturation must produce bounded in-flight work with fast 503s.  The
exhaustive schema round-trip/fuzz properties are hypothesis suites in
the slow lane.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core.approx_fast import approx_greedy_fast
from repro.core.coverage import min_targets_for_coverage
from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph
from repro.dynamic import DynamicGraph, DynamicWalkIndex
from repro.serve import (
    DominationService,
    IndexSnapshot,
    WorkloadQuery,
    decode_request,
    encode_request,
    parse_workload,
    run_load,
    start_http_server,
)
from repro.serve.loadgen import _HttpClient
from repro.serve.schemas import (
    CoverageRequest,
    MetricsRequest,
    MinTargetsRequest,
    SelectRequest,
)
from repro.walks.index import FlatWalkIndex

LENGTH = 5
REPLICATES = 20


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(120, 420, seed=1)


@pytest.fixture(scope="module")
def index(graph):
    return FlatWalkIndex.build(graph, LENGTH, REPLICATES, seed=2)


def _service(graph, index, **kwargs):
    return DominationService(IndexSnapshot.capture(graph, index), **kwargs)


def _absent_edges(graph, count):
    """Deterministic ``count`` non-edges of ``graph`` (insertable)."""
    found = []
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if not graph.has_edge(u, v):
                found.append((u, v))
                if len(found) == count:
                    return found
    raise AssertionError("graph too dense for the test instance")


@pytest.fixture(scope="module")
def server(graph, index):
    """One shared read-only server for the parity/error tests."""
    handle = start_http_server(_service(graph, index))
    yield handle
    handle.stop()


def _post(handle, kind, payload):
    client = _HttpClient(handle.base_url)
    try:
        return client.request("POST", f"/query/{kind}", payload)
    finally:
        client.close()


def _get(handle, path):
    client = _HttpClient(handle.base_url)
    try:
        return client.request("GET", path)
    finally:
        client.close()


class TestWireParity:
    """Every HTTP answer == the direct service/solver call, bit for bit."""

    def test_select_both_objectives(self, graph, index, server):
        for objective in ("f1", "f2"):
            for k in (0, 1, 6, 15):
                status, answer = _post(
                    server, "select", {"k": k, "objective": objective}
                )
                direct = approx_greedy_fast(
                    graph, k, LENGTH, index=index, objective=objective
                )
                assert status == 200
                assert tuple(answer["selected"]) == direct.selected
                assert tuple(answer["gains"]) == direct.gains
                assert answer["algorithm"] == direct.algorithm

    def test_metrics_and_coverage(self, graph, index, server):
        placement = approx_greedy_fast(
            graph, 6, LENGTH, index=index, objective="f2"
        ).selected
        expected = index.selection_metrics(placement)
        status, answer = _post(
            server, "metrics", {"targets": list(placement)}
        )
        assert status == 200
        assert answer["metrics"] == {
            key: float(value) for key, value in expected.items()
        }
        status, answer = _post(
            server, "coverage", {"targets": list(placement)}
        )
        assert status == 200
        assert answer["coverage_fraction"] == float(
            expected["coverage_fraction"]
        )

    def test_min_targets(self, graph, index, server):
        direct = min_targets_for_coverage(graph, 0.3, LENGTH, index=index)
        status, answer = _post(server, "min_targets", {"fraction": 0.3})
        assert status == 200
        assert tuple(answer["selected"]) == direct.selected
        assert tuple(answer["gains"]) == direct.gains
        # max_size passes through: capping at exactly the uncapped size
        # must give the identical answer.
        cap = len(direct.selected)
        capped = min_targets_for_coverage(
            graph, 0.3, LENGTH, index=index, max_size=cap
        )
        status, answer = _post(
            server, "min_targets", {"fraction": 0.3, "max_size": cap}
        )
        assert status == 200
        assert tuple(answer["selected"]) == capped.selected

    def test_http_loadgen_matches_service_counters(self, graph, index, server):
        queries = parse_workload(
            "select 4\nselect 4 f1\nmetrics 1,2\ncoverage 3,4\n"
            "min-targets 0.2\n"
        )
        before = server.server._service.stats.queries
        report = run_load(
            None, queries, num_clients=2, repeat=2,
            transport="http", base_url=server.base_url,
        )
        assert report.num_queries == 10
        assert report.errors == 0
        assert report.rejections == 0
        # service=None: counters come from GET /stats and must reflect
        # exactly the queries this run issued.
        assert report.stats.queries == before + 10


class TestTypedErrors:
    """Malformed input -> typed 4xx JSON with context, never a traceback."""

    def test_malformed_json_body(self, server):
        client = _HttpClient(server.base_url)
        try:
            client._conn.request(
                "POST", "/query/select", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = client._conn.getresponse()
            payload = json.loads(response.read())
        finally:
            client.close()
        assert response.status == 400
        assert payload["error"]["type"] == "ParameterError"
        assert "not valid JSON" in payload["error"]["message"]

    def test_unknown_kind_lists_kinds(self, server):
        status, payload = _post(server, "frobnicate", {})
        assert status == 404
        assert "unknown query kind" in payload["error"]["message"]
        assert "min_targets" in payload["error"]["message"]

    def test_unknown_field_named(self, server):
        status, payload = _post(server, "select", {"k": 3, "kk": 4})
        assert status == 400
        assert "'kk'" in payload["error"]["message"]

    def test_missing_required_field(self, server):
        status, payload = _post(server, "select", {})
        assert status == 400
        assert "missing required field 'k'" in payload["error"]["message"]

    def test_wrong_type_names_field(self, server):
        status, payload = _post(server, "select", {"k": "five"})
        assert status == 400
        assert "field 'k'" in payload["error"]["message"]
        # JSON booleans must not pass as integers.
        status, payload = _post(server, "select", {"k": True})
        assert status == 400
        status, payload = _post(
            server, "metrics", {"targets": [1, "two"]}
        )
        assert status == 400
        assert "field 'targets'" in payload["error"]["message"]

    def test_service_level_rejections_are_400(self, graph, server):
        status, payload = _post(
            server, "select", {"k": graph.num_nodes + 7}
        )
        assert status == 400
        assert payload["error"]["type"] == "ParameterError"
        status, payload = _post(server, "min_targets", {"fraction": 2.0})
        assert status == 400
        status, payload = _post(server, "metrics", {"targets": [10_000]})
        assert status == 400

    def test_negative_max_size_is_400(self, server):
        status, payload = _post(
            server, "min_targets", {"fraction": 0.0, "max_size": -3}
        )
        assert status == 400
        assert payload["error"]["type"] == "ParameterError"
        assert "max_size" in payload["error"]["message"]

    def test_method_and_route_errors(self, server):
        client = _HttpClient(server.base_url)
        try:
            status, payload = client.request("GET", "/query/select")
            assert status == 405
            status, payload = client.request("POST", "/healthz", {})
            assert status == 405
            status, payload = client.request("GET", "/nope")
            assert status == 404
            assert "/query/" in payload["error"]["message"]
        finally:
            client.close()

    def test_malformed_request_line_gets_400(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            response = sock.recv(65536).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "malformed request line" in response

    def test_chunked_body_gets_one_501_then_eof(self, server):
        """A chunked body is refused outright: read as Content-Length 0,
        its chunk lines would parse as further requests on the socket."""
        body = json.dumps({"k": 2}).encode()
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /query/select HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
            )
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        response = received.decode()
        assert response.startswith("HTTP/1.1 501 Not Implemented")
        assert response.count("HTTP/1.1 ") == 1
        assert "Transfer-Encoding" in response
        assert "Connection: close" in response

    def test_internal_errors_do_not_leak_tracebacks(self, graph, index):
        service = _service(graph, index)

        def boom(selection):
            raise RuntimeError("secret internals")

        service.metrics = boom
        handle = start_http_server(service)
        try:
            status, payload = _post(handle, "metrics", {"targets": [1]})
        finally:
            handle.stop()
        assert status == 500
        assert payload["error"]["type"] == "InternalError"
        assert "secret internals" not in json.dumps(payload)
        assert "Traceback" not in json.dumps(payload)


class TestHealthAndReadiness:
    def test_healthz_describes_snapshot(self, graph, index, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["num_nodes"] == graph.num_nodes
        assert payload["length"] == LENGTH
        assert payload["num_replicates"] == REPLICATES

    def test_ready_up_and_drain(self, graph, index):
        handle = start_http_server(_service(graph, index))
        try:
            status, payload = _get(handle, "/readyz")
            assert (status, payload["ready"]) == (200, True)
            handle.drain()
            status, payload = _get(handle, "/readyz")
            assert (status, payload["ready"]) == (503, False)
            # Health and straggler traffic keep working while drained.
            assert _get(handle, "/healthz")[0] == 200
            assert _post(handle, "coverage", {"targets": [1]})[0] == 200
        finally:
            handle.stop()

    def test_readiness_never_flickers_during_epoch_swaps(self, graph):
        dgraph = DynamicGraph(graph)
        dyn = DynamicWalkIndex.build(graph, LENGTH, REPLICATES, seed=4)
        service = DominationService.from_dynamic(dyn)
        handle = start_http_server(service)
        stop = threading.Event()
        not_ready: list = []

        def poll():
            client = _HttpClient(handle.base_url)
            try:
                while not stop.is_set():
                    status, payload = client.request("GET", "/readyz")
                    if status != 200 or not payload["ready"]:
                        not_ready.append((status, payload))
            finally:
                client.close()

        poller = threading.Thread(target=poll, daemon=True)
        try:
            poller.start()
            for epoch, edge in enumerate(_absent_edges(graph, 5)):
                dgraph.apply_batch([edge], [])
                service.sync(dgraph)
                assert service.epoch == epoch + 1
        finally:
            stop.set()
            poller.join()
            handle.stop()
        assert not_ready == []


class TestConcurrentChurnOverHttp:
    def test_no_torn_answers_during_sync_publishes(self, graph):
        """Concurrent HTTP clients during sync() epoch publishes always
        see the answer of *some* published epoch's snapshot — never a
        torn one — and never a dropped connection."""
        k = 4
        placement = (3, 17, 42)
        dgraph = DynamicGraph(graph)
        dyn = DynamicWalkIndex.build(graph, LENGTH, REPLICATES, seed=5)
        service = DominationService.from_dynamic(dyn, cache_size=0)
        handle = start_http_server(service, max_inflight=16)
        snapshots = {0: service.snapshot}
        observed: list = []
        failures: list = []
        stop = threading.Event()

        def client() -> None:
            http = _HttpClient(handle.base_url)
            try:
                while not stop.is_set():
                    status, answer = http.request(
                        "POST", "/query/select", {"k": k}
                    )
                    if status != 200:
                        failures.append(("select", status, answer))
                        return
                    status, metrics = http.request(
                        "POST", "/query/metrics",
                        {"targets": list(placement)},
                    )
                    if status != 200:
                        failures.append(("metrics", status, metrics))
                        return
                    observed.append((
                        tuple(answer["selected"]),
                        tuple(answer["gains"]),
                        answer["params"]["epoch"],
                        metrics["metrics"],
                    ))
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(("exception", repr(exc)))
            finally:
                http.close()

        workers = [
            threading.Thread(target=client, daemon=True) for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        try:
            for edge in _absent_edges(graph, 6):
                dgraph.apply_batch([edge], [])
                service.sync(dgraph)
                snapshots[service.epoch] = service.snapshot
                time.sleep(0.01)
        finally:
            stop.set()
            for worker in workers:
                worker.join()
            handle.stop()
        assert failures == []
        assert observed, "clients never completed a query pair"
        expected_select = {
            epoch: approx_greedy_fast(
                snap.graph, k, LENGTH, index=snap.index, objective="f2"
            )
            for epoch, snap in snapshots.items()
        }
        expected_metrics = [
            {key: float(value) for key, value
             in snap.index.selection_metrics(placement).items()}
            for snap in snapshots.values()
        ]
        for selected, gains, epoch, metrics in observed:
            assert epoch in snapshots, f"answer from unpublished epoch {epoch}"
            direct = expected_select[epoch]
            assert selected == direct.selected, (
                f"epoch-{epoch} selection does not match its snapshot "
                "(torn answer?)"
            )
            assert gains == direct.gains
            # Metrics answers carry no epoch tag; they must still equal
            # some published snapshot's exact metrics.
            assert metrics in expected_metrics, (
                "served metrics match no published epoch (torn snapshot?)"
            )


class _GatedService(DominationService):
    """Service whose metrics path blocks until released (saturation rig)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def metrics(self, selection):
        self.entered.set()
        assert self.release.wait(10), "saturation test never released"
        return super().metrics(selection)


class TestBackpressure:
    def test_saturated_server_returns_fast_503(self, graph, index):
        service = _GatedService(IndexSnapshot.capture(graph, index))
        handle = start_http_server(service, max_inflight=1, retry_after=2.0)
        results: list = []

        def occupant():
            results.append(_post(handle, "metrics", {"targets": [1]}))

        blocker = threading.Thread(target=occupant, daemon=True)
        try:
            blocker.start()
            assert service.entered.wait(10)
            # The lone in-flight slot is held: the next query must be
            # rejected immediately, not queued behind it.
            started = time.perf_counter()
            status, body = _post(handle, "coverage", {"targets": [2]})
            elapsed = time.perf_counter() - started
            assert status == 503
            assert "in-flight limit" in body["error"]["message"]
            assert elapsed < 1.0, (
                f"503 took {elapsed:.2f}s — the request queued instead "
                "of failing fast"
            )
            # The 503 advertises the configured Retry-After.
            client = _HttpClient(handle.base_url)
            try:
                client._conn.request(
                    "POST", "/query/coverage",
                    body=json.dumps({"targets": [2]}),
                    headers={"Content-Type": "application/json"},
                )
                response = client._conn.getresponse()
                response.read()
                assert response.status == 503
                assert response.headers["Retry-After"] == "2"
            finally:
                client.close()
            # Health/stats endpoints bypass admission control.
            assert _get(handle, "/healthz")[0] == 200
            status, stats = _get(handle, "/stats")
            assert status == 200
            assert stats["server"]["in_flight"] == 1
            assert stats["endpoints"]["coverage"]["rejections"] == 2
        finally:
            service.release.set()
            blocker.join()
            handle.stop()
        assert results and results[0][0] == 200

    def test_rejections_counted_by_http_loadgen(self, graph, index):
        service = _GatedService(IndexSnapshot.capture(graph, index))
        handle = start_http_server(service, max_inflight=1)
        try:
            # One gated slot, several clients: some queries answer, the
            # overflow is counted as rejections, and nothing queues
            # without bound or tears the run down.
            queries = [WorkloadQuery(kind="metrics", targets=(1,))] * 6
            reports: list = []

            def run():
                reports.append(run_load(
                    service, queries, num_clients=3,
                    transport="http", base_url=handle.base_url,
                ))

            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            assert service.entered.wait(10)
            time.sleep(0.1)
            service.release.set()
            runner.join(timeout=30)
            assert not runner.is_alive()
            report = reports[0]
            assert report.num_queries == 6
            assert report.errors == 0
            assert 0 < report.rejections < 6
        finally:
            service.release.set()
            handle.stop()

    def test_connection_cap_rejects_fast(self, graph, index):
        handle = start_http_server(
            _service(graph, index), max_connections=1
        )
        try:
            first = _HttpClient(handle.base_url)
            try:
                assert first.request("GET", "/healthz")[0] == 200
                # The lone connection slot is held by the keep-alive
                # client above; a second connection gets 503 and close.
                with socket.create_connection(
                    ("127.0.0.1", handle.server.port), timeout=5
                ) as sock:
                    sock.sendall(
                        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                    )
                    response = sock.recv(65536).decode()
                assert response.startswith("HTTP/1.1 503")
                assert "Retry-After" in response
                assert "connection limit" in response
                # The admitted connection keeps working.
                assert first.request("GET", "/healthz")[0] == 200
            finally:
                first.close()
        finally:
            handle.stop()


def _read_until_eof(sock) -> bytes:
    received = b""
    while chunk := sock.recv(65536):
        received += chunk
    return received


def _healthz_status(port: int) -> str:
    """The status line of one ``GET /healthz`` on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        try:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            received = _read_until_eof(sock)
        except ConnectionResetError:
            # A capped server closes without reading the request.
            return "reset"
        return received.decode().split("\r\n", 1)[0]


class TestRequestDeadline:
    """Idle and trickling clients lose their slot at REQUEST_TIMEOUT_S."""

    PARTIAL = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"  # no blank line

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        import repro.serve.http as http_module

        monkeypatch.setattr(http_module, "REQUEST_TIMEOUT_S", 0.3)

    def test_stalled_sockets_do_not_starve_healthz(self, graph, index):
        handle = start_http_server(_service(graph, index), max_connections=2)
        port = handle.server.port
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=5
            ), socket.create_connection(
                ("127.0.0.1", port), timeout=5
            ) as trickling:
                trickling.sendall(self.PARTIAL)
                # Both slots are held until the deadline frees them; with
                # no deadline /healthz answers 503 for as long as they
                # stay open.
                status = _healthz_status(port)
                give_up = time.monotonic() + 5.0
                while "200" not in status and time.monotonic() < give_up:
                    time.sleep(0.05)
                    status = _healthz_status(port)
                assert status == "HTTP/1.1 200 OK"
        finally:
            handle.stop()

    def test_mid_headers_socket_gets_one_408_then_eof(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock:
            sock.sendall(self.PARTIAL)
            response = _read_until_eof(sock).decode()
        assert response.startswith("HTTP/1.1 408 Request Timeout")
        assert response.count("HTTP/1.1 ") == 1
        assert "Connection: close" in response

    def test_silent_socket_gets_eof_without_bytes(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock:
            assert sock.recv(65536) == b""

    def test_steady_keep_alive_client_is_never_cut_off(self, server):
        answered = 0
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock, sock.makefile("rb") as reader:
            stop_at = time.monotonic() + 1.5
            while time.monotonic() < stop_at:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status = reader.readline()
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                assert status.startswith(b"HTTP/1.1 200"), status
                assert json.loads(reader.read(length))["status"] == "ok"
                answered += 1
                time.sleep(0.1)
        assert answered >= 10


class TestLifecycle:
    def test_ephemeral_port_and_stop_idempotent(self, graph, index):
        handle = start_http_server(_service(graph, index), port=0)
        port = handle.server.port
        assert 1024 <= port <= 65535
        assert _get(handle, "/healthz")[0] == 200
        handle.stop()
        handle.stop()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)

    def test_stop_closes_idle_keep_alive_clients(self, graph, index):
        """A stop with an idle keep-alive client returns at once, the
        client reads EOF, and no connection handler is left pending
        (Python reports a pending task as destroyed when its loop goes;
        from 3.12 ``Server.wait_closed`` waits for open connections)."""

        async def live_tasks():
            current = asyncio.current_task()
            return {t for t in asyncio.all_tasks() if t is not current}

        handle = start_http_server(_service(graph, index))
        try:
            with socket.create_connection(
                ("127.0.0.1", handle.server.port), timeout=5
            ) as sock, sock.makefile("rb") as reader:
                sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                assert reader.readline().startswith(b"HTTP/1.1 200")
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                json.loads(reader.read(length))
                tasks = asyncio.run_coroutine_threadsafe(
                    live_tasks(), handle._loop
                ).result(timeout=5)
                assert tasks  # the idle connection's handler
                started = time.monotonic()
                handle.stop()
                assert time.monotonic() - started < 2.0
                assert sock.recv(1) == b""
        finally:
            handle.stop()
        assert all(task.done() for task in tasks)

    def test_constructor_validation(self, graph, index):
        from repro.serve import DominationHttpServer

        service = _service(graph, index)
        with pytest.raises(ParameterError):
            DominationHttpServer(service, max_inflight=0)
        with pytest.raises(ParameterError):
            DominationHttpServer(service, max_connections=0)
        with pytest.raises(ParameterError):
            DominationHttpServer(service, retry_after=-1)
        with pytest.raises(ParameterError):
            DominationHttpServer(service).port  # not started

    def test_keep_alive_and_connection_close(self, graph, index, server):
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            first = sock.recv(65536).decode()
            assert "Connection: keep-alive" in first
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            second = sock.recv(65536).decode()
            assert "Connection: close" in second
            assert sock.recv(1024) == b""  # server closed as promised

    def test_oversized_body_rejected(self, graph, index, server):
        with socket.create_connection(
            ("127.0.0.1", server.server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /query/select HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
            response = sock.recv(65536).decode()
        assert response.startswith("HTTP/1.1 413")


class TestSchemaUnits:
    """Fast structural checks; the exhaustive fuzz lives in the slow lane."""

    def test_round_trip_identity(self):
        for req in (
            SelectRequest(k=5),
            SelectRequest(k=0, objective="f1"),
            MetricsRequest(targets=(3, 1, 2)),
            CoverageRequest(targets=()),
            MinTargetsRequest(fraction=0.4),
            MinTargetsRequest(fraction=1.0, max_size=3),
        ):
            assert decode_request(*encode_request(req)) == req

    def test_decode_rejects_non_object_bodies(self):
        for body in (None, 3, "x", [1]):
            with pytest.raises(ParameterError, match="JSON object"):
                decode_request("select", body)

    def test_fraction_must_be_finite_number(self):
        with pytest.raises(ParameterError, match="field 'fraction'"):
            decode_request("min_targets", {"fraction": float("inf")})
        with pytest.raises(ParameterError, match="field 'fraction'"):
            decode_request("min_targets", {"fraction": True})
        assert decode_request(
            "min_targets", {"fraction": 1}
        ) == MinTargetsRequest(fraction=1.0)

    def test_workload_query_to_request(self):
        assert WorkloadQuery(kind="select", k=3).to_request() == (
            SelectRequest(k=3)
        )
        assert WorkloadQuery(
            kind="min-targets", fraction=0.5
        ).to_request() == MinTargetsRequest(fraction=0.5)
        with pytest.raises(ParameterError):
            WorkloadQuery(kind="nope").to_request()


# ----------------------------------------------------------------------
# Exhaustive schema properties: slow lane (hypothesis).
# ----------------------------------------------------------------------
pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

valid_requests = st.one_of(
    st.builds(
        SelectRequest,
        k=st.integers(min_value=0, max_value=10**9),
        objective=st.sampled_from(["f1", "f2"]),
    ),
    st.builds(
        MetricsRequest,
        targets=st.lists(
            st.integers(min_value=0, max_value=10**9), max_size=16
        ).map(tuple),
    ),
    st.builds(
        CoverageRequest,
        targets=st.lists(
            st.integers(min_value=0, max_value=10**9), max_size=16
        ).map(tuple),
    ),
    st.builds(
        MinTargetsRequest,
        fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=st.one_of(st.none(), st.integers(1, 10**6)),
    ),
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@pytest.mark.slow
class TestSchemaProperties:
    @settings(deadline=None, max_examples=200)
    @given(req=valid_requests)
    def test_round_trip_is_identity(self, req):
        kind, payload = encode_request(req)
        # The wire payload must survive JSON serialization bit-exactly.
        payload = json.loads(json.dumps(payload))
        assert decode_request(kind, payload) == req

    @settings(deadline=None, max_examples=300)
    @given(
        kind=st.one_of(
            st.sampled_from(
                ["select", "metrics", "coverage", "min_targets"]
            ),
            st.text(max_size=12),
        ),
        payload=json_values,
    )
    def test_fuzzed_payloads_yield_typed_errors(self, kind, payload):
        """decode_request either returns a request dataclass or raises
        ParameterError — nothing else, whatever the payload."""
        try:
            req = decode_request(kind, payload)
        except ParameterError:
            return
        assert type(req) in (
            SelectRequest, MetricsRequest, CoverageRequest,
            MinTargetsRequest,
        )


@pytest.mark.slow
class TestWireFuzz:
    """Fuzzed bodies through a real socket: always a typed JSON answer,
    never a traceback, and the connection stays usable."""

    @pytest.fixture(scope="class")
    def fuzz_server(self):
        graph = power_law_graph(30, 60, seed=9)
        index = FlatWalkIndex.build(graph, 3, 4, seed=9)
        handle = start_http_server(
            DominationService(IndexSnapshot.capture(graph, index))
        )
        yield handle
        handle.stop()

    @settings(
        deadline=None,
        max_examples=150,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=st.binary(max_size=512))
    def test_arbitrary_bytes_never_crash_the_connection(
        self, fuzz_server, body
    ):
        client = _HttpClient(fuzz_server.base_url)
        try:
            client._conn.request(
                "POST", "/query/select", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = client._conn.getresponse()
            payload = json.loads(response.read())
            assert response.status in (200, 400)
            if response.status != 200:
                assert payload["error"]["type"] == "ParameterError"
                assert "Traceback" not in json.dumps(payload)
            # Same connection answers a well-formed follow-up.
            status, answer = client.request(
                "POST", "/query/select", {"k": 1}
            )
            assert status == 200
        finally:
            client.close()
