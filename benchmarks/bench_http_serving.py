"""HTTP serving tier vs the in-process service — wire parity and tax.

The acceptance benchmark for the asyncio HTTP front end
(:mod:`repro.serve.http`, DESIGN.md §12) on the same instance as
``bench_serving.py``.  The claims:

* **bit-identical answers over the wire** — every HTTP
  ``select``/``metrics``/``min_targets`` reply, decoded from JSON,
  equals the direct solver call on the served index (hard assertions,
  never gated off); and
* **the greedy prefix survives the transport** — a concurrent budget
  sweep issued by HTTP clients still collapses into fewer kernel passes
  than queries, because handlers bridge into the service through a
  thread pool exactly like in-process client threads (structural
  assertion).

Key reference (all via ``bench_record`` for the ``--json`` report and
``tools/check_bench_regression.py``):

* ``http_serving.select_parity`` / ``http_serving.metrics_parity`` /
  ``http_serving.min_targets_parity`` — the hard wire contract.
* ``http_serving.latency_p50_s`` / ``http_serving.latency_p99_s`` —
  client-side closed-loop latency over HTTP (soft floor: absolute
  timings warn on shared runners, ``--soft-absolute``).
* ``http_serving.throughput_qps`` — closed-loop throughput
  (report-only: no gated suffix).
* ``http_serving.wire_overhead_p50_x`` — in-process p50 over HTTP p50
  (report-only context for the wire tax; recorded under the inverse
  naming so a *faster* wire never fails the higher-is-better gate).
"""

import pytest

from repro.core.approx_fast import approx_greedy_fast
from repro.core.coverage import min_targets_for_coverage
from repro.graphs.generators import power_law_graph
from repro.serve import (
    DominationService,
    IndexSnapshot,
    WorkloadQuery,
    run_load,
    start_http_server,
)
from repro.serve.loadgen import _HttpClient
from repro.walks.index import FlatWalkIndex

#: Same instance as bench_serving.py; the gated workload is the same
#: budget sweep, arriving through keep-alive HTTP connections instead of
#: direct method calls.
NODES = 2_000
EDGES = 12_000
LENGTH = 6
REPLICATES = 100
SEED = 11
KS = tuple(range(1, 33))
CLIENTS = 16


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(NODES, EDGES, seed=7)


@pytest.fixture(scope="module")
def index(graph):
    return FlatWalkIndex.build(
        graph, LENGTH, REPLICATES, seed=SEED, engine="csr"
    )


def _serve(graph, index, **kwargs):
    service = DominationService(IndexSnapshot.capture(graph, index))
    return service, start_http_server(service, **kwargs)


def test_http_answer_parity(graph, index, bench_record):
    """Hard contract: wire replies == direct solver calls, bit for bit."""
    _, handle = _serve(graph, index)
    client = _HttpClient(handle.base_url)
    try:
        select_parity = True
        for k in (1, 5, 17, 32):
            status, answer = client.request(
                "POST", "/query/select", {"k": k}
            )
            direct = approx_greedy_fast(
                graph, k, LENGTH, index=index, objective="f2"
            )
            select_parity &= (
                status == 200
                and tuple(answer["selected"]) == direct.selected
                and tuple(answer["gains"]) == direct.gains
            )
        placement = approx_greedy_fast(
            graph, 17, LENGTH, index=index, objective="f2"
        ).selected
        expected = index.selection_metrics(placement)
        status, answer = client.request(
            "POST", "/query/metrics", {"targets": list(placement)}
        )
        metrics_parity = status == 200 and answer["metrics"] == {
            key: float(value) for key, value in expected.items()
        }
        direct_mt = min_targets_for_coverage(graph, 0.5, LENGTH, index=index)
        status, answer = client.request(
            "POST", "/query/min_targets", {"fraction": 0.5}
        )
        min_targets_parity = (
            status == 200
            and tuple(answer["selected"]) == direct_mt.selected
            and tuple(answer["gains"]) == direct_mt.gains
        )
    finally:
        client.close()
        handle.stop()
    bench_record("http_serving.select_parity", select_parity)
    bench_record("http_serving.metrics_parity", metrics_parity)
    bench_record("http_serving.min_targets_parity", min_targets_parity)
    assert select_parity, "HTTP select diverged from approx_greedy_fast"
    assert metrics_parity, "HTTP metrics diverged from selection_metrics"
    assert min_targets_parity, (
        "HTTP min_targets diverged from min_targets_for_coverage"
    )


def test_http_closed_loop_latency(graph, index, bench_record):
    """Closed-loop sweep over HTTP: latency/throughput + prefix proof."""
    queries = [WorkloadQuery(kind="select", k=k) for k in KS]

    # In-process reference run for the wire-tax context line.
    inproc_service = DominationService(IndexSnapshot.capture(graph, index))
    inproc = run_load(inproc_service, queries, num_clients=CLIENTS)

    best = None
    for _ in range(2):
        service, handle = _serve(graph, index, max_inflight=CLIENTS)
        try:
            report = run_load(
                None, queries, num_clients=CLIENTS,
                transport="http", base_url=handle.base_url,
            )
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.rejections == 0
        # The prefix must be shared across HTTP clients too — the
        # executor bridge delivers concurrent selects to one service.
        assert report.stats.kernel_passes < len(KS), (
            f"{report.stats.kernel_passes} kernel passes for {len(KS)} "
            "HTTP select queries: the greedy prefix did not survive the wire"
        )
        if best is None or report.elapsed_seconds < best.elapsed_seconds:
            best = report

    wire_overhead_x = inproc.latency_p50_ms / best.latency_p50_ms
    bench_record("http_serving.latency_p50_s", best.latency_p50_ms / 1e3)
    bench_record("http_serving.latency_p99_s", best.latency_p99_ms / 1e3)
    bench_record("http_serving.throughput_qps", best.throughput_qps)
    bench_record("http_serving.wire_overhead_p50_x", wire_overhead_x)
    print(
        f"\nhttp serving (n={NODES}, R={REPLICATES}, L={LENGTH}, "
        f"{len(KS)} budgets, {CLIENTS} clients): "
        f"{best.throughput_qps:.0f} q/s, "
        f"p50 {best.latency_p50_ms:.1f} ms / "
        f"p99 {best.latency_p99_ms:.1f} ms over the wire vs "
        f"p50 {inproc.latency_p50_ms:.1f} ms in-process "
        f"({best.stats.kernel_passes} kernel passes for {len(KS)} queries)"
    )
