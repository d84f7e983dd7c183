"""Tests for the unified telemetry subsystem (repro.obs, DESIGN.md §14).

Fast lane: registry semantics (monotonic counters, labeled series,
fixed-bucket histograms), snapshot merge exactness, Prometheus text
validity, span nesting/self-time and Chrome ``trace_event`` export, the
zero-cost disabled defaults, an exact thread-concurrency check, the
``/metrics`` endpoint, and the ``--telemetry``/``--trace-out``/
``--stats-window``/``stats`` CLI surface.

Slow lane: a hypothesis property that no concurrent increment is ever
lost or double-counted across an arbitrary op schedule.
"""

import json
import threading

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph
from repro.obs.exposition import render_prometheus
from repro.obs.registry import (
    COUNT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, SpanTracer


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test leaves the process-wide switch back at the default."""
    yield
    obs.disable()


# ----------------------------------------------------------------------
# Registry semantics.
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        counter = reg.counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ParameterError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("in_flight")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3

    def test_histogram_counts_and_sum(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        state = hist.state()
        assert state.bounds == (0.1, 1.0)
        # Non-cumulative per-bucket counts plus the +Inf slot.
        assert tuple(state.counts) == (1, 2, 1)
        assert state.count == 4
        assert state.sum == pytest.approx(6.05)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", {"kind": "a"}).inc()
        reg.counter("hits_total", {"kind": "b"}).inc(2)
        # Same (name, labels) returns the same underlying metric.
        reg.counter("hits_total", {"kind": "a"}).inc()
        snap = reg.snapshot()
        values = {
            labels: value
            for (name, labels), value in snap.counters.items()
            if name == "hits_total"
        }
        assert values == {(("kind", "a"),): 2, (("kind", "b"),): 2}

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError):
            reg.counter("2bad")
        with pytest.raises(ParameterError):
            reg.counter("fine_total", {"2bad": "x"})

    def test_snapshot_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 3)):
            reg.counter("runs_total").inc(n)
            reg.gauge("epoch").set(n)
            hist = reg.histogram("secs", buckets=(1.0,))
            hist.observe(0.5)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters[("runs_total", ())] == 5
        assert merged.gauges[("epoch", ())] == 3  # last write wins
        state = merged.histograms[("secs", ())]
        assert state.count == 2 and tuple(state.counts) == (2, 0)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc()
        reg.reset()
        assert reg.snapshot().counters == {}


# ----------------------------------------------------------------------
# Prometheus text exposition.
# ----------------------------------------------------------------------
class TestPrometheusText:
    def test_counter_gauge_help_type(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", help="Solver runs.").inc(3)
        reg.gauge("epoch").set(2)
        text = render_prometheus(reg.snapshot())
        assert "# HELP repro_runs_total Solver runs." in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 3" in text
        assert "# TYPE repro_epoch gauge" in text
        assert "repro_epoch 2" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", {"path": 'a"b\\c\nd'}).inc()
        text = render_prometheus(reg.snapshot())
        assert 'repro_odd_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_histogram_is_cumulative_with_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("secs", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = render_prometheus(reg.snapshot())
        assert 'repro_secs_bucket{le="0.1"} 1' in text
        assert 'repro_secs_bucket{le="1"} 2' in text
        assert 'repro_secs_bucket{le="+Inf"} 3' in text
        assert "repro_secs_count 3" in text

    def test_every_line_is_wellformed(self):
        reg = MetricsRegistry()
        reg.counter("a_total", {"x": "1"}).inc()
        reg.gauge("b").set(1.5)
        reg.histogram("c", buckets=COUNT_BUCKETS[:3]).observe(2)
        for line in render_prometheus(reg.snapshot()).splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part.startswith("repro_")
            float(value)  # every sample value parses


# ----------------------------------------------------------------------
# Span tracing.
# ----------------------------------------------------------------------
class TestTracing:
    def test_nesting_depth_and_self_time(self):
        tracer = SpanTracer()
        with tracer.span("outer", k=8):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["args"] == {"k": 8}
        assert outer["dur_us"] >= inner["dur_us"]
        assert outer["self_us"] == pytest.approx(
            outer["dur_us"] - inner["dur_us"]
        )

    def test_exception_marks_failed_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (event,) = tracer.events()
        assert event["failed"] is True

    def test_chrome_trace_export(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("solve.greedy", objective="f2"):
            pass
        doc = tracer.export_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X" and event["cat"] == "repro"
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
        out = tmp_path / "trace.json"
        tracer.write_chrome_trace(out)
        assert json.loads(out.read_text())["traceEvents"] == [event]

    def test_ring_buffer_is_bounded(self):
        tracer = SpanTracer(buffer_size=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [event["name"] for event in tracer.events()]
        assert names == ["s6", "s7", "s8", "s9"]


class TestBuildSpans:
    def test_stage_spans_nest_under_index_build(self, tmp_path):
        from collections import Counter

        from repro.walks.build import build_index_archive
        from repro.walks.index import FlatWalkIndex

        obs.configure()
        graph = power_law_graph(120, 600, seed=2)
        # 600 rows in chunks of 200: three walk and extraction spans.
        FlatWalkIndex.build(graph, 4, 5, seed=1, chunk_rows=200)
        build_index_archive(
            graph, 4, 5, tmp_path / "x.idx3", seed=1, chunk_rows=200,
            memory_budget=2048,
        )
        events = obs.tracer().events()  # each span closes after its children
        ends = [i for i, e in enumerate(events) if e["name"] == "index.build"]
        assert len(ends) == 2
        for lo, end in zip([0, ends[0] + 1], ends):
            stages = Counter(e["name"] for e in events[lo:end])
            assert stages["index.build.walks"] == 3
            assert stages["index.build.first_visit"] == 3
            assert stages["index.build.sort"] == 1
            assert stages["index.build.emit"] == 1
            assert all(e["depth"] > events[end]["depth"]
                       for e in events[lo:end])
        assert stages["index.build.spill"] >= 1  # the budgeted build


# ----------------------------------------------------------------------
# The process-wide switch.
# ----------------------------------------------------------------------
class TestModuleSwitch:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.registry() is NULL_REGISTRY
        assert obs.tracer() is NULL_TRACER
        obs.inc("ignored_total")
        with obs.span("ignored"):
            pass
        assert obs.snapshot().counters == {}
        assert obs.export_chrome_trace()["traceEvents"] == []

    def test_configure_records_and_is_idempotent(self):
        obs.configure()
        assert obs.enabled()
        obs.inc("runs_total", kind="x")
        obs.configure()  # second call keeps live data
        assert obs.snapshot().counters[
            ("runs_total", (("kind", "x"),))
        ] == 1
        with obs.span("step"):
            pass
        assert [e["name"] for e in obs.tracer().events()] == ["step"]
        obs.reset()
        assert obs.enabled()
        assert obs.snapshot().counters == {}


# ----------------------------------------------------------------------
# Concurrency: nothing lost, nothing double-counted.
# ----------------------------------------------------------------------
class TestThreadConcurrency:
    def test_exact_totals_under_contention(self):
        reg = MetricsRegistry()
        threads_n, per_thread = 8, 5_000

        def hammer(i):
            counter = reg.counter("ops_total")
            hist = reg.histogram("sizes", buckets=COUNT_BUCKETS)
            gauge = reg.gauge("last", {"thread": str(i)})
            for j in range(per_thread):
                counter.inc()
                hist.observe(j % 7)
                gauge.set(j)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        total = threads_n * per_thread
        assert snap.counters[("ops_total", ())] == total
        state = snap.histograms[("sizes", ())]
        assert state.count == total
        assert state.sum == threads_n * sum(j % 7 for j in range(per_thread))


# ----------------------------------------------------------------------
# /metrics endpoint + /stats taxonomy (HTTP tier).
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    @pytest.fixture()
    def served(self):
        from repro.serve import (
            DominationService,
            IndexSnapshot,
            start_http_server,
        )
        from repro.walks.index import FlatWalkIndex

        graph = power_law_graph(80, 240, seed=3)
        index = FlatWalkIndex.build(graph, 4, 10, seed=4)
        service = DominationService(IndexSnapshot.capture(graph, index))
        with service:
            handle = start_http_server(service, stats_window=16)
            try:
                yield handle
            finally:
                handle.stop()

    def _get(self, handle, path):
        from repro.serve.loadgen import _HttpClient

        client = _HttpClient(handle.base_url)
        try:
            return client.request("GET", path)
        finally:
            client.close()

    def _get_text(self, handle, path):
        """Raw GET — /metrics serves Prometheus text, not JSON."""
        import urllib.request

        with urllib.request.urlopen(handle.base_url + path) as response:
            return (
                response.status,
                response.read().decode("utf-8"),
                response.headers.get("Content-Type", ""),
            )

    def _post(self, handle, kind, payload):
        from repro.serve.loadgen import _HttpClient

        client = _HttpClient(handle.base_url)
        try:
            return client.request("POST", f"/query/{kind}", payload)
        finally:
            client.close()

    def test_metrics_covers_serve_solver_persistence(
        self, served, tmp_path
    ):
        from repro.walks.persistence import load_index, save_index

        obs.configure()
        # Drive one query (solver counters) and one save/load round trip
        # (persistence counters) with telemetry on.
        status, _ = self._post(served, "select", {"k": 3})
        assert status == 200
        snapshot = served.server._service.snapshot
        path = save_index(
            snapshot.index, tmp_path / "i.idx3", graph=snapshot.graph
        )
        load_index(path)
        status, text, content_type = self._get_text(served, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        # Serving tier (always on, registry-backed).
        assert 'repro_http_requests_total{endpoint="select"} 1' in text
        assert "repro_serve_queries_total 1" in text
        assert "repro_http_ready 1" in text
        # Solver + persistence, via the global switch.
        assert "repro_solver_runs_total" in text
        assert "repro_persistence_saves_total" in text
        assert "repro_persistence_loads_total" in text
        # Well-formed: every sample line parses.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_metrics_works_without_telemetry(self, served):
        assert not obs.enabled()
        status, text, _ = self._get_text(served, "/metrics")
        assert status == 200
        assert "repro_http_requests_total" in text
        assert "repro_solver_runs_total" not in text

    def test_stats_shape_and_error_taxonomy(self, served):
        status, _ = self._post(served, "select", {"k": "nope"})
        assert status == 400
        status, payload = self._get(served, "/stats")
        assert status == 200
        select = payload["endpoints"]["select"]
        assert select["errors"] == 1
        assert select["errors_by_status"] == {"400": 1}
        # The exposition endpoint counts itself under "prometheus".
        assert "prometheus" in payload["endpoints"]

    def test_loadgen_report_carries_endpoint_taxonomy(self, served):
        from repro.serve import WorkloadQuery, run_load

        bad = WorkloadQuery(kind="metrics", targets=(10_000,))
        good = WorkloadQuery(kind="metrics", targets=(1,))
        report = run_load(
            None, [bad, good, good], num_clients=1,
            transport="http", base_url=served.base_url,
        )
        assert report.errors == 1
        taxonomy = report.endpoints["metrics"]["errors_by_status"]
        assert taxonomy.get("400") == 1

    def test_inprocess_report_has_no_endpoint_taxonomy(self):
        from repro.serve import (
            DominationService,
            IndexSnapshot,
            WorkloadQuery,
            run_load,
        )
        from repro.walks.index import FlatWalkIndex

        graph = power_law_graph(60, 180, seed=6)
        index = FlatWalkIndex.build(graph, 4, 8, seed=6)
        service = DominationService(IndexSnapshot.capture(graph, index))
        with service:
            report = run_load(
                service, [WorkloadQuery(kind="metrics", targets=(1,))],
                num_clients=1,
            )
        assert report.endpoints is None


# ----------------------------------------------------------------------
# CLI surface.
# ----------------------------------------------------------------------
class TestCli:
    def test_stats_window_must_be_positive(self, tmp_path, capsys):
        from repro.cli import main

        workload = tmp_path / "w.txt"
        workload.write_text("metrics 1\n")
        status = main([
            "serve", "--synthetic", "50,150", "--workload", str(workload),
            "--stats-window", "0",
        ])
        assert status == 1
        assert "stats_window must be >= 1" in capsys.readouterr().err

    def test_stats_requires_url(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stats"])

    def test_traced_index_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        status = main([
            "index", "--synthetic", "60,180", "-L", "3", "-R", "5",
            "--seed", "1", "--out", str(tmp_path / "i.idx3"),
            "--telemetry", "--trace-out", str(trace),
        ])
        assert status == 0
        doc = json.loads(trace.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"index.build", "persistence.save"} <= names
        err = capsys.readouterr().err
        assert "repro_index_builds_total" in err


# ----------------------------------------------------------------------
# Slow lane: concurrency property.
# ----------------------------------------------------------------------
pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

op_lists = st.lists(
    st.tuples(
        st.sampled_from(["inc", "observe"]),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=1,
    max_size=60,
)


@pytest.mark.slow
class TestConcurrencyProperties:
    @settings(
        deadline=None,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schedules=st.lists(op_lists, min_size=2, max_size=6))
    def test_no_lost_updates(self, schedules):
        """N threads apply arbitrary op schedules; the snapshot must
        account for every operation exactly once."""
        reg = MetricsRegistry()
        barrier = threading.Barrier(len(schedules))

        def run(ops):
            counter = reg.counter("ops_total")
            hist = reg.histogram("vals", buckets=COUNT_BUCKETS)
            barrier.wait()
            for kind, value in ops:
                if kind == "inc":
                    counter.inc(value)
                else:
                    hist.observe(value)

        threads = [
            threading.Thread(target=run, args=(ops,)) for ops in schedules
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [op for ops in schedules for op in ops]
        want_inc = sum(v for kind, v in flat if kind == "inc")
        observed = [v for kind, v in flat if kind == "observe"]
        snap = reg.snapshot()
        assert snap.counters.get(("ops_total", ()), 0) == want_inc
        if observed:
            state = snap.histograms[("vals", ())]
            assert state.count == len(observed)
            assert state.sum == sum(observed)
