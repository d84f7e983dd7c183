"""The benchmark's workloads: set-up, timed ops, output checks, metrics.

Every workload calls the library with its defaults (walk engine, gain
backend, archive format, service and HTTP server settings), so a change of
a default is measured as users see it.  Untraced runs report the
end-to-end metrics; traced runs time half their measuring window untraced
and half with the layer wrappers installed, and report the per-layer
metrics of the traced half.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BENCH,
    HERE,
    ROOT,
    SPEC,
    derive_seeds,
    machine_facts,
    peak_rss_mb,
    reset_peak_rss,
    telemetry_off,
)
from layers import LayerTrace, layer_table
from loadgen import HttpSender, make_stream, run_open_loop
from stats import BEYOND, median, tail

from repro.core import approx_fast, coverage
from repro.graphs import generators
from repro.serve.loadgen import sample_percentile
from repro.walks import persistence
from repro.walks.index import FlatWalkIndex

#: Run outputs (traces, layer tables, scratch archives) go here.
OUT = ROOT / ".bench_out"

#: ``(name, unit)`` of the metrics an untraced and a traced run report.
END_TO_END = tuple((m["name"], m["unit"]) for m in BENCH["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in BENCH["per_layer"])


@dataclass
class Run:
    """One benchmark run: what was attempted, checked and measured."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, n)
    context: dict = field(default_factory=dict)

    @property
    def out_dir(self) -> Path:
        path = OUT / f"{self.workload}-seed{self.seed}-trace{int(self.traced)}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)

    def result(self) -> dict:
        """The result line.  A value that is not finite (nothing measured)
        reads 0 and marks the run incorrect, keeping the line strict JSON."""
        names = PER_LAYER if self.traced else END_TO_END
        values = {name: float(self.metrics[name][0]) for name, _ in names}
        finite = all(math.isfinite(v) for v in values.values())
        return {
            "correct": self.correct and finite,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": values[name] if finite else 0.0, "unit": unit}
                for name, unit in names
            },
        }


def _op_tail(latencies) -> tuple[float, str]:
    """op_p99_s and the percentile it resolved to.

    The highest percentile, at most p99, with ten samples beyond it: p99
    itself from 1000 ops on, the maximum at ten ops or fewer.
    """
    value, pct = tail(latencies, 99.0)
    if pct == 100.0:
        return value, f"maximum: {BEYOND} ops or fewer"
    return value, f"p{pct:.3g}, {BEYOND} or more samples beyond"


def _timed_ops(op, seconds: float, min_ops: int):
    """Run ``op`` back to back for ``seconds`` (at least ``min_ops`` times)."""
    latencies, answers, errors = [], [], []
    deadline = time.perf_counter() + seconds
    while len(answers) < min_ops or time.perf_counter() < deadline:
        started = time.perf_counter()
        try:
            answer = op()
        except Exception as exc:  # an op that raises is a failed op
            errors.append(f"{type(exc).__name__}: {exc}")
            answers.append(None)
            continue
        latencies.append(time.perf_counter() - started)
        answers.append(answer)
    return latencies, answers, errors


def _repeat_setup(setup, repeats: int):
    times, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - started)
    return times, state


def _same_answers(run: Run, name: str, answers) -> None:
    """Every op must give the first answer; mismatches fail ops.

    Ops that raised (answer ``None``) were already counted as failed.
    """
    given = [a for a in answers if a is not None]
    bad = sum(1 for a in given if a != given[0])
    run.failed += bad
    run.check(name, given and bad == 0, f"{bad} of {len(given)} differ")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _in_process(run: Run, spec: dict, setup, make_op) -> list:
    """Set up, time the ops, and fill the metrics; returns every answer."""
    if not run.traced:
        setup_times, state = _repeat_setup(setup, spec["setup_repeats"])
        op = make_op(state)
        # Untimed: the first op in a process also pays for growing the
        # allocator's heap, which no later op in a long-lived caller does.
        op()
        gc.collect()
        reset_peak_rss()
        latencies, answers, errors = _timed_ops(
            op, run.seconds, spec["min_ops"]
        )
        peak = peak_rss_mb()
        telemetry_off()
        latencies = latencies or [math.nan]
        tail_value, tail_label = _op_tail(latencies)
        run.metrics["setup_s"] = (median(setup_times), "s", len(setup_times))
        run.metrics["op_p50_s"] = (median(latencies), "s", len(latencies))
        run.metrics["op_p99_s"] = (tail_value, "s", len(latencies))
        run.metrics["peak_rss_mb"] = (peak, "MiB", 1)
        run.context["op_p99_label"] = tail_label
    else:
        trace = LayerTrace()
        trace.install()
        try:
            state = setup()
            setup_phase = trace.phase()
        finally:
            trace.uninstall()
        op = make_op(state)
        half = run.seconds / 2.0
        lat_a, answers_a, errors_a = _timed_ops(op, half, spec["min_ops"])
        trace.install()
        try:
            trace.reset()
            lat_b, answers_b, errors_b = _timed_ops(op, half, spec["min_ops"])
            measured = trace.phase()
        finally:
            trace.uninstall()
        telemetry_off()
        trace.write_chrome_trace(run.out_dir / "trace.json")
        latencies, answers = lat_a + lat_b, answers_a + answers_b
        errors = errors_a + errors_b
        _layer_metrics(
            run, setup_phase, measured, ops=len(answers_b),
            op_wall_s=sum(lat_b),
            overhead=median(lat_b) / median(lat_a),
        )
    run.attempted = len(answers)
    run.failed += len(errors)
    run.check("ops raised no error", not errors, "; ".join(errors[:3]))
    run.context["op_latencies_s"] = latencies
    return answers


def cold_select(run: Run) -> None:
    spec = SPEC["cold-select"]
    inst = spec["instance"]
    graph_seed, walk_seed, _ = derive_seeds(run.seed)

    def setup():
        return generators.power_law_graph(
            inst["nodes"], inst["edges"], seed=graph_seed
        )

    def make_op(graph):
        def op():
            result = approx_fast.approx_greedy_fast(
                graph, inst["k"], inst["length"],
                num_replicates=inst["replicates"],
                objective=inst["objective"], seed=walk_seed,
            )
            return result.selected, result.gains

        return op

    answers = _in_process(run, spec, setup, make_op)
    _same_answers(run, "cold selections identical across ops", answers)


def warm_select(run: Run) -> None:
    spec = SPEC["warm-select"]
    inst = spec["instance"]
    graph_seed, walk_seed, _ = derive_seeds(run.seed)
    scratch = run.out_dir / "archive"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()

    def setup():
        graph = generators.power_law_graph(
            inst["nodes"], inst["edges"], seed=graph_seed
        )
        index = FlatWalkIndex.build(
            graph, inst["length"], inst["replicates"], seed=walk_seed
        )
        path = persistence.save_index(index, scratch / "index", graph=graph)
        return graph, path

    def make_op(state):
        graph, path = state

        def op():
            loaded = persistence.load_index(path, graph)
            answer = []
            for objective in inst["objectives"]:
                result = approx_fast.approx_greedy_fast(
                    graph, inst["k"], inst["length"], index=loaded,
                    objective=objective,
                )
                answer.append((result.selected, result.gains))
            return tuple(answer)

        return op

    try:
        answers = _in_process(run, spec, setup, make_op)
        _same_answers(run, "warm answers identical across ops", answers)
        # The cold-select op on the same seed must give the warm f1 answer.
        graph = generators.power_law_graph(
            inst["nodes"], inst["edges"], seed=graph_seed
        )
        cold = approx_fast.approx_greedy_fast(
            graph, inst["k"], inst["length"],
            num_replicates=inst["replicates"], objective="f1", seed=walk_seed,
        )
        same = answers[0] is not None and answers[0][0] == (
            cold.selected, cold.gains
        )
        run.failed += 0 if same else len(answers)
        run.check("warm f1 answer equals the cold-select op", same)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# served-mix
# ----------------------------------------------------------------------
class ServerProcess:
    """The server launcher (``server.py``) as a child process."""

    def __init__(self, seed: int, traced: bool):
        self._proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--seed", str(seed), "--trace", str(int(traced)),
            ],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.port = int(self.ready["port"])

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process exited (code {self._proc.wait()})"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self._proc.stdin.write(text + "\n")
        self._proc.stdin.flush()
        return self._read()

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self, trace_path: "Path | None" = None) -> dict:
        reply = self.command("stop" + (f" {trace_path}" if trace_path else ""))
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()
        return reply

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


def _answer_of(kind: str, body: dict):
    """The answer fields of one served response, as canonical JSON.

    Serving provenance (``params.epoch``, the batch's shared budget,
    timings) varies between equal answers and is left out.
    """
    if kind in ("select", "min_targets"):
        fields = [body["selected"], body["gains"]]
        if kind == "min_targets":
            fields.append(body["params"]["achieved_estimate"])
    elif kind == "metrics":
        fields = sorted(body["metrics"].items())
    else:
        fields = [body["coverage_fraction"]]
    return json.dumps(fields)


def _direct_answers(groups: dict, graph, index, length: int) -> dict:
    """Request -> the direct library call's answer, in :func:`_answer_of`'s form."""
    expected = {}
    for request in groups:
        params = request.payload
        if request.kind == "select":
            result = approx_fast.approx_greedy_fast(
                graph, params["k"], length, index=index,
                objective=params["objective"],
            )
            fields = [list(result.selected), list(result.gains)]
        elif request.kind == "min_targets":
            result = coverage.min_targets_for_coverage(
                graph, params["fraction"], length, index=index
            )
            fields = [
                list(result.selected), list(result.gains),
                result.params["achieved_estimate"],
            ]
        else:
            metrics = index.selection_metrics(params["targets"])
            if request.kind == "metrics":
                fields = sorted((k, float(v)) for k, v in metrics.items())
            else:
                fields = [float(metrics["coverage_fraction"])]
        expected[request] = json.dumps(fields)
    return expected


def compare_served(outcomes, graph, index, length: int) -> tuple[int, int, dict]:
    """``(failed ops, distinct requests, min_targets rounds and sweeps)``.

    Every answered request is grouped by its request; each group must
    hold one answer, equal, as canonical JSON, to the direct library
    call on ``index``.  Unanswered and non-200 requests fail.
    """
    groups: dict = {}
    failed = 0
    for request, outcome in outcomes:
        if outcome.status != 200 or outcome.body is None:
            failed += 1
            continue
        try:
            answer = _answer_of(request.kind, outcome.body)
        except (KeyError, TypeError):
            failed += 1
            continue
        groups.setdefault(request, (outcome.body, []))[1].append(answer)
    expected = _direct_answers(groups, graph, index, length)
    rounds, sweeps = [], []
    for request, (body, answers) in groups.items():
        failed += sum(1 for answer in answers if answer != expected[request])
        if request.kind == "min_targets":
            rounds.append(len(body["selected"]))
            sweeps.append(body["num_gain_evaluations"] / graph.num_nodes)
    extra = {
        "min_targets.rounds": sum(rounds) / len(rounds) if rounds else 0.0,
        "min_targets.sweeps": sum(sweeps) / len(sweeps) if sweeps else 0.0,
    }
    return failed, len(groups), extra


def _served_phase(run: Run, server: ServerProcess, seconds: float):
    spec = SPEC["served-mix"]
    _, _, stream_seed = derive_seeds(run.seed)
    due, requests = make_stream(
        stream_seed, spec["rate_qps"], seconds, spec["instance"]["nodes"]
    )
    sender = HttpSender("127.0.0.1", server.port)
    outcomes = run_open_loop(due, requests, sender, spec["connections"])
    return list(zip(requests, outcomes))


def _latency_summary(pairs) -> dict:
    answered = [o for _, o in pairs if o.status == 200]
    latencies = [o.latency for o in answered]
    selects = [o for r, o in pairs if r.kind == "select" and o.status == 200]
    return {
        "latencies": latencies,
        "late": [o.late for _, o in pairs],
        # The server's /stats percentile rule, so the two compare.
        "select_client_p50": (
            sample_percentile([o.service for o in selects], 50)
            if selects else 0.0
        ),
    }


def served_mix(run: Run) -> None:
    spec = SPEC["served-mix"]
    inst = spec["instance"]
    graph_seed, walk_seed, _ = derive_seeds(run.seed)
    if not run.traced:
        setup_times, server = [], None
        try:
            for _ in range(spec["setup_repeats"]):
                if server is not None:
                    server.stop()
                    server = None
                started = time.perf_counter()
                server = ServerProcess(run.seed, traced=False)
                setup_times.append(time.perf_counter() - started)
            pairs = _served_phase(run, server, run.seconds)
            stats = server.stats()
            peak = server.stop()["peak_rss_mb"]
        finally:
            if server is not None:
                server.kill()
        summary = _latency_summary(pairs)
        latencies = summary["latencies"] or [float("nan")]
        tail_value, tail_label = _op_tail(latencies)
        run.metrics["setup_s"] = (median(setup_times), "s", len(setup_times))
        run.metrics["op_p50_s"] = (median(latencies), "s", len(latencies))
        run.metrics["op_p99_s"] = (tail_value, "s", len(latencies))
        run.metrics["peak_rss_mb"] = (peak, "MiB", 1)
        run.context["op_p99_label"] = tail_label
        run.context["op_latencies_s"] = summary["latencies"]
        run.context["stats"] = stats
        run.context["late_p99_s"] = tail(summary["late"], 99.0)[0]
        all_pairs = pairs
    else:
        half = run.seconds / 2.0
        with ServerProcess(run.seed, traced=False) as server:
            pairs_a = _served_phase(run, server, half)
            server.stop()
        with ServerProcess(run.seed, traced=True) as server:
            setup_phase = server.command("phase")
            pairs_b = _served_phase(run, server, half)
            measured = server.command("phase")
            stats = server.stats()
            server.stop(run.out_dir / "trace.json")
        summary_a = _latency_summary(pairs_a)
        summary_b = _latency_summary(pairs_b)
        select_stats = stats["endpoints"]["select"]
        server_p50 = (select_stats["latency_p50_ms"] or 0.0) / 1e3
        service_calls = measured["samples"].get("DominationService.select")
        service_p50 = (
            sample_percentile(service_calls, 50) if service_calls else 0.0
        )
        served = {
            "service.cache_hit_ratio": (
                stats["service"]["cache_hits"]
                / max(1, stats["service"]["queries"])
            ),
            "service.kernel_passes": stats["service"]["kernel_passes"],
            "service.batch_occupancy": (
                stats["service"]["batched_queries"]
                / max(1, stats["service"]["select_batches"])
            ),
            "http.server_p50_s": server_p50,
            "http.server_p99_s": (select_stats["latency_p99_ms"] or 0.0) / 1e3,
            "http.handoff_s": server_p50 - service_p50,
            "http.wire_s": summary_b["select_client_p50"] - server_p50,
            "http.rejections": sum(
                e["rejections"] for e in stats["endpoints"].values()
            ),
            "http.errors": sum(e["errors"] for e in stats["endpoints"].values()),
            "loadgen.late_p99_s": tail(summary_b["late"], 99.0)[0],
            "loadgen.sent": len(pairs_b),
            "loadgen.connections": spec["connections"],
            "storage.index_bytes": server.ready["index_bytes"],
        }
        _layer_metrics(
            run, setup_phase, measured, ops=len(pairs_b),
            op_wall_s=sum(summary_b["latencies"]),
            overhead=(
                median(summary_b["latencies"]) / median(summary_a["latencies"])
            ),
            served=served,
        )
        all_pairs = pairs_a + pairs_b
    graph = generators.power_law_graph(
        inst["nodes"], inst["edges"], seed=graph_seed
    )
    index = FlatWalkIndex.build(
        graph, inst["length"], inst["replicates"], seed=walk_seed
    )
    failed, distinct, extra = compare_served(
        all_pairs, graph, index, inst["length"]
    )
    run.attempted = len(all_pairs)
    run.failed += failed
    run.check(
        "served answers equal direct library calls", failed == 0,
        f"{failed} failed of {len(all_pairs)}; {distinct} distinct answers",
    )
    run.context["distinct_answers"] = distinct
    if run.traced:
        for name, value in extra.items():
            run.metrics[name] = (value, "count", distinct)
    run.context.update(extra)


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _layer_metrics(
    run: Run, setup_phase: dict, measured: dict, ops: int,
    op_wall_s: float, overhead: float, served: "dict | None" = None,
) -> None:
    spans, items = measured["spans"], measured["items"]
    ops = max(1, ops)

    def self_s(phase: dict, *names: str) -> float:
        return sum(
            phase["spans"].get(name, {}).get("self_s", 0.0) for name in names
        )

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def per_op(value: float) -> float:
        return value / ops

    walks, visits = "NumpyWalkEngine.batch_walks", "first_visit_records"
    sort = ("ExternalSortSink.consume", "ExternalSortSink.finalize")
    pops = items.get("greedy.celf_pops", 0)
    values = {
        "graph.self_s": self_s(setup_phase, "power_law_graph"),
        "walks.self_s": per_op(self_s(measured, walks)),
        "walks.rows": per_op(items.get("walks.rows", 0)),
        "walks.setup_s": self_s(setup_phase, walks),
        "first_visit.self_s": per_op(self_s(measured, visits)),
        "first_visit.records": per_op(items.get("first_visit.records", 0)),
        "first_visit.setup_s": self_s(setup_phase, visits),
        "sort.consume_s": per_op(self_s(measured, sort[0])),
        "sort.finalize_self_s": per_op(self_s(measured, sort[1])),
        "sort.records": per_op(items.get("sort.records", 0)),
        "sort.spill_runs": per_op(items.get("sort.spill_runs", 0)),
        "sort.setup_s": self_s(setup_phase, *sort),
        "storage.emit_s": per_op(self_s(measured, "DenseEntryWriter.emit")),
        "storage.save_s": self_s(setup_phase, "save_index"),
        "storage.load_s": per_op(self_s(measured, "load_index")),
        "storage.archive_bytes": setup_phase["items"].get(
            "storage.archive_bytes", 0
        ),
        "storage.index_bytes": items.get("storage.index_bytes", 0),
        "gain.init_s": per_op(self_s(measured, "FastApproxEngine.__init__")),
        "gain.sweeps": per_op(calls("FastApproxEngine.gains_all")),
        "gain.sweep_s": per_op(self_s(measured, "FastApproxEngine.gains_all")),
        "gain.evals": per_op(calls("FastApproxEngine.gain_of")),
        "gain.eval_s": per_op(self_s(measured, "FastApproxEngine.gain_of")),
        "gain.update_s": per_op(self_s(measured, "FastApproxEngine.select")),
        "greedy.self_s": per_op(
            self_s(measured, "approx_greedy_fast", "FastApproxEngine.run")
        ),
        "greedy.celf_useful_ratio": (
            items.get("greedy.celf_picks", 0) / pops if pops else 0.0
        ),
        "min_targets.self_s": per_op(
            self_s(measured, "min_targets_for_coverage")
        ),
        "min_targets.rounds": 0.0,
        "min_targets.sweeps": 0.0,
        "service.select_wait_s": per_op(
            self_s(measured, "DominationService.select")
        ),
        "service.cache_hit_ratio": 0.0,
        "service.kernel_passes": 0,
        "service.batch_occupancy": 0.0,
        "http.server_p50_s": 0.0,
        "http.server_p99_s": 0.0,
        "http.handoff_s": 0.0,
        "http.wire_s": 0.0,
        "http.rejections": 0,
        "http.errors": 0,
        "loadgen.late_p99_s": 0.0,
        "loadgen.sent": 0,
        "loadgen.connections": 0,
        "trace.overhead_ratio": overhead,
    }
    values.update(served or {})
    table = layer_table(measured)
    attributed = sum(row["self_s"] for row in table.values())
    values["trace.unattributed_share"] = (
        1.0 - attributed / op_wall_s if op_wall_s > 0 else 0.0
    )
    units = dict(PER_LAYER)
    for name, value in values.items():
        run.metrics[name] = (value, units[name], ops)
    run.context["layer_table"] = {
        "setup": _table_rows(setup_phase),
        "measured": _table_rows(measured),
        "measured_ops": ops,
    }


def _table_rows(phase: dict) -> dict:
    """Per-layer self time, call count and item counts of one phase."""
    rows = {
        layer: {"self_s": row["self_s"], "calls": row["calls"], "items": {}}
        for layer, row in layer_table(phase).items()
    }
    for key, value in phase["items"].items():
        layer = key.split(".", 1)[0]
        rows.setdefault(layer, {"self_s": 0.0, "calls": 0, "items": {}})
        rows[layer]["items"][key] = value
    return rows


WORKLOADS = {
    "cold-select": cold_select,
    "warm-select": warm_select,
    "served-mix": served_mix,
}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Run:
    telemetry_off()
    run = Run(workload=name, seed=seed, seconds=seconds, traced=traced)
    run.context["machine"] = machine_facts()
    WORKLOADS[name](run)
    telemetry_off()
    return run


def report(run: Run) -> list[str]:
    """Human-readable lines: metrics with units and sample counts, checks."""
    lines = [f"workload {run.workload} seed {run.seed} traced {run.traced}"]
    names = PER_LAYER if run.traced else END_TO_END
    for name, _unit in names:
        value, unit, n = run.metrics[name]
        label = ""
        if name == "op_p99_s":
            label = f" [{run.context.get('op_p99_label', '')}]"
        lines.append(f"  {name:28s} {value:.6g} {unit} (n={n}){label}")
    share = run.failed / run.attempted if run.attempted else 0.0
    lines.append(
        f"  failed_share                 {share:.6g} ratio "
        f"(n={run.attempted})"
    )
    for name, ok, detail in run.checks:
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    if run.traced:
        for phase, rows in run.context["layer_table"].items():
            if not isinstance(rows, dict):
                continue
            lines.append(f"  layer table ({phase})")
            for layer, row in sorted(rows.items()):
                items = " ".join(f"{k}={v}" for k, v in sorted(row["items"].items()))
                lines.append(
                    f"    {layer:12s} self {row['self_s']:.4f} s  "
                    f"calls {row['calls']}  {items}"
                )
    lines.append("  machine " + json.dumps(run.context["machine"]))
    return lines


def save(run: Run) -> Path:
    """Write the full run record next to its trace."""
    path = run.out_dir / "result.json"
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": run.traced,
        "result": run.result(),
        "metrics": {k: list(v) for k, v in run.metrics.items()},
        "checks": run.checks,
        "context": {k: v for k, v in run.context.items()},
    }
    path.write_text(json.dumps(record, indent=1, default=str))
    return path
