"""Command-line interface.

Ten subcommands cover the library's everyday workflows::

    repro select    # run a solver on a graph and print/serialize targets
    repro metrics   # evaluate AHT/EHN for a given target set
    repro generate  # write a synthetic graph as a SNAP edge list
    repro exhibit   # regenerate one of the paper's tables/figures
    repro simulate  # run an application simulation against a placement
    repro index     # materialize Algorithm 3's walk index to an .idx3 file
    repro analyze   # horizon (L) recommendation for a target set
    repro dynamic   # edge-churn workloads: trace replay with incremental
                    # index maintenance, robust selection, bondage attack
    repro serve     # drive a query workload through the concurrent
                    # serving layer (repro.serve) and report latency
    repro stats     # fetch /metrics or /stats from a running HTTP server

The heavier subcommands (``select``, ``index``, ``dynamic``, ``serve``)
accept ``--telemetry`` to enable the :mod:`repro.obs` metrics registry
and span tracer (DESIGN.md §14); ``--telemetry`` prints a Prometheus
text dump on exit and ``--trace-out FILE`` writes the recorded spans as
Chrome ``trace_event`` JSON (load it at ``chrome://tracing`` or
https://ui.perfetto.dev).  Telemetry never changes results — only
observability — and is off (zero-cost) by default.

The graph for ``select``/``metrics``/``simulate``/``index``/``analyze``/
``dynamic``/``serve`` comes from exactly one of ``--edge-list FILE``,
``--dataset NAME`` (Table 2 replica), or ``--synthetic N,M`` (power-law).
Exit status is 0 on success, 2 on usage errors (argparse convention), and
1 when the library rejects a parameter.

Sampling-based subcommands (``select`` with a walk-based method,
``metrics --sampled``, ``simulate``, ``index``, ``dynamic``, ``serve``)
accept ``--engine`` to pick the walk backend (see
:mod:`repro.walks.backends`):
``csr`` (default, the faster kernels) or ``numpy`` (the reference).
Both are bit-identical under one seed, so the flag changes wall-clock
only.

A typical index-reuse workflow — pay the walk materialization once, sweep
budgets afterwards::

    repro index --dataset Epinions --dataset-scale 0.25 -L 6 -R 100 \
        --out epinions.idx3
    repro select --dataset Epinions --dataset-scale 0.25 -k 20 \
        --index epinions.idx3
    repro select --dataset Epinions --dataset-scale 0.25 -k 100 \
        --index epinions.idx3
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import Sequence

from repro.errors import ParameterError, RwdomError
from repro.graphs.adjacency import Graph
from repro.walks.backends import DEFAULT_ENGINE, available_engines
from repro.walks.build import DEFAULT_CHUNK_ROWS
from repro.graphs.datasets import dataset_names, load_dataset
from repro.graphs.generators import (
    erdos_renyi_graph,
    power_law_graph,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.core.problems import SOLVER_NAMES, Problem1, Problem2, solve
from repro.metrics.evaluation import evaluate_selection
from repro.experiments import extensions, figures
from repro.experiments.config import default_config
from repro.experiments.plotting import plot_table
from repro.simulate import (
    simulate_ad_campaign,
    simulate_p2p_search,
    simulate_social_browsing,
)

__all__ = ["main", "build_parser"]

_EXHIBITS = {
    "table2": figures.table2,
    "fig2": figures.fig2,
    "fig3": figures.fig3,
    "fig4": figures.fig4,
    "fig5": figures.fig5,
    "fig6": figures.fig6,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "ext-edge-domination": extensions.ext_edge_domination,
    "ext-stochastic": extensions.ext_stochastic,
    "ext-applications": extensions.ext_applications,
}


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Random-walk domination in large graphs (ICDE 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    select = sub.add_parser("select", help="select target nodes")
    _add_graph_source(select)
    select.add_argument("-k", type=int, required=True, help="budget |S|")
    select.add_argument("-L", "--length", type=int, default=6, help="walk length")
    select.add_argument(
        "--problem", choices=("1", "2"), default="2",
        help="1: min hitting time, 2: max dominated nodes",
    )
    select.add_argument(
        "--method", choices=SOLVER_NAMES, default="approx-fast",
        help="solver to run",
    )
    select.add_argument(
        "-R", "--replicates", type=int, default=100,
        help="walks per node for sampling-based solvers",
    )
    select.add_argument("--seed", type=int, default=None)
    _add_engine_flag(select)
    select.add_argument(
        "--evaluate", action="store_true",
        help="also print exact AHT/EHN of the selection",
    )
    select.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the SelectionResult as JSON ('-' for stdout)",
    )
    select.add_argument(
        "--index", metavar="FILE", default=None,
        help="reuse a walk index built by 'repro index' (approx-fast only; "
        "overrides -L and -R with the index's own parameters)",
    )
    _add_telemetry_flags(select)

    metrics = sub.add_parser("metrics", help="evaluate a target set")
    _add_graph_source(metrics)
    metrics.add_argument(
        "--targets", required=True,
        help="comma-separated node ids, e.g. 3,17,42",
    )
    metrics.add_argument("-L", "--length", type=int, default=6)
    metrics.add_argument(
        "--sampled", action="store_true",
        help="use the paper's R=500 sampler instead of the exact DP",
    )
    metrics.add_argument("--seed", type=int, default=None)
    _add_engine_flag(metrics)

    generate = sub.add_parser("generate", help="write a synthetic graph")
    generate.add_argument(
        "--model", choices=("power-law", "erdos-renyi"), default="power-law"
    )
    generate.add_argument("-n", "--nodes", type=int, required=True)
    generate.add_argument(
        "-m", "--edges", type=int, default=None,
        help="edge count (power-law) — defaults to 10n",
    )
    generate.add_argument(
        "-p", "--probability", type=float, default=None,
        help="edge probability (erdos-renyi)",
    )
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", required=True, help="output edge-list path")

    exhibit = sub.add_parser(
        "exhibit", help="regenerate a table/figure of the paper"
    )
    exhibit.add_argument("name", choices=sorted(_EXHIBITS))
    exhibit.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale override (default: REPRO_SCALE or 0.25)",
    )
    exhibit.add_argument(
        "--csv", metavar="FILE", default=None,
        help="also write the rows as CSV ('-' for stdout)",
    )
    exhibit.add_argument(
        "--plot", metavar="X:Y[:GROUP]", default=None,
        help="also render an ASCII plot of column Y against column X, one "
        "curve per GROUP value (default group column: 'algorithm')",
    )

    simulate = sub.add_parser(
        "simulate", help="run an application simulation against a placement"
    )
    _add_graph_source(simulate)
    simulate.add_argument(
        "--app", choices=("social", "p2p", "ads"), required=True,
        help="which Section 1.1 scenario to simulate",
    )
    simulate.add_argument(
        "--targets", default=None,
        help="explicit placement as comma-separated node ids; when omitted "
        "the placement is computed with --method/-k",
    )
    simulate.add_argument("-k", type=int, default=10, help="placement size")
    simulate.add_argument(
        "--method", choices=SOLVER_NAMES, default="approx-fast",
        help="solver for the placement when --targets is omitted",
    )
    simulate.add_argument("-L", "--length", type=int, default=6,
                          help="hop budget per session/query")
    simulate.add_argument(
        "--sessions", type=int, default=10_000,
        help="browsing sessions (social) / queries (p2p)",
    )
    simulate.add_argument(
        "--walkers", type=int, default=1, help="walkers per query (p2p)"
    )
    simulate.add_argument(
        "--sessions-per-user", type=int, default=5,
        help="sessions per user (ads)",
    )
    simulate.add_argument("--seed", type=int, default=None)
    _add_engine_flag(simulate)
    simulate.add_argument(
        "--churn-trace", metavar="FILE", default=None,
        help="p2p only: churn trace (leave/rejoin/add/del/step lines, see "
        "repro.dynamic.churn.parse_trace); peers leave and rejoin "
        "mid-simulation, one query phase per 'step'",
    )

    index = sub.add_parser(
        "index", help="materialize the walk index (Algorithm 3) to a file"
    )
    _add_graph_source(index)
    index.add_argument("-L", "--length", type=int, default=6)
    index.add_argument("-R", "--replicates", type=int, default=100)
    index.add_argument("--seed", type=int, default=None)
    _add_engine_flag(index)
    index.add_argument(
        "--out", required=True,
        help="output archive path (v3; .idx3 is appended when no "
        ".idx3/.npz suffix is given); loads back as memory maps",
    )
    index.add_argument(
        "--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS,
        metavar="ROWS",
        help="walk rows generated per chunk (default %(default)s); part "
        "of the RNG contract, so archives compare byte-for-byte only "
        "under the same value",
    )
    index.add_argument(
        "--build-memory-budget", type=int, default=None, metavar="BYTES",
        help="cap the build's sort memory: walk records stream through "
        "an external sort (sorted runs spill next to --out at 8 bytes "
        "per record) straight into the archive; the archive bytes are "
        "the same for any budget; default: no cap, one in-memory sort run",
    )
    _add_telemetry_flags(index)

    analyze = sub.add_parser(
        "analyze", help="recommend a walk horizon L for a target set"
    )
    _add_graph_source(analyze)
    analyze.add_argument(
        "--targets", required=True,
        help="comma-separated node ids the horizon should serve",
    )
    analyze.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative mean truncation gap to tolerate (default 0.05)",
    )

    dynamic = sub.add_parser(
        "dynamic",
        help="edge-churn workloads on the incremental walk index",
    )
    _add_graph_source(dynamic)
    mode = dynamic.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--churn-trace", metavar="FILE",
        help="replay an edit trace (add/del/leave/rejoin/step lines): "
        "incremental index maintenance, coverage/AHT decay, re-solve "
        "points",
    )
    mode.add_argument(
        "--robust", type=int, metavar="Q",
        help="select k targets whose coverage survives a greedy "
        "Q-edge-deletion adversary (robust_greedy; Q=0 equals ApproxF2)",
    )
    mode.add_argument(
        "--attack", type=float, metavar="FRAC",
        help="bondage-style adversary: delete few edges until certified "
        "coverage of the placement drops below FRAC",
    )
    dynamic.add_argument("-k", type=int, default=10, help="placement size")
    dynamic.add_argument(
        "-L", "--length", type=int, default=6, help="walk length"
    )
    dynamic.add_argument(
        "-R", "--replicates", type=int, default=100,
        help="walks per node for the maintained index",
    )
    dynamic.add_argument("--seed", type=int, default=None)
    _add_engine_flag(dynamic)
    dynamic.add_argument(
        "--resolve-threshold", type=float, default=0.9,
        help="replay re-solves when coverage falls below this fraction of "
        "the last solve's coverage (default 0.9)",
    )
    dynamic.add_argument(
        "--targets", default=None,
        help="--attack only: explicit placement to attack as "
        "comma-separated ids (default: solve with -k first)",
    )
    dynamic.add_argument(
        "--max-edges", type=int, default=None,
        help="--attack only: deletion budget cap",
    )
    dynamic.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the report as JSON ('-' for stdout)",
    )
    _add_telemetry_flags(dynamic)

    serve = sub.add_parser(
        "serve",
        help="drive a query workload through the concurrent serving layer",
    )
    _add_graph_source(serve)
    serve.add_argument(
        "--workload", metavar="FILE", required=True,
        help="query workload (select/metrics/coverage/min-targets lines, "
        "see repro.serve.parse_workload)",
    )
    serve.add_argument(
        "--index", metavar="FILE", default=None,
        help="serve a prebuilt walk index ('repro index' output, "
        "provenance-checked against the graph); omit to build one "
        "in-process with -L/-R/--seed/--engine",
    )
    serve.add_argument(
        "--http", action="store_true",
        help="serve over HTTP: start the asyncio front end "
        "(repro.serve.http) on --host/--port and drive the workload "
        "through per-client keep-alive connections instead of in-process "
        "calls",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="HTTP listen address (default 127.0.0.1; with --http)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="HTTP listen port (default 0 = ephemeral, printed at "
        "startup; with --http)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="HTTP admission bound: queries executing concurrently "
        "before new ones get a fast 503 + Retry-After (default 32; "
        "with --http)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=128,
        help="HTTP connection cap: further connections are answered 503 "
        "and closed (default 128; with --http)",
    )
    serve.add_argument(
        "--stats-window", type=int, default=2048,
        help="per-endpoint latency window for /stats percentiles, in "
        "samples (default 2048; must be >= 1; with --http)",
    )
    serve.add_argument(
        "--clients", type=int, default=4,
        help="closed-loop client threads (default 4)",
    )
    serve.add_argument(
        "--repeat", type=int, default=1,
        help="times each client stream replays the workload (default 1)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU capacity for metrics, coverage and min-targets answers, "
        "in entries (default 256; 0 disables caching)",
    )
    serve.add_argument(
        "-L", "--length", type=int, default=6,
        help="walk length for the in-process index build",
    )
    serve.add_argument(
        "-R", "--replicates", type=int, default=100,
        help="walks per node for the in-process index build",
    )
    serve.add_argument("--seed", type=int, default=None)
    _add_engine_flag(serve)
    serve.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the load report as JSON ('-' for stdout)",
    )
    _add_telemetry_flags(serve)

    stats = sub.add_parser(
        "stats",
        help="fetch live telemetry from a running 'repro serve --http' "
        "server",
    )
    stats.add_argument(
        "--url", required=True, metavar="URL",
        help="server base URL, e.g. http://127.0.0.1:8080",
    )
    stats.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="prometheus: GET /metrics text exposition (default); "
        "json: GET /stats JSON document",
    )
    return parser


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable the repro.obs metrics registry and span tracer for "
        "this run and print a Prometheus text dump on exit (results are "
        "bit-identical either way; see DESIGN.md §14)",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write recorded spans as Chrome trace_event JSON "
        "(chrome://tracing / Perfetto); implies --telemetry",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=available_engines(), default=DEFAULT_ENGINE,
        help="walk-engine backend for sampling-based work (default: "
        f"{DEFAULT_ENGINE}, the faster one; 'numpy' is the reference; "
        "both backends produce bit-identical results under one seed)",
    )


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--edge-list", metavar="FILE", help="SNAP edge list")
    source.add_argument(
        "--dataset", choices=dataset_names(), help="Table 2 replica"
    )
    source.add_argument(
        "--synthetic", metavar="N,M", help="power-law graph with N nodes, M edges"
    )
    parser.add_argument(
        "--dataset-scale", type=float, default=1.0,
        help="scale for --dataset replicas (default 1.0)",
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.edge_list:
        return read_edge_list(args.edge_list)
    if args.dataset:
        return load_dataset(args.dataset, scale=args.dataset_scale)
    n_text, _, m_text = args.synthetic.partition(",")
    try:
        n, m = int(n_text), int(m_text)
    except ValueError:
        raise SystemExit(f"--synthetic expects N,M integers, got {args.synthetic!r}")
    return power_law_graph(n, m, seed=0)


def _parse_targets(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--targets expects comma-separated ints, got {text!r}")


# ----------------------------------------------------------------------
# Subcommand bodies
# ----------------------------------------------------------------------
def _cmd_select(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.index is not None:
        if args.method != "approx-fast":
            raise SystemExit("--index requires --method approx-fast")
        from repro.core.approx_fast import approx_greedy_fast
        from repro.walks.persistence import load_index

        index = load_index(args.index, graph=graph)
        objective = "f1" if args.problem == "1" else "f2"
        result = approx_greedy_fast(
            graph, args.k, index.length, index=index, objective=objective,
        )
        args = argparse.Namespace(**{**vars(args), "length": index.length})
    else:
        problem_cls = Problem1 if args.problem == "1" else Problem2
        problem = problem_cls(graph, args.k, args.length)
        options: dict = {}
        if args.method in ("sampling", "approx", "approx-fast"):
            options["num_replicates"] = args.replicates
            options["seed"] = args.seed
        elif args.method == "random":
            options["seed"] = args.seed
        if args.method in ("sampling", "approx-fast"):
            options["engine"] = args.engine
        result = solve(problem, method=args.method, **options)
    print(result.summary())
    print("selected:", ",".join(str(v) for v in result.selected))
    if args.evaluate:
        metrics = evaluate_selection(graph, result.selected, args.length)
        print(f"AHT: {metrics['aht']:.4f}")
        print(f"EHN: {metrics['ehn']:.1f}")
    if args.json:
        payload = result.to_json()
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    targets = _parse_targets(args.targets)
    method = "sampled" if args.sampled else "exact"
    metrics = evaluate_selection(
        graph, targets, args.length, method=method, seed=args.seed,
        engine=args.engine,
    )
    print(f"AHT: {metrics['aht']:.4f}")
    print(f"EHN: {metrics['ehn']:.1f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "power-law":
        edges = args.edges if args.edges is not None else 10 * args.nodes
        graph = power_law_graph(args.nodes, edges, seed=args.seed)
        header = f"power-law n={args.nodes} m={edges} seed={args.seed}"
    else:
        if args.probability is None:
            raise SystemExit("erdos-renyi requires --probability")
        graph = erdos_renyi_graph(args.nodes, args.probability, seed=args.seed)
        header = (
            f"erdos-renyi n={args.nodes} p={args.probability} seed={args.seed}"
        )
    write_edge_list(graph, args.out, header=header)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def _cmd_exhibit(args: argparse.Namespace) -> int:
    config = default_config()
    if args.scale is not None:
        config = config.with_overrides(scale=args.scale)
    table = _EXHIBITS[args.name](config)
    print(table)
    if args.csv:
        csv_text = table.to_csv()
        if args.csv == "-":
            print(csv_text, end="")
        else:
            with open(args.csv, "w") as handle:
                handle.write(csv_text)
    if args.plot:
        parts = args.plot.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit("--plot expects X:Y or X:Y:GROUP")
        group = parts[2] if len(parts) == 3 else "algorithm"
        print()
        print(plot_table(table, x=parts[0], y=parts[1], group_by=group))
    return 0


def _placement(args: argparse.Namespace, graph: Graph) -> tuple[int, ...]:
    if args.targets is not None:
        return tuple(_parse_targets(args.targets))
    problem = Problem2(graph, args.k, args.length)
    options: dict = {}
    if args.method in ("sampling", "approx", "approx-fast"):
        options["seed"] = args.seed
    elif args.method == "random":
        options["seed"] = args.seed
    result = solve(problem, method=args.method, **options)
    print(f"placement ({result.algorithm}):",
          ",".join(str(v) for v in result.selected))
    return result.selected


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.churn_trace is not None and args.app != "p2p":
        raise ParameterError("--churn-trace is only supported for --app p2p")
    hosts = _placement(args, graph)
    if args.churn_trace is not None:
        from repro.simulate import simulate_p2p_churn

        with open(args.churn_trace) as handle:
            trace_text = handle.read()
        churn = simulate_p2p_churn(
            graph, hosts, trace_text, num_queries=args.sessions,
            ttl=args.length, walkers_per_query=args.walkers,
            seed=args.seed, engine=args.engine,
        )
        print(
            f"p2p churn: {len(churn.phases)} phases, "
            f"{churn.num_hosts} hosts, ttl={churn.ttl}"
        )
        print("phase  present  hosts  success  mean_hops  msgs/query")
        for row in churn.phases:
            print(
                f"{row.phase:>5}  {row.num_present:>7}  "
                f"{row.num_active_hosts:>5}  {row.success_rate:>7.3f}  "
                f"{row.mean_hops_to_hit:>9.3f}  "
                f"{row.mean_messages_per_query:>10.3f}"
            )
        print(f"overall_success_rate: {churn.overall_success_rate:.4f}")
        return 0
    if args.app == "social":
        report = simulate_social_browsing(
            graph, hosts, num_sessions=args.sessions, length=args.length,
            seed=args.seed, engine=args.engine,
        )
    elif args.app == "p2p":
        report = simulate_p2p_search(
            graph, hosts, num_queries=args.sessions, ttl=args.length,
            walkers_per_query=args.walkers, seed=args.seed,
            engine=args.engine,
        )
    else:
        report = simulate_ad_campaign(
            graph, hosts, sessions_per_user=args.sessions_per_user,
            length=args.length, seed=args.seed, engine=args.engine,
        )
    for key, value in asdict(report).items():
        print(f"{key}: {value}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.walks.build import build_index_archive

    graph = _load_graph(args)
    report = build_index_archive(
        graph, args.length, args.replicates, args.out,
        seed=args.seed, engine=args.engine, chunk_rows=args.chunk_rows,
        memory_budget=args.build_memory_budget,
    )
    print(
        f"indexed {graph.num_nodes} nodes x {args.replicates} walks "
        f"(L={args.length}, {report.total_entries} entries, "
        f"{report.num_runs} sort runs, "
        f"{report.spilled_bytes} bytes spilled) -> {report.path}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import recommend_length, truncation_gap

    graph = _load_graph(args)
    targets = _parse_targets(args.targets)
    length = recommend_length(graph, targets, tolerance=args.tolerance)
    gap = truncation_gap(graph, targets, length)
    finite = gap[~(gap == float("inf"))]
    print(f"recommended L: {length}")
    print(f"mean truncation gap at that L: {float(finite.mean()):.4f} hops")
    unreachable = int((gap == float("inf")).sum())
    if unreachable:
        print(f"note: {unreachable} nodes can never reach the targets")
    return 0


def _write_json(payload: str, destination: str) -> None:
    if destination == "-":
        print(payload)
    else:
        with open(destination, "w") as handle:
            handle.write(payload + "\n")


def _cmd_dynamic(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    graph = _load_graph(args)
    if args.robust is not None:
        from repro.dynamic import robust_greedy

        result = robust_greedy(
            graph, args.k, args.length, q=args.robust,
            num_replicates=args.replicates, seed=args.seed,
            engine=args.engine,
        )
        print(result.summary())
        print("selected:", ",".join(str(v) for v in result.selected))
        if args.json:
            _write_json(result.to_json(), args.json)
        return 0

    if args.attack is not None:
        from repro.dynamic import DynamicWalkIndex, min_breaking_edges

        dyn = DynamicWalkIndex.build(
            graph, args.length, args.replicates, seed=args.seed,
            engine=args.engine,
        )
        if args.targets is not None:
            targets = tuple(_parse_targets(args.targets))
        else:
            from repro.core.approx_fast import approx_greedy_fast

            solved = approx_greedy_fast(
                graph, args.k, args.length, index=dyn.flat, objective="f2",
            )
            targets = solved.selected
            print(f"placement ({solved.algorithm}):",
                  ",".join(str(v) for v in targets))
        report = min_breaking_edges(
            graph, targets, args.length, threshold=args.attack,
            max_edges=args.max_edges, index=dyn,
        )
        print(
            f"baseline coverage {report.baseline_fraction:.4f}, "
            f"threshold {report.threshold:.4f}"
        )
        for edge, fraction in zip(report.edges, report.coverage_fractions):
            print(f"delete {edge[0]} {edge[1]} -> coverage {fraction:.4f}")
        verdict = "broken" if report.succeeded else "NOT broken"
        print(
            f"placement {verdict} with {report.num_edges} edge deletions"
        )
        if args.json:
            _write_json(
                json.dumps(dataclasses.asdict(report), indent=2), args.json
            )
        return 0

    from repro.dynamic import churn_replay

    with open(args.churn_trace) as handle:
        trace_text = handle.read()
    report = churn_replay(
        graph, trace_text, k=args.k, length=args.length,
        num_replicates=args.replicates, seed=args.seed, engine=args.engine,
        resolve_threshold=args.resolve_threshold,
    )
    print(
        f"churn replay: {len(report.steps)} batches, k={report.k}, "
        f"L={report.length}, R={report.num_replicates}, "
        f"baseline coverage {report.baseline_coverage_fraction:.4f}"
    )
    print("epoch  +ins  -del  resampled  coverage     aht  resolved")
    for step in report.steps:
        print(
            f"{step.epoch:>5}  {step.num_inserts:>4}  {step.num_deletes:>4}  "
            f"{step.resampled_fraction:>9.3f}  {step.coverage_fraction:>8.4f}  "
            f"{step.aht:>6.3f}  {'yes' if step.resolved else 'no':>8}"
        )
    print(f"re-solves: {report.num_resolves}")
    final = report.selections[-1][1]
    print("final selection:", ",".join(str(v) for v in final))
    if args.json:
        _write_json(
            json.dumps(dataclasses.asdict(report), indent=2), args.json
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.serve import (
        DominationService,
        IndexSnapshot,
        parse_workload,
        run_load,
    )

    if args.stats_window < 1:
        raise ParameterError("stats_window must be >= 1")
    graph = _load_graph(args)
    with open(args.workload) as handle:
        queries = parse_workload(handle.read())
    if args.index is not None:
        service = DominationService.from_index_file(
            args.index, graph, cache_size=args.cache_size
        )
    else:
        from repro.walks.index import FlatWalkIndex

        index = FlatWalkIndex.build(
            graph, args.length, args.replicates, seed=args.seed,
            engine=args.engine,
        )
        service = DominationService(
            IndexSnapshot.capture(graph, index), cache_size=args.cache_size
        )
    with service:
        snap = service.snapshot
        print(
            f"serving {snap.num_nodes} nodes (L={snap.length}, "
            f"R={snap.index.num_replicates}, epoch {snap.epoch}): "
            f"{len(queries)} workload queries x {args.repeat}, "
            f"{args.clients} closed-loop clients"
        )
        if args.http:
            from repro.serve import start_http_server

            handle = start_http_server(
                service, host=args.host, port=args.port,
                max_inflight=args.max_inflight,
                max_connections=args.max_connections,
                stats_window=args.stats_window,
            )
            try:
                print(
                    f"http front end on {handle.base_url} "
                    f"(max in-flight {args.max_inflight}, "
                    f"max connections {args.max_connections})"
                )
                report = run_load(
                    service, queries, num_clients=args.clients,
                    repeat=args.repeat, transport="http",
                    base_url=handle.base_url,
                )
            finally:
                handle.stop()
        else:
            report = run_load(
                service, queries, num_clients=args.clients,
                repeat=args.repeat,
            )
    stats = report.stats
    print(
        f"throughput: {report.throughput_qps:.1f} q/s "
        f"({report.num_queries} queries in {report.elapsed_seconds:.3f} s)"
    )
    print(
        f"latency: mean {report.latency_mean_ms:.2f} ms  "
        f"p50 {report.latency_p50_ms:.2f} ms  "
        f"p99 {report.latency_p99_ms:.2f} ms"
    )
    print(
        f"kernel passes: {stats.kernel_passes} "
        f"({stats.batched_queries} select queries from "
        f"{stats.select_batches} prefix solves), "
        f"cache hits: {stats.cache_hits}, errors: {report.errors}, "
        f"rejections: {report.rejections}"
    )
    if args.json:
        # Percentiles are always observed latencies now — an all-rejected
        # run raises inside run_load instead of reporting NaN.
        _write_json(
            json.dumps(dataclasses.asdict(report), indent=2), args.json
        )
    if report.errors:
        print(
            f"error: {report.errors} workload queries were rejected by "
            "the library (see the errors count above)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    path = "/metrics" if args.format == "prometheus" else "/stats"
    url = args.url.rstrip("/") + path
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: GET {url} failed: {exc}", file=sys.stderr)
        return 1
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


_COMMANDS = {
    "select": _cmd_select,
    "metrics": _cmd_metrics,
    "generate": _cmd_generate,
    "exhibit": _cmd_exhibit,
    "simulate": _cmd_simulate,
    "index": _cmd_index,
    "analyze": _cmd_analyze,
    "dynamic": _cmd_dynamic,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point (also installed as the ``repro`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry = bool(
        getattr(args, "telemetry", False)
        or getattr(args, "trace_out", None)
    )
    if telemetry:
        from repro import obs

        obs.configure()
    try:
        status = _COMMANDS[args.command](args)
    except RwdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if telemetry:
            trace_out = getattr(args, "trace_out", None)
            if trace_out:
                from repro import obs

                obs.write_chrome_trace(trace_out)
                print(f"trace written -> {trace_out}", file=sys.stderr)
    if telemetry:
        from repro import obs

        text = obs.render_prometheus()
        if text:
            print("--- telemetry (prometheus text) ---", file=sys.stderr)
            sys.stderr.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
