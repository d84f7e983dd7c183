"""Ablation: engine choices at both layers of the solver stack.

Two head-to-head comparisons on the same workload:

* *Gain engine* — the paper-faithful reference implementation of
  Algorithm 6 vs the vectorized :class:`FastApproxEngine`.  Both run on
  the same materialized walks; they must agree exactly, and vectorization
  is what makes the algorithm practical in Python.
* *Walk backend* — the registered walk engines
  (:mod:`repro.walks.backends`) generating the index walks.  ``"numpy"``
  and ``"csr"`` are bit-identical under one seed, so the comparison is
  pure execution strategy.
"""

import numpy as np

from repro.experiments.reporting import ExperimentTable
from repro.graphs.generators import power_law_graph
from repro.walks.backends import get_engine
from repro.walks.engine import batch_walks
from repro.walks.index import FlatWalkIndex, InvertedIndex, walker_major_starts
from repro.core.approx_fast import approx_greedy_fast
from repro.core.approx_greedy import approx_greedy


def run_ablation(config):
    graph = power_law_graph(1_000, 9_956, seed=config.seed)
    replicates, length, k = 25, 6, 30
    starts = walker_major_starts(graph.num_nodes, replicates)
    walks = batch_walks(graph, starts, length, seed=config.seed)
    ref_index = InvertedIndex.from_walks(walks, graph.num_nodes, replicates)
    flat_index = FlatWalkIndex.from_walks(walks, graph.num_nodes, replicates)
    table = ExperimentTable(
        title=f"Ablation: reference vs vectorized engine (n=1000, k={k}, R={replicates})",
        columns=("objective", "engine", "seconds"),
    )
    outcomes = {}
    for objective in ("f1", "f2"):
        ref = approx_greedy(graph, k, length, index=ref_index, objective=objective)
        fast = approx_greedy_fast(
            graph, k, length, index=flat_index, objective=objective
        )
        outcomes[objective] = (ref, fast)
        table.add_row(objective, "reference", ref.elapsed_seconds)
        table.add_row(objective, "vectorized", fast.elapsed_seconds)
    return table, outcomes


def run_backend_ablation(config):
    """Time every walk backend generating the same index walks."""
    import time

    graph = power_law_graph(10_000, 50_000, seed=config.seed)
    replicates, length = 10, 6
    starts = walker_major_starts(graph.num_nodes, replicates)
    table = ExperimentTable(
        title=(
            "Ablation: walk backends "
            f"(n=10000, B={starts.size}, L={length})"
        ),
        columns=("backend", "kernel", "seconds"),
    )
    walks_by_backend = {}
    for name in ("numpy", "csr"):
        engine = get_engine(name)
        engine.batch_walks(graph, starts[:64], length, seed=0)  # warm plans
        started = time.perf_counter()
        walks_by_backend[name] = engine.batch_walks(
            graph, starts, length, seed=config.seed
        )
        table.add_row(name, "batch_walks", time.perf_counter() - started)
        started = time.perf_counter()
        FlatWalkIndex.build(
            graph, length, replicates, seed=config.seed, engine=engine
        )
        table.add_row(name, "index_build", time.perf_counter() - started)
    return table, walks_by_backend


def test_engine_ablation(benchmark, config, report):
    table, outcomes = benchmark.pedantic(
        lambda: run_ablation(config), rounds=1, iterations=1
    )
    report(table, "ablation_engines.txt")
    for objective, (ref, fast) in outcomes.items():
        assert ref.selected == fast.selected, objective
        assert fast.elapsed_seconds < ref.elapsed_seconds


def test_walk_backend_ablation(benchmark, config, report):
    table, walks = benchmark.pedantic(
        lambda: run_backend_ablation(config), rounds=1, iterations=1
    )
    report(table, "ablation_walk_backends.txt")
    # numpy and csr are stream-matched: identical walks, only speed differs.
    assert np.array_equal(walks["numpy"], walks["csr"])
