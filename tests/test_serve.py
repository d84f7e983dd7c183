"""Serving-layer tests: parity, the greedy prefix, caching, epochs, swaps."""

import math
import random
import sys
import threading

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
    parse_workload,
    run_load,
)
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import save_index


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(120, 420, seed=1)


@pytest.fixture(scope="module")
def index(graph):
    return FlatWalkIndex.build(graph, 5, 20, seed=2)


def _service(graph, index, **kwargs):
    return DominationService(IndexSnapshot.capture(graph, index), **kwargs)


class TestIndexSelectionMetrics:
    """FlatWalkIndex.selection_metrics — the serving metrics kernel."""

    def test_matches_walk_based_metrics(self, graph):
        dyn = DynamicWalkIndex.build(graph, 5, 20, seed=3)
        for targets in [(), (7,), (3, 17, 42), tuple(range(0, 120, 11))]:
            assert dyn.flat.selection_metrics(targets) == (
                dyn.selection_metrics(targets)
            )

    def test_duplicates_and_order_are_irrelevant(self, index):
        assert index.selection_metrics((5, 9, 5, 1)) == (
            index.selection_metrics((1, 5, 9))
        )

    def test_out_of_range_targets_rejected(self, index):
        with pytest.raises(ParameterError):
            index.selection_metrics((0, 500))
        with pytest.raises(ParameterError):
            index.selection_metrics((-1,))


class TestAnswerParity:
    """Every served answer == the direct solver call on the snapshot."""

    def test_select(self, graph, index):
        service = _service(graph, index)
        for objective in ("f1", "f2"):
            for k in (0, 1, 6, 15):
                served = service.select(k, objective=objective)
                direct = approx_greedy_fast(
                    graph, k, 5, index=index, objective=objective
                )
                assert served.selected == direct.selected
                assert served.gains == direct.gains
                assert served.algorithm == direct.algorithm

    def test_metrics_and_coverage(self, graph, index):
        service = _service(graph, index)
        placement = service.select(6).selected
        expected = index.selection_metrics(placement)
        assert service.metrics(placement) == expected
        assert service.coverage(placement) == expected["coverage_fraction"]

    def test_min_targets(self, graph, index):
        service = _service(graph, index)
        served = service.min_targets(0.6)
        direct = min_targets_for_coverage(graph, 0.6, 5, index=index)
        assert served.selected == direct.selected
        assert served.gains == direct.gains

    def test_min_targets_unreachable_raises(self, graph, index):
        service = _service(graph, index)
        with pytest.raises(ParameterError):
            service.min_targets(0.99, max_size=1)

    def test_select_validates_like_the_solver(self, graph, index):
        service = _service(graph, index)
        with pytest.raises(ParameterError):
            service.select(-1)
        with pytest.raises(ParameterError):
            service.select(graph.num_nodes + 1)
        with pytest.raises(ParameterError):
            service.select(3, objective="f3")


class TestGreedyPrefix:
    """Every select is a slice of one held greedy run per objective."""

    def test_ascending_sweep_doubles_descending_sweep_solves_once(
        self, graph, index
    ):
        service = _service(graph, index)
        for k in range(1, 33):
            served = service.select(k)
            direct = approx_greedy_fast(
                graph, k, 5, index=index, objective="f2"
            )
            assert served.selected == direct.selected
            assert served.gains == direct.gains
        stats = service.stats
        # Budgets 1, 2, 4, 8, 16, 32: one solve per doubling.
        assert stats.kernel_passes == stats.select_batches == 6
        assert stats.batched_queries == 32
        service = _service(graph, index)
        for k in range(32, 0, -1):
            served = service.select(k)
            direct = approx_greedy_fast(
                graph, k, 5, index=index, objective="f2"
            )
            assert served.selected == direct.selected
            assert served.gains == direct.gains
        stats = service.stats
        assert stats.kernel_passes == stats.select_batches == 1

    def test_threaded_stress_keeps_answers_and_the_doubling_bound(
        self, graph, index
    ):
        """More threads than cores and a tiny switch interval: every
        answer is a slice of the direct run, and a lost install would
        show as more solves than doubling allows."""
        service = _service(graph, index)
        rng = random.Random(5)
        k_max = 40
        plans = [
            [(rng.randint(1, k_max), rng.choice(("f1", "f2")))
             for _ in range(30)]
            for _ in range(8)
        ]
        answers: list = []
        errors: list = []

        def worker(plan):
            try:
                for k, objective in plan:
                    answers.append(
                        (k, objective, service.select(k, objective=objective))
                    )
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(plan,), daemon=True)
            for plan in plans
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(answers) == 8 * 30
        stats = service.stats
        bound = 2 * (math.ceil(math.log2(k_max)) + 1)
        assert stats.kernel_passes == stats.select_batches <= bound
        assert stats.batched_queries == 8 * 30
        direct = {
            objective: approx_greedy_fast(
                graph, k_max, 5, index=index, objective=objective
            )
            for objective in ("f1", "f2")
        }
        for k, objective, served in answers:
            assert served.selected == direct[objective].selected[:k]
            assert served.gains == direct[objective].gains[:k]

    def test_concurrent_selects_share_one_pass(self, graph, index):
        service = _service(graph, index)
        results: dict[int, object] = {}
        threads = [
            threading.Thread(
                target=lambda k=k: results.__setitem__(k, service.select(k))
            )
            for k in range(1, 9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats
        assert stats.kernel_passes < 8
        assert stats.batched_queries == 8
        for k in range(1, 9):
            direct = approx_greedy_fast(
                graph, k, 5, index=index, objective="f2"
            )
            assert results[k].selected == direct.selected
            assert results[k].gains == direct.gains
            assert results[k].params["served"] is True

    def test_failed_extension_raises_per_thread_copies(self, graph, index,
                                                       monkeypatch):
        """A failing solve surfaces to every waiter with the original
        type preserved, each as its own instance (a single shared
        exception re-raised from N threads races on its traceback)."""
        import repro.serve.service as service_module

        service = _service(graph, index)

        def broken(*args, **kwargs):
            raise ParameterError("kernel exploded")

        monkeypatch.setattr(service_module, "approx_greedy_fast", broken)
        caught: list[BaseException] = []

        def query(k):
            try:
                service.select(k)
            except ParameterError as exc:
                caught.append(exc)

        threads = [
            threading.Thread(target=query, args=(k,)) for k in (2, 3, 4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(caught) == 3
        assert all("kernel exploded" in str(exc) for exc in caught)
        assert len({id(exc) for exc in caught}) == 3

    def test_failed_extension_stores_nothing(self, graph, index,
                                             monkeypatch):
        import repro.serve.service as service_module

        service = _service(graph, index)
        service.select(3)

        def broken(*args, **kwargs):
            raise ParameterError("kernel exploded")

        monkeypatch.setattr(service_module, "approx_greedy_fast", broken)
        with pytest.raises(ParameterError, match="kernel exploded"):
            service.select(10)
        # The held run is untouched: shorter budgets still slice it.
        assert service.select(2).params["prefix_k"] == 3
        monkeypatch.undo()
        served = service.select(10)
        direct = approx_greedy_fast(graph, 10, 5, index=index, objective="f2")
        assert served.selected == direct.selected
        assert served.gains == direct.gains
        assert service.stats.select_batches == 2

    def test_objectives_hold_separate_prefixes(self, graph, index):
        service = _service(graph, index)
        results = {}

        def query(objective):
            results[objective] = service.select(4, objective=objective)

        threads = [
            threading.Thread(target=query, args=(obj,))
            for obj in ("f1", "f2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for objective in ("f1", "f2"):
            direct = approx_greedy_fast(
                graph, 4, 5, index=index, objective=objective
            )
            assert results[objective].selected == direct.selected
        assert service.stats.select_batches == 2
        # Each objective slices its own run, with no further solve.
        for objective in ("f1", "f2"):
            served = service.select(3, objective=objective)
            direct = approx_greedy_fast(
                graph, 3, 5, index=index, objective=objective
            )
            assert served.selected == direct.selected
            assert served.gains == direct.gains
            assert served.algorithm == direct.algorithm
        assert service.stats.select_batches == 2

    def test_served_params(self, graph, index):
        service = _service(graph, index)
        service.select(9)
        for k in (0, 3, 9, 10):
            served = service.select(k)
            direct = approx_greedy_fast(
                graph, k, 5, index=index, objective="f2"
            )
            params = served.params
            assert params["served"] is True
            assert params["epoch"] == 0
            assert params["k"] == k
            assert params["prefix_k"] >= k
            assert set(params) == set(direct.params) | {
                "served", "epoch", "prefix_k",
            }
        assert service.select(10).params["prefix_k"] == 18

    def test_stale_generation_extension_is_never_held(
        self, graph, index, monkeypatch
    ):
        """A reader that resolved the old publish and extends after a
        same-epoch republish answers from the old index, and its run is
        never served to readers of the new one."""
        import repro.serve.service as service_module

        service = _service(graph, index)
        service.select(4)
        real = service_module.approx_greedy_fast
        entered, release = threading.Event(), threading.Event()

        def gated(*args, **kwargs):
            entered.set()
            assert release.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "approx_greedy_fast", gated)
        stale: list = []
        reader = threading.Thread(
            target=lambda: stale.append(service.select(12)), daemon=True
        )
        reader.start()
        assert entered.wait(10)
        rebuilt = FlatWalkIndex.build(graph, 5, 20, seed=99)
        service.publish(IndexSnapshot.capture(graph, rebuilt))
        assert service.epoch == 0  # same epoch, same fingerprint
        assert service._prefixes == {}
        release.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        old = approx_greedy_fast(graph, 12, 5, index=index, objective="f2")
        assert stale[0].selected == old.selected
        assert stale[0].gains == old.gains
        assert service._prefixes == {}
        for k in (4, 12):
            fresh = service.select(k)
            direct = approx_greedy_fast(
                graph, k, 5, index=rebuilt, objective="f2"
            )
            assert fresh.selected == direct.selected
            assert fresh.gains == direct.gains
        # Sanity: the two indexes genuinely disagree.
        assert (fresh.selected, fresh.gains) != (old.selected, old.gains)


class TestResultCache:
    def test_repeat_query_hits_cache(self, graph, index):
        service = _service(graph, index)
        first = service.metrics((1, 5, 9))
        passes = service.stats.kernel_passes
        second = service.metrics((1, 5, 9))
        assert second == first
        assert service.stats.kernel_passes == passes
        assert service.stats.cache_hits == 1

    def test_metrics_key_is_canonical(self, graph, index):
        service = _service(graph, index)
        service.metrics((9, 3, 3, 1))
        assert service.metrics((1, 3, 9)) == service.metrics((9, 3, 3, 1))
        # One kernel pass despite three calls in two different spellings.
        assert service.stats.kernel_passes == 1
        # A served dict is a copy: mutating it must not poison the cache.
        poisoned = service.metrics((1, 3, 9))
        poisoned["coverage"] = -1
        assert service.metrics((1, 3, 9))["coverage"] != -1

    def test_cache_size_zero_disables(self, graph, index):
        service = _service(graph, index, cache_size=0)
        service.metrics((1, 5, 9))
        service.metrics((1, 5, 9))
        assert service.stats.cache_hits == 0
        assert service.stats.kernel_passes == 2

    def test_lru_eviction(self, graph, index):
        service = _service(graph, index, cache_size=2)
        service.metrics((1,))
        service.metrics((2,))
        service.metrics((3,))  # evicts (1,)
        passes = service.stats.kernel_passes
        service.metrics((1,))
        assert service.stats.kernel_passes == passes + 1


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


class TestEpochsAndSwap:
    def _dynamic_service(self, graph, **kwargs):
        dyn = DynamicWalkIndex.build(graph, 5, 20, seed=4)
        return DominationService.from_dynamic(dyn, **kwargs), dyn

    def test_sync_publishes_new_epoch_with_fresh_answers(self, graph):
        service, _ = self._dynamic_service(graph)
        before = service.select(6)
        dgraph = DynamicGraph(graph)
        dgraph.apply_batch(_absent_edges(graph, 2), [])
        stats = service.sync(dgraph)
        assert stats.batches == 1
        assert service.epoch == 1
        after = service.select(6)
        direct = approx_greedy_fast(
            service.snapshot.graph, 6, 5, index=service.snapshot.index,
            objective="f2",
        )
        assert after.selected == direct.selected
        assert after.params["epoch"] == 1
        assert before.params["epoch"] == 0

    def test_publish_invalidates_stale_cache_entries(self, graph):
        service, _ = self._dynamic_service(graph)
        service.metrics((4, 5, 6))
        service.metrics((1, 2, 3))
        assert len(service._cache) == 2
        dgraph = DynamicGraph(graph)
        dgraph.apply_batch(_absent_edges(graph, 1), [])
        service.sync(dgraph)
        assert len(service._cache) == 0
        assert service.stats.publishes == 1
        # The re-issued query recomputes rather than serving the stale
        # epoch-0 answer.
        hits = service.stats.cache_hits
        service.metrics((4, 5, 6))
        assert service.stats.cache_hits == hits

    def test_in_flight_stale_result_is_not_recached(self, graph):
        """A query that resolved the pre-swap snapshot must not push its
        result back into the cache after publish evicted that epoch —
        the entry could never be served again and would only crowd out
        live entries."""
        service, _ = self._dynamic_service(graph)
        old = service.snapshot
        stale = service.metrics((1, 2, 3))
        dgraph = DynamicGraph(graph)
        dgraph.apply_batch(_absent_edges(graph, 1), [])
        service.sync(dgraph)
        assert len(service._cache) == 0
        # Replay what an in-flight reader would do post-swap (cache keys
        # lead with the publish generation, 0 before the sync).
        service._cache_put(
            (0, old.fingerprint, old.epoch, "metrics", (1, 2, 3)),
            stale,
        )
        assert len(service._cache) == 0

    def test_old_snapshot_remains_usable_after_swap(self, graph):
        service, _ = self._dynamic_service(graph)
        old = service.snapshot
        old_direct = approx_greedy_fast(
            old.graph, 5, 5, index=old.index, objective="f2"
        )
        dgraph = DynamicGraph(graph)
        dgraph.apply_batch(_absent_edges(graph, 1), [])
        service.sync(dgraph)
        # A reader that resolved the old snapshot before the swap can
        # keep computing on it and gets the old epoch's exact answer.
        again = approx_greedy_fast(
            old.graph, 5, 5, index=old.index, objective="f2"
        )
        assert again.selected == old_direct.selected
        assert again.gains == old_direct.gains

    def test_concurrent_readers_during_churn_swaps(self, graph):
        """Readers under continuous churn: every answer belongs to a
        published epoch and matches the direct solve on that snapshot."""
        service, _ = self._dynamic_service(graph)
        snapshots = {0: service.snapshot}
        answers = []
        errors = []
        stop = threading.Event()

        def reader(k):
            while not stop.is_set():
                try:
                    answers.append((k, service.select(k)))
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=reader, args=(k,), daemon=True)
            for k in (3, 5, 8)
        ]
        for thread in threads:
            thread.start()
        try:
            dgraph = DynamicGraph(graph)
            e1, e2, e3 = _absent_edges(graph, 3)
            for inserts, deletes in ([e1], []), ([e2], []), ([e3], [e1]):
                dgraph.apply_batch(inserts, deletes)
                service.sync(dgraph)
                snapshots[service.epoch] = service.snapshot
        finally:
            stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(snapshots) == 4
        checked = set()
        for k, result in answers:
            epoch = result.params["epoch"]
            assert epoch in snapshots
            if (k, epoch) in checked:
                continue
            checked.add((k, epoch))
            snap = snapshots[epoch]
            direct = approx_greedy_fast(
                snap.graph, k, 5, index=snap.index, objective="f2"
            )
            assert result.selected == direct.selected
            assert result.gains == direct.gains

    def test_republishing_same_epoch_does_not_serve_old_index(
        self, graph, index
    ):
        """Two different indexes for the same graph both sit at epoch 0
        (e.g. a reseeded rebuild): the cache must not hand out the old
        index's answers after the new one is published."""
        service = _service(graph, index)
        old_answer = service.select(6)
        rebuilt = FlatWalkIndex.build(graph, 5, 20, seed=99)
        service.publish(IndexSnapshot.capture(graph, rebuilt))
        assert service.epoch == 0  # same epoch, same fingerprint
        fresh = service.select(6)
        direct = approx_greedy_fast(
            graph, 6, 5, index=rebuilt, objective="f2"
        )
        assert fresh.selected == direct.selected
        assert fresh.gains == direct.gains
        # Sanity: the two indexes genuinely disagree somewhere.
        assert (
            old_answer.selected != fresh.selected
            or old_answer.gains != fresh.gains
        )

    def test_cached_select_params_cannot_be_poisoned(self, graph, index):
        service = _service(graph, index)
        first = service.select(5)
        first.params["epoch"] = 999
        second = service.select(5)
        assert second.params["epoch"] == 0
        mt = service.min_targets(0.5)
        mt.params["alpha"] = -1
        assert service.min_targets(0.5).params["alpha"] == 0.5

    def test_sync_requires_a_dynamic_index(self, graph, index):
        service = _service(graph, index)
        with pytest.raises(ParameterError):
            service.sync(DynamicGraph(graph))


class TestSubmitAndLifecycle:
    def test_submit_returns_futures(self, graph, index):
        with _service(graph, index) as service:
            future = service.submit("select", k=4)
            metrics = service.submit("metrics", selection=(1, 2))
            assert future.result().selected == service.select(4).selected
            assert metrics.result() == service.metrics((1, 2))

    def test_submit_rejects_unknown_kind(self, graph, index):
        with _service(graph, index) as service:
            with pytest.raises(ParameterError):
                service.submit("drop_tables")

    def test_constructor_validation(self, graph, index):
        snapshot = IndexSnapshot.capture(graph, index)
        with pytest.raises(ParameterError):
            DominationService(snapshot, max_workers=0)
        with pytest.raises(ParameterError):
            DominationService(snapshot, cache_size=-1)
        with pytest.raises(ParameterError):
            IndexSnapshot.capture(power_law_graph(30, 60, seed=9), index)


class TestFromIndexFile:
    def test_round_trip_serves(self, graph, index, tmp_path):
        path = tmp_path / "served"  # suffixless on purpose
        save_index(index, path, graph=graph)
        with DominationService.from_index_file(path, graph) as service:
            direct = approx_greedy_fast(
                graph, 5, 5, index=index, objective="f2"
            )
            assert service.select(5).selected == direct.selected

    def test_stale_archive_rejected(self, graph, index, tmp_path):
        path = save_index(index, tmp_path / "stale.idx3", graph=graph)
        other = power_law_graph(120, 421, seed=8)
        with pytest.raises(ParameterError):
            DominationService.from_index_file(path, other)


class TestLoadgen:
    def test_parse_workload(self):
        queries = parse_workload(
            "# warmup\n"
            "select 5\n"
            "select 9 f1\n"
            "metrics 1,2,3\n"
            "coverage 4,5\n"
            "min-targets 0.25\n"
        )
        assert [q.kind for q in queries] == [
            "select", "select", "metrics", "coverage", "min-targets",
        ]
        assert queries[1].objective == "f1"
        assert queries[2].targets == (1, 2, 3)
        assert queries[4].fraction == 0.25

    def test_parse_workload_rejects_garbage_with_line(self):
        with pytest.raises(ParameterError, match="workload line 2"):
            parse_workload("select 5\nselect five\n")
        with pytest.raises(ParameterError, match="workload line 1"):
            parse_workload("select 5 f9\n")
        with pytest.raises(ParameterError, match="workload line 1"):
            parse_workload("frobnicate 1\n")

    def test_run_load_counts_and_parity(self, graph, index):
        service = _service(graph, index)
        queries = parse_workload("select 4\nmetrics 1,2\ncoverage 3,4\n")
        report = run_load(service, queries, num_clients=2, repeat=3)
        assert report.num_queries == 9
        assert report.errors == 0
        assert report.stats.queries == 9
        assert report.throughput_qps > 0
        direct = approx_greedy_fast(graph, 4, 5, index=index, objective="f2")
        assert service.select(4).selected == direct.selected

    def test_run_load_counts_library_errors(self, graph, index):
        service = _service(graph, index)
        bad = WorkloadQuery(kind="metrics", targets=(10_000,))
        good = WorkloadQuery(kind="metrics", targets=(1,))
        report = run_load(service, [bad, good], num_clients=1)
        assert report.errors == 1
        assert report.rejections == 0
        assert report.latency_p50_ms == report.latency_p50_ms  # not NaN

    def test_run_load_all_rejected_raises(self, graph, index):
        """An all-failed run has no latency distribution; reporting
        placeholder percentiles would read as a healthy run (ISSUE 6
        regression — this used to return NaN percentiles)."""
        service = _service(graph, index)
        bad = WorkloadQuery(kind="metrics", targets=(10_000,))
        with pytest.raises(ParameterError, match="no queries were answered"):
            run_load(service, [bad, bad], num_clients=2)

    def test_percentiles_are_observed_latencies(self):
        """Small-sample rule: percentiles never interpolate between
        samples (ISSUE 6 regression — two samples of 1 and 100 used to
        'interpolate' a p99 of 99.01 that half the sample missed)."""
        from repro.serve import sample_percentile

        assert sample_percentile([1.0, 100.0], 99) == 100.0
        assert sample_percentile([1.0, 100.0], 50) == 100.0
        assert sample_percentile([1.0], 99) == 1.0
        assert sample_percentile([5.0, 1.0, 3.0], 50) == 3.0
        ladder = list(range(1, 101))
        assert sample_percentile(ladder, 99) == 100.0
        assert sample_percentile(ladder, 50) == 51.0
        with pytest.raises(ParameterError, match="empty sample"):
            sample_percentile([], 99)

    def test_run_load_percentiles_follow_small_sample_rule(
        self, graph, index
    ):
        """With < 100 answered queries the reported p99 is the maximum
        observed latency, an honest upper bound."""
        service = _service(graph, index)
        queries = [WorkloadQuery(kind="coverage", targets=(v,)) for v in
                   range(6)]
        report = run_load(service, queries, num_clients=2)
        assert report.latency_p99_ms >= report.latency_p50_ms
        assert report.latency_p99_ms >= report.latency_mean_ms

    def test_run_load_reraises_unexpected_errors(self, graph, index,
                                                 monkeypatch):
        """Non-library failures must abort the run, not vanish into a
        plausible-looking report (or crash the percentile math)."""
        service = _service(graph, index)

        def broken(selection):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "metrics", broken)
        query = WorkloadQuery(kind="metrics", targets=(1, 2))
        with pytest.raises(RuntimeError, match="boom"):
            run_load(service, [query], num_clients=1)

    def test_run_load_validation(self, graph, index):
        service = _service(graph, index)
        with pytest.raises(ParameterError):
            run_load(service, [], num_clients=1)
        query = WorkloadQuery(kind="select", k=2)
        with pytest.raises(ParameterError):
            run_load(service, [query], num_clients=0)
        with pytest.raises(ParameterError):
            run_load(service, [query], repeat=0)
