"""The end-to-end benchmark's traced run wraps library functions in place.

``perfbench/layers.py`` times each layer by replacing functions at the
names their callers look them up by, reading each original from its
owner's ``__dict__``.  A rename or a move of any of those seams would
only surface when the traced benchmark runs; this guard makes it fail
the fast test lane instead.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_in_its_owner(layers):
    targets = layers._targets()
    assert targets
    for owner, attr, name, _count in targets:
        assert attr in owner.__dict__, f"{name}: {owner!r} has no {attr!r}"
        assert callable(owner.__dict__[attr]), name
        assert name in layers.LAYER_OF, name


def test_install_wraps_and_uninstall_restores(layers):
    originals = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _name, _count in layers._targets()
    ]
    trace = layers.LayerTrace()
    trace.install()
    try:
        for owner, attr, original in originals:
            wrapped = owner.__dict__[attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        trace.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_traced_solve_counts_celf_inside_engine_run(layers):
    # The traced run counts a CELF pop or pick only when its gain_of or
    # select call's parent span is FastApproxEngine.run; a greedy driver
    # called around run instead of inside it would zero the
    # greedy.celf_useful_ratio metric without failing anything else.
    from repro.core import approx_fast
    from repro.graphs.generators import power_law_graph

    graph = power_law_graph(200, 800, seed=23)
    trace = layers.LayerTrace()
    trace.install()
    try:
        approx_fast.approx_greedy_fast(graph, 5, 4, num_replicates=10, seed=1)
    finally:
        trace.uninstall()
    items = trace.phase()["items"]
    assert items["greedy.celf_picks"] == 5
    assert items["greedy.celf_pops"] >= 5


def test_record_counters_agree_across_layers(layers):
    # The traced run counts records from the first array that
    # first_visit_records returns and from the first array consume
    # takes; a reshaped return or argument list would still resolve by
    # name, so the counts themselves are checked here, over several
    # chunks.
    from repro.graphs.generators import power_law_graph
    from repro.walks.index import FlatWalkIndex

    graph = power_law_graph(200, 800, seed=23)
    trace = layers.LayerTrace()
    trace.install()
    try:
        index = FlatWalkIndex.build(graph, 5, 4, seed=3, chunk_rows=300)
    finally:
        trace.uninstall()
    phase = trace.phase()
    assert phase["spans"]["first_visit_records"]["calls"] >= 2
    items = phase["items"]
    assert (
        items["first_visit.records"]
        == items["sort.records"]
        == items["storage.entries"]
        == index.total_entries
    )


def test_service_counters_read_by_the_benchmark_exist():
    # The traced served-mix run indexes GET /stats' "service" section by
    # name; a renamed ServiceStats field would crash that run instead of
    # failing here.
    import dataclasses
    import re

    from repro.graphs.generators import power_law_graph
    from repro.serve import (
        DominationService,
        IndexSnapshot,
        ServiceStats,
        start_http_server,
    )
    from repro.serve.loadgen import _HttpClient
    from repro.walks.index import FlatWalkIndex

    source = (PERFBENCH / "workloads.py").read_text()
    keys = set(re.findall(r"""stats\["service"\]\["(\w+)"\]""", source))
    assert keys
    fields = {f.name for f in dataclasses.fields(ServiceStats)}
    assert keys <= fields, sorted(keys - fields)
    graph = power_law_graph(40, 120, seed=5)
    index = FlatWalkIndex.build(graph, 3, 5, seed=5)
    with DominationService(IndexSnapshot.capture(graph, index)) as service:
        handle = start_http_server(service)
        client = _HttpClient(handle.base_url)
        try:
            status, payload = client.request("GET", "/stats")
        finally:
            client.close()
            handle.stop()
    assert status == 200
    assert keys <= set(payload["service"]), sorted(
        keys - set(payload["service"])
    )
