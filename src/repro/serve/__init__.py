"""Query-serving subsystem: the online read path over walk indexes.

The paper's three application scenarios — P2P keyword search, ad
placement, social-network influence — are all *online query workloads*:
many concurrent users asking selection and coverage questions against a
precomputed walk index.  This package is that read path (DESIGN.md §10,
§12):

* :class:`~repro.serve.snapshot.IndexSnapshot` — an immutable
  ``(graph, index, epoch, fingerprint)`` unit, loaded from persistence
  (provenance-checked) or captured from a maintained
  :class:`~repro.dynamic.index.DynamicWalkIndex`.
* :class:`~repro.serve.service.DominationService` — thread-safe typed
  queries (``select`` / ``metrics`` / ``coverage`` / ``min_targets``)
  with one greedy prefix per snapshot and objective that every
  ``select`` slices, an epoch-keyed LRU result cache, and an atomic
  swap-on-churn publish path; every answer bit-identical to the direct
  solver call on the same snapshot.
* :mod:`~repro.serve.schemas` — the typed JSON wire schemas
  (dataclass-validated requests with field-context errors, exact
  encode/decode round-trip).
* :class:`~repro.serve.http.DominationHttpServer` — the asyncio
  HTTP/1.1 front end (stdlib-only) with health/readiness endpoints,
  per-endpoint latency counters, and bounded-in-flight backpressure.
* :mod:`~repro.serve.loadgen` — workload parsing and the closed-loop
  load generator (in-process or over HTTP) behind ``repro serve`` and
  ``benchmarks/bench_serving.py`` / ``benchmarks/bench_http_serving.py``.
"""

from repro.serve.snapshot import IndexSnapshot
from repro.serve.service import (
    QUERY_KINDS,
    DominationService,
    ServiceStats,
)
from repro.serve.schemas import (
    REQUEST_KINDS,
    CoverageRequest,
    MetricsRequest,
    MinTargetsRequest,
    SelectRequest,
    decode_request,
    encode_request,
    encode_response,
)
from repro.serve.http import (
    DominationHttpServer,
    EndpointStats,
    HttpServerHandle,
    start_http_server,
)
from repro.serve.loadgen import (
    LoadReport,
    WorkloadQuery,
    parse_workload,
    run_load,
    sample_percentile,
)

__all__ = [
    "IndexSnapshot",
    "DominationService",
    "ServiceStats",
    "QUERY_KINDS",
    "REQUEST_KINDS",
    "SelectRequest",
    "MetricsRequest",
    "CoverageRequest",
    "MinTargetsRequest",
    "decode_request",
    "encode_request",
    "encode_response",
    "DominationHttpServer",
    "EndpointStats",
    "HttpServerHandle",
    "start_http_server",
    "LoadReport",
    "WorkloadQuery",
    "parse_workload",
    "run_load",
    "sample_percentile",
]
