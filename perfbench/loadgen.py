"""Open-loop load generation for the ``served-mix`` workload.

Requests are due evenly, one every ``1 / rate`` seconds, whatever the
server does; the workload seed draws what each one asks.  Even spacing
keeps a solve from overlapping the next one's arrival, so the reported
latencies are those of the requests themselves, not of the coincidences a
Poisson schedule would add from seed to seed.  A small pool of keep-alive
connections takes the requests in due order; when every connection is
busy, the next request waits, and because each request is timed from its
due time, that wait counts in its latency.  How late the generator sent
each request is reported separately, so a generator that cannot keep up
is visible instead of silently lowering the offered load.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Request mix, as shares of all requests.  A repeat re-issues a request
#: sent between ``RECENT[0]`` and ``RECENT[1]`` places earlier: answered by
#: then, and still in the service's result cache.  Both reported order
#: statistics fall inside solves whose sizes are the same on every seed,
#: never among millisecond answers, whose latency is mostly the wake-up of
#: an idle server: cache hits, metrics and coverage are about a third of all
#: requests, so the median falls among the select misses, and the f1 selects
#: of the largest budgets, costlier than any min_targets, make up the tail.
SHARES = {"repeat": 0.25, "select": 0.57, "metrics": 0.05,
          "coverage": 0.05, "min_targets": 0.08}
RECENT = (8, 40)
BUDGETS = (1, 200)  # fresh select budgets k, evenly spread over this range
F1_EVERY = 5  # every fifth fresh select, in budget order, is f1; others f2
FRACTIONS = (0.10, 0.12)  # min_targets coverage fractions, evenly spread
TIMEOUT = 60.0  # seconds a connection waits for an answer


@dataclass(frozen=True)
class Request:
    """One query of the stream: ``POST /query/<kind>`` with ``body``."""

    kind: str
    body: tuple  # (field, value) pairs; values are JSON-ready

    @property
    def payload(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self.body}


def apportion(count: int) -> dict:
    """Requests per kind: the :data:`SHARES` of ``count``, adding up to it.

    Each kind gets its share rounded down; the requests left over go to
    the kinds with the largest remainders.
    """
    exact = {kind: share * count for kind, share in SHARES.items()}
    counts = {kind: math.floor(value) for kind, value in exact.items()}
    by_remainder = sorted(exact, key=lambda kind: counts[kind] - exact[kind])
    for kind in by_remainder[: count - sum(counts.values())]:
        counts[kind] += 1
    return counts


def _spread(bounds: tuple, count: int) -> np.ndarray:
    """``count`` values evenly spread over ``bounds``, ascending."""
    low, high = bounds
    return low + (high - low) * (np.arange(count) + 0.5) / count


def make_stream(
    seed: int, rate: float, seconds: float, num_nodes: int
) -> tuple[list[float], list[Request]]:
    """Due offsets (seconds) and requests of one run, drawn from ``seed``.

    ``round(rate * seconds)`` requests are due evenly, one every
    ``1 / rate`` seconds.
    Each kind gets its exact share of the count (:func:`apportion`), and
    select budgets and coverage fractions are evenly spread, so every
    seed sends the same fresh selects and min_targets; the seed draws
    their order, the metrics/coverage targets and what each repeat
    re-issues.  No repeat is placed among the first ``RECENT[0]``
    requests; a share that does not fit there becomes selects.
    """
    rng = np.random.default_rng(seed)
    count = max(1, round(rate * seconds))
    due = (np.arange(count) / rate).tolist()
    counts = apportion(count)
    slots = max(0, count - RECENT[0])
    repeats = min(counts["repeat"], slots)
    counts["select"] += counts.pop("repeat") - repeats
    repeat_at = set((RECENT[0] + rng.permutation(slots)[:repeats]).tolist())
    budgets = _spread(BUDGETS, counts["select"]).round().astype(int).tolist()
    selects = [
        (k, "f1" if i % F1_EVERY == F1_EVERY // 2 else "f2")
        for i, k in enumerate(budgets)
    ]
    fractions = _spread(FRACTIONS, counts["min_targets"]).round(4).tolist()
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    kinds = iter([kinds[i] for i in rng.permutation(len(kinds))])
    selects = iter([selects[i] for i in rng.permutation(len(selects))])
    fractions = iter([fractions[i] for i in rng.permutation(len(fractions))])
    requests: list[Request] = []
    for i in range(count):
        if i in repeat_at:
            low = max(0, i - RECENT[1])
            requests.append(requests[int(rng.integers(low, i - RECENT[0] + 1))])
            continue
        kind = next(kinds)
        if kind == "select":
            k, objective = next(selects)
            body = (("k", k), ("objective", objective))
        elif kind == "min_targets":
            body = (("fraction", next(fractions)),)
        else:
            size = int(rng.integers(5, 21))
            targets = np.sort(rng.choice(num_nodes, size=size, replace=False))
            body = (("targets", tuple(int(t) for t in targets)),)
        requests.append(Request(kind, body))
    return due, requests


@dataclass
class Outcome:
    """What happened to one request (times in seconds)."""

    status: int = 0  # 0: no HTTP answer (connection error)
    body: "dict | None" = None
    late: float = 0.0  # send time minus due time
    latency: float = 0.0  # answer time minus due time
    service: float = 0.0  # answer time minus send time


class HttpSender:
    """One keep-alive connection per generator thread."""

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._local = threading.local()

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self._host, self._port, timeout=TIMEOUT
            )
        return conn

    def __call__(self, request: Request) -> tuple[int, "dict | None"]:
        conn = self._conn()
        try:
            conn.request(
                "POST", f"/query/{request.kind}",
                body=json.dumps(request.payload),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self._local.conn = None
            return 0, None
        try:
            body = json.loads(data)
        except ValueError:
            body = None
        return response.status, body

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


def run_open_loop(
    due: list[float],
    requests: list,
    send,
    connections: int,
    lead: float = 0.05,
) -> list[Outcome]:
    """Send ``requests[i]`` at ``due[i]`` over ``connections`` threads.

    ``send(request) -> (status, body)`` is called on the connection's own
    thread.  Connections take requests in due order, so a stalled request
    delays the ones behind it, and their latency, timed from the due time,
    shows it.  Refuses more connections than the machine has processors:
    the generator then competes with itself for the processor.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= connections <= cpus:
        raise ValueError(
            f"{connections} connections requested; this machine has {cpus} "
            "processors (need 1 <= connections <= nproc)"
        )
    outcomes = [Outcome() for _ in requests]
    counter = itertools.count()
    start = time.perf_counter() + lead

    def worker() -> None:
        try:
            while True:
                i = next(counter)
                if i >= len(requests):
                    return
                due_at = start + due[i]
                wait = due_at - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, body = send(requests[i])
                done = time.perf_counter()
                outcomes[i] = Outcome(
                    status=status, body=body, late=sent - due_at,
                    latency=done - due_at, service=done - sent,
                )
        finally:
            close = getattr(send, "close", None)
            if close is not None:
                close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{c}", daemon=True)
        for c in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
