"""Sample statistics the benchmark reports."""

from __future__ import annotations

import math

#: A reported tail percentile needs at least this many samples beyond it.
BEYOND = 10


def median(values) -> float:
    """The lower median: always an observed sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    return ordered[(len(ordered) - 1) // 2]


def tail(values, q: float = 99.0) -> tuple[float, float]:
    """``(value, percentile)`` of the highest resolvable percentile <= ``q``.

    The reported percentile is the highest one, at most ``q``, with at
    least :data:`BEYOND` samples above it, and the value is an observed
    sample (nearest rank).  A sample too small for any such percentile
    reports its maximum as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    rank = min(rank, n - BEYOND)
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / n
