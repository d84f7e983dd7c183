"""Monte-Carlo estimators of Algorithm 2 and Lemmas 3.1/3.2.

Given a target set ``S``, the paper estimates the generalized hitting time
``h^L_uS`` by running ``R`` independent L-length walks from ``u``:

    ``hhat = (sum of first-hit hops over the r hitting walks + (R - r) L) / R``
    (Eq. 9 — unbiased, Lemma 3.1)

and the hit probability ``E[X^L_uS]`` by the hit fraction ``r / R``
(Eq. 10 — unbiased, Lemma 3.2).  Algorithm 2 aggregates these into unbiased
estimators of the two objectives:

    ``F1(S) = n * L - sum_u hhat_uS``             (lines 12, 14)
    ``F2(S) = sum_{u not in S} r_u / R + |S|``    (lines 13, 15)

Note one deliberate deviation: the paper's Algorithm 2 line 14 normalizes
``F1`` with ``|V \\ S| * L`` while its own Eq. 6 and Theorem 3.1 use
``n * L``.  The two differ by the constant ``|S| * L``, which affects no
argmax and no metric; we follow Eq. 6 so the estimator is consistent with
the exact :class:`repro.core.objectives.F1Objective`.

Everything below runs on a pluggable walk backend (``engine=``, see
:mod:`repro.walks.backends`; the default is the csr engine, bit-identical
to the numpy gather loop of :func:`repro.walks.engine.batch_walks`) and is
chunked so that the paper's metric-evaluation setting (R = 500 on the
larger datasets) stays within memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.backends import WalkEngine, get_engine
from repro.walks.rng import resolve_rng

__all__ = [
    "ObjectiveEstimates",
    "estimate_hitting_time",
    "estimate_hit_probability",
    "estimate_pairwise_hitting_time",
    "estimate_objectives",
    "estimate_f1",
    "estimate_f2",
]


@dataclass(frozen=True)
class ObjectiveEstimates:
    """Joint output of Algorithm 2 for one target set."""

    f1: float
    f2: float
    num_samples: int
    length: int


def _target_mask(graph: Graph, targets: Collection[int]) -> np.ndarray:
    mask = np.zeros(graph.num_nodes, dtype=bool)
    idx = np.fromiter((int(v) for v in targets), dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= graph.num_nodes:
            raise ParameterError("target nodes out of range")
        mask[idx] = True
    return mask


def _check_common(length: int, num_samples: int) -> None:
    if length < 0:
        raise ParameterError("walk length L must be >= 0")
    if num_samples < 1:
        raise ParameterError("num_samples R must be >= 1")


def _per_source_stats(
    graph: Graph,
    sources: np.ndarray,
    mask: np.ndarray,
    length: int,
    num_samples: int,
    rng: np.random.Generator,
    chunk_rows: int = 1 << 19,
    engine: "WalkEngine | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """For each source: (number of hitting walks r, total first-hit hops t).

    Sources inside ``S`` hit at hop 0 by definition; the mask lookup handles
    that uniformly.  ``engine`` must be a resolved backend; its fused
    first-hit path lets the CSR backend skip materializing the walk matrix.
    """
    if engine is None:
        engine = get_engine(None)
    starts = np.repeat(sources, num_samples)
    r = np.zeros(sources.size, dtype=np.int64)
    t = np.zeros(sources.size, dtype=np.int64)
    for lo in range(0, starts.size, chunk_rows):
        rows = starts[lo : lo + chunk_rows]
        hits = engine.walk_first_hits(graph, rows, length, mask, seed=rng)
        src_pos = (np.arange(lo, lo + rows.size) // num_samples).astype(np.int64)
        hit_mask = hits >= 0
        np.add.at(r, src_pos[hit_mask], 1)
        np.add.at(t, src_pos[hit_mask], hits[hit_mask])
    return r, t


def estimate_hitting_time(
    graph: Graph,
    source: int,
    targets: Collection[int],
    length: int,
    num_samples: int,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> float:
    """Unbiased estimate of the generalized hitting time ``h^L_uS`` (Eq. 9)."""
    _check_common(length, num_samples)
    mask = _target_mask(graph, targets)
    rng = resolve_rng(seed)
    r, t = _per_source_stats(
        graph, np.asarray([source], dtype=np.int64), mask, length, num_samples,
        rng, engine=get_engine(engine),
    )
    return float((t[0] + (num_samples - r[0]) * length) / num_samples)


def estimate_hit_probability(
    graph: Graph,
    source: int,
    targets: Collection[int],
    length: int,
    num_samples: int,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> float:
    """Unbiased estimate of ``E[X^L_uS] = p^L_uS`` (Eq. 10)."""
    _check_common(length, num_samples)
    mask = _target_mask(graph, targets)
    rng = resolve_rng(seed)
    r, _ = _per_source_stats(
        graph, np.asarray([source], dtype=np.int64), mask, length, num_samples,
        rng, engine=get_engine(engine),
    )
    return float(r[0] / num_samples)


def estimate_pairwise_hitting_time(
    graph: Graph,
    source: int,
    target: int,
    length: int,
    num_samples: int,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> float:
    """Estimate of the node-to-node hitting time ``h^L_uv`` (Eq. 1).

    The special case ``S = {v}`` of Eq. 9 — the estimator of Sarkar et
    al. [30] that the paper generalizes.
    """
    return estimate_hitting_time(
        graph, source, [target], length, num_samples, seed=seed, engine=engine
    )


def estimate_objectives(
    graph: Graph,
    targets: Collection[int],
    length: int,
    num_samples: int,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> ObjectiveEstimates:
    """Algorithm 2: unbiased estimates of ``F1(S)`` and ``F2(S)`` together."""
    _check_common(length, num_samples)
    mask = _target_mask(graph, targets)
    rng = resolve_rng(seed)
    outside = np.flatnonzero(~mask)
    if outside.size == 0:
        # S = V: every hitting time is 0, every node hits.
        return ObjectiveEstimates(
            f1=float(graph.num_nodes * length),
            f2=float(mask.sum()),
            num_samples=num_samples,
            length=length,
        )
    r, t = _per_source_stats(
        graph, outside, mask, length, num_samples, rng,
        engine=get_engine(engine),
    )
    r_sum, t_sum = int(r.sum()), int(t.sum())
    # hhat per source, Eq. 9; aggregation per Algorithm 2 lines 12/14, with
    # the Eq. 6 normalization n*L (see module docstring).
    hhat_total = float(t_sum + (num_samples * outside.size - r_sum) * length)
    hhat_total /= num_samples
    f1 = graph.num_nodes * length - hhat_total
    # lines 13/15.
    f2 = float(r_sum / num_samples + mask.sum())
    return ObjectiveEstimates(
        f1=f1, f2=f2, num_samples=num_samples, length=length
    )


def estimate_f1(
    graph: Graph,
    targets: Collection[int],
    length: int,
    num_samples: int,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> float:
    """Unbiased estimate of ``F1(S) = |V\\S| L - sum h^L_uS``."""
    return estimate_objectives(
        graph, targets, length, num_samples, seed=seed, engine=engine
    ).f1


def estimate_f2(
    graph: Graph,
    targets: Collection[int],
    length: int,
    num_samples: int,
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> float:
    """Unbiased estimate of ``F2(S) = E[sum_u X^L_uS]``."""
    return estimate_objectives(
        graph, targets, length, num_samples, seed=seed, engine=engine
    ).f2
