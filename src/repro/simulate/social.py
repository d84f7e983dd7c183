"""Social-browsing simulation — the paper's item-placement scenario.

Users find content by *social browsing*: starting from their own page they
follow social ties, viewing at most ``L`` pages per session (the paper's
L-length walk model of [17, 16]).  An item is placed on a set of hosting
users; a session *discovers* the item when it reaches any host — including
at hop 0, when the browsing user is itself a host.

:func:`simulate_social_browsing` runs one session per requested start and
reports the empirical discovery rate (the application-level reading of the
paper's EHN metric, Problem 2) and the mean hops to discovery among
successful sessions (the AHT reading, Problem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.weighted import WeightedDiGraph
from repro.hitting.transition import target_mask
from repro.simulate._walks import run_first_hits
from repro.walks.backends import WalkEngine
from repro.walks.rng import resolve_rng

__all__ = ["SocialBrowsingReport", "simulate_social_browsing"]

_START_MODES = ("uniform", "degree", "all")


@dataclass(frozen=True)
class SocialBrowsingReport:
    """Outcome of a social-browsing simulation.

    Attributes
    ----------
    num_sessions:
        Browsing sessions simulated.
    num_discoveries:
        Sessions that reached a hosting user within the hop budget.
    discovery_rate:
        ``num_discoveries / num_sessions`` (0 for an empty simulation).
    mean_hops_to_discovery:
        Average first-hit hop among discovering sessions; ``nan`` when no
        session discovered the item.
    mean_truncated_hops:
        Average of ``min(first hit, L)`` over *all* sessions — the direct
        empirical counterpart of the generalized hitting time ``h^L_uS``.
    length:
        Hop budget ``L`` per session.
    num_hosts:
        Size of the placement.
    """

    num_sessions: int
    num_discoveries: int
    discovery_rate: float
    mean_hops_to_discovery: float
    mean_truncated_hops: float
    length: int
    num_hosts: int


def _session_starts(
    graph: "Graph | WeightedDiGraph",
    num_sessions: int,
    start: str,
    rng: np.random.Generator,
) -> np.ndarray:
    if start not in _START_MODES:
        raise ParameterError(f"start must be one of {_START_MODES}")
    n = graph.num_nodes
    if start == "all":
        reps = max(1, num_sessions // max(n, 1))
        return np.tile(np.arange(n, dtype=np.int64), reps)
    if start == "uniform":
        return rng.integers(0, n, size=num_sessions)
    degrees = (
        graph.out_degrees if isinstance(graph, WeightedDiGraph)
        else graph.degrees
    ).astype(np.float64)
    total = degrees.sum()
    if total == 0:
        return rng.integers(0, n, size=num_sessions)
    return rng.choice(n, size=num_sessions, p=degrees / total)


def simulate_social_browsing(
    graph: "Graph | WeightedDiGraph",
    hosts: Collection[int],
    num_sessions: int = 10_000,
    length: int = 6,
    start: str = "uniform",
    seed: "int | np.random.Generator | None" = None,
    engine: "str | WalkEngine | None" = None,
) -> SocialBrowsingReport:
    """Simulate browsing sessions against an item placement.

    Parameters
    ----------
    graph:
        The social network — undirected, or a directed weighted trust
        network (:class:`WeightedDiGraph`), where a browsing user follows
        an out-edge with probability proportional to its weight.
    hosts:
        Users hosting the item (any iterable of node ids).
    num_sessions:
        Number of independent browsing sessions.  With ``start="all"`` the
        session count is rounded down to a whole number of passes over the
        node set (at least one).
    length:
        Hop budget ``L`` per session.
    start:
        Session-start distribution: ``"uniform"`` over users, ``"degree"``
        (active users browse more), or ``"all"`` (every user browses the
        same number of times — the paper's objective weighs every node
        equally, so this mode mirrors the objectives most closely).
    seed:
        Randomness control, package-wide convention.
    engine:
        Walk backend (:mod:`repro.walks.backends`); default ``"csr"``.
    """
    if num_sessions < 1:
        raise ParameterError("num_sessions must be >= 1")
    if length < 0:
        raise ParameterError("length must be >= 0")
    mask = target_mask(graph.num_nodes, hosts)
    rng = resolve_rng(seed)
    starts = _session_starts(graph, num_sessions, start, rng)
    first = run_first_hits(graph, starts, length, mask, rng, engine=engine)
    discovered = first >= 0
    num_discoveries = int(discovered.sum())
    truncated = np.where(discovered, first, length).astype(np.float64)
    mean_hops = (
        float(first[discovered].mean()) if num_discoveries else float("nan")
    )
    return SocialBrowsingReport(
        num_sessions=int(starts.size),
        num_discoveries=num_discoveries,
        discovery_rate=num_discoveries / starts.size,
        mean_hops_to_discovery=mean_hops,
        mean_truncated_hops=float(truncated.mean()),
        length=length,
        num_hosts=int(mask.sum()),
    )
