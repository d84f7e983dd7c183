"""Randomness discipline for the whole package.

Every stochastic public API in :mod:`repro` accepts a ``seed`` argument that
may be ``None`` (fresh OS entropy), an ``int`` (reproducible), or an existing
:class:`numpy.random.Generator` (caller-managed stream).  This module is the
single place that interprets that convention.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "resolve_rng",
    "spawn_children",
    "SeedLike",
]

SeedLike = "int | numpy.random.Generator | None"


def resolve_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Turn a seed-like value into a :class:`numpy.random.Generator`.

    ``None`` draws fresh entropy, an ``int`` seeds a PCG64 stream, and a
    ``Generator`` is returned unchanged (shared, not copied) so a caller can
    thread one stream through several calls.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ParameterError("integer seeds must be non-negative")
        return np.random.default_rng(int(seed))
    raise ParameterError(f"cannot interpret {type(seed).__name__} as a seed")


def spawn_children(
    seed: "int | np.random.Generator | None", count: int
) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Used where work is split into phases (e.g. one stream per replicate of
    the walk index) so that changing one phase's consumption pattern does not
    perturb the others.
    """
    if count < 0:
        raise ParameterError("count must be non-negative")
    return resolve_rng(seed).spawn(count)
