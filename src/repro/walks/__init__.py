"""Random-walk machinery: kernels, pluggable backends, RNG discipline,
inverted index, estimators (DESIGN.md §2-§3)."""

from repro.walks.engine import (
    batch_first_hits,
    batch_walks,
    first_hit_time,
    random_walk,
    walk_is_valid,
)
from repro.walks.estimators import (
    ObjectiveEstimates,
    estimate_f1,
    estimate_f2,
    estimate_hit_probability,
    estimate_hitting_time,
    estimate_objectives,
    estimate_pairwise_hitting_time,
)
from repro.walks.index import (
    FlatWalkIndex,
    IndexEntry,
    InvertedIndex,
    walker_major_starts,
)
from repro.walks.alias import (
    AliasSampler,
    weighted_batch_walks,
    weighted_random_walk,
)
from repro.walks.backends import (
    CSRWalkEngine,
    DEFAULT_ENGINE,
    NumpyWalkEngine,
    WalkEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.walks.persistence import load_index, save_index
from repro.walks.rng import resolve_rng, spawn_children

__all__ = [
    "batch_first_hits",
    "batch_walks",
    "first_hit_time",
    "random_walk",
    "walk_is_valid",
    "ObjectiveEstimates",
    "estimate_f1",
    "estimate_f2",
    "estimate_hit_probability",
    "estimate_hitting_time",
    "estimate_objectives",
    "estimate_pairwise_hitting_time",
    "FlatWalkIndex",
    "IndexEntry",
    "InvertedIndex",
    "walker_major_starts",
    "load_index",
    "save_index",
    "resolve_rng",
    "spawn_children",
    "AliasSampler",
    "weighted_batch_walks",
    "weighted_random_walk",
    "WalkEngine",
    "NumpyWalkEngine",
    "CSRWalkEngine",
    "DEFAULT_ENGINE",
    "available_engines",
    "get_engine",
    "register_engine",
]
