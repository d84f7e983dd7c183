"""Exactness of the narrow gain state against the int64 formulas.

:class:`~repro.core.approx_fast.FastApproxEngine` keeps ``D`` as ``int16``
distances (f1) or ``uint8`` flags (f2) and finishes every kernel in place.
:class:`Int64Oracle` below keeps the plain ``int64`` formulas the engine
used before it narrowed: widen every gathered cell, subtract, clamp, sum.
Both must agree exactly — sweeps fresh and after each pick, ``gain_of``
for every node, the ``D`` matrix after each ``select``, and whole greedy
runs, lazy and full — on built indexes and on hand-built ones whose
stored hops are negative, above ``L``, or at the ``int16`` limits
(``load_index`` checks structure, not hop values).  One hit node with
more than 65,536 entries of an extreme hop makes the opening f1 sweep's
``int32`` accumulator rule fall back to ``int64``.

The pinned cases run in the fast lane; a hypothesis property over
random hand-built indexes runs in the slow lane.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_fast import FastApproxEngine
from repro.core.greedy import run_greedy
from repro.graphs.generators import power_law_graph
from repro.walks.index import FlatWalkIndex
from repro.walks.records import MAX_WALK_LENGTH

INT16_MIN = int(np.iinfo(np.int16).min)
INT16_MAX = int(np.iinfo(np.int16).max)
INT32_MAX = int(np.iinfo(np.int32).max)


class Int64Oracle:
    """The int64 gain formulas, as a greedy-driver engine."""

    def __init__(self, index: FlatWalkIndex, objective: str):
        self.index = index
        self.objective = objective
        fill = index.length if objective == "f1" else 0
        self.d = np.full(
            index.num_nodes * index.num_replicates, fill, dtype=np.int64
        )
        self.selected: list[int] = []
        self.gains: list[float] = []
        self.num_gain_evaluations = 0

    def _own(self, node):
        return self.d[node :: self.index.num_nodes]

    def gains_all(self) -> np.ndarray:
        index = self.index
        r, n = index.num_replicates, index.num_nodes
        cells = self.d[index.state]
        if self.objective == "f1":
            contrib = np.maximum(cells - index.hop.astype(np.int64), 0)
            base = self.d.reshape(r, n).sum(axis=0)
        else:
            contrib = 1 - cells
            base = r - self.d.reshape(r, n).sum(axis=0)
        running = np.zeros(contrib.size + 1, dtype=np.int64)
        np.cumsum(contrib, out=running[1:])
        self.num_gain_evaluations += n
        return base + running[index.indptr[1:]] - running[index.indptr[:-1]]

    def gain_of(self, node: int) -> int:
        state, hop = self.index.entries_for(node)
        cells = self.d[state]
        self.num_gain_evaluations += 1
        if self.objective == "f1":
            contrib = np.maximum(cells - hop.astype(np.int64), 0)
            return int(self._own(node).sum()) + int(contrib.sum())
        own = self.index.num_replicates - int(self._own(node).sum())
        return own + int((1 - cells).sum())

    def select(self, node: int, gain=None) -> None:
        state, hop = self.index.entries_for(node)
        if self.objective == "f1":
            self._own(node)[:] = 0
            self.d[state] = np.minimum(self.d[state], hop.astype(np.int64))
        else:
            self._own(node)[:] = 1
            self.d[state] = 1
        self.selected.append(int(node))
        self.gains.append(float(gain) / self.index.num_replicates)


def hand_built(num_nodes, num_replicates, length, hop_of, keep=None):
    """A canonical-order index with hops ``hop_of(hit, states)``.

    Hit node ``hit`` holds an entry for each state ``keep(hit, states)``
    accepts (every state by default) except its own walks' states: a walk
    never records its start node.
    """
    every = np.arange(num_nodes * num_replicates)
    states, hops = [], []
    for hit in range(num_nodes):
        mask = every % num_nodes != hit
        if keep is not None:
            mask &= keep(hit, every)
        states.append(every[mask])
        hops.append(np.asarray(hop_of(hit, every[mask]), dtype=np.int64))
    hop = np.concatenate(hops)
    assert ((INT16_MIN <= hop) & (hop <= INT16_MAX)).all()
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum([chunk.size for chunk in states], out=indptr[1:])
    return FlatWalkIndex(
        indptr=indptr,
        state=np.concatenate(states).astype(np.int32),
        hop=hop.astype(np.int16),
        num_nodes=num_nodes,
        length=length,
        num_replicates=num_replicates,
    )


def _extreme_hops(hit, states):
    """Hops spread over the int16 range: negative, 0, around L, limits."""
    values = np.array([INT16_MIN, -7, -1, 0, 1, 2, 3, 4, 9, INT16_MAX])
    return values[(3 * hit + 5 * states) % values.size]


@lru_cache(maxsize=2)
def _hub_index(length, hub_hop):
    """n = 700, R = 100: hit node 3 holds an entry of ``hub_hop`` from
    every walk but its own (69,900 entries, past 65,536), so its hop sum
    overflows int32; the other nodes hold a sparse sprinkle."""
    def keep(hit, states):
        return (hit == 3) | ((hit * 7919 + states) % 2801 == 0)

    def hop_of(hit, states):
        if hit == 3:
            return np.full(states.size, hub_hop)
        return 1 + (hit + states) % max(length, 1)

    return hand_built(700, 100, length, hop_of, keep)


#: Index builders for the pinned checks, by case name.
INDEXES = {
    "built": lambda: FlatWalkIndex.build(
        power_law_graph(60, 240, seed=4), 5, 6, seed=9
    ),
    "built_length_zero": lambda: FlatWalkIndex.build(
        power_law_graph(20, 60, seed=2), 0, 3, seed=1
    ),
    "extreme_hops": lambda: hand_built(9, 3, 4, _extreme_hops),
    "max_length": lambda: hand_built(
        8, 2, MAX_WALK_LENGTH, _extreme_hops,
        keep=lambda hit, states: (hit + states) % 3 != 0,
    ),
    "hub_min_hop": lambda: _hub_index(10, INT16_MIN),
    "hub_max_hop_max_length": lambda: _hub_index(MAX_WALK_LENGTH, INT16_MAX),
}


def assert_agrees_with_oracle(index, objective, picks):
    """Sweeps, ``gain_of`` of every node and ``D`` agree after each pick."""
    engine = FastApproxEngine(index, objective)
    oracle = Int64Oracle(index, objective)
    narrow = np.int16 if objective == "f1" else np.uint8
    assert engine.d.dtype == narrow
    nodes = range(index.num_nodes)
    for node in [None, *picks]:
        if node is not None:
            engine.select(node, 0)
            oracle.select(node, 0)
        matrix = engine.distance_matrix()
        assert matrix.dtype == narrow
        np.testing.assert_array_equal(
            matrix, oracle.d.reshape(index.num_replicates, index.num_nodes)
        )
        sweep = engine.gains_all()
        assert sweep.dtype == np.int64
        np.testing.assert_array_equal(sweep, oracle.gains_all())
        singles = [engine.gain_of(u) for u in nodes]
        assert all(type(value) is int for value in singles)
        assert singles == [oracle.gain_of(u) for u in nodes]


def assert_greedy_agrees(index, objective, k, lazy_equals_full=True):
    """Lazy and full runs equal the oracle's, and each other.

    CELF equals the full sweep when the sampled objective is a coverage
    function.  A negative stored hop breaks that for f1: selecting a node
    raises its own walks' cells from a negative value to 0, so its gain
    can be negative and the two orders may differ (in the oracle too);
    callers pass ``lazy_equals_full=False`` for such indexes.
    """
    runs = []
    for lazy in (True, False):
        engine = FastApproxEngine(index, objective)
        engine.run(k, lazy=lazy)
        oracle = Int64Oracle(index, objective)
        run_greedy(oracle, k, lazy=lazy)
        assert engine.selected == oracle.selected
        assert engine.gains == oracle.gains
        assert engine.num_gain_evaluations == oracle.num_gain_evaluations
        runs.append((engine.selected, engine.gains))
    if lazy_equals_full:
        assert runs[0] == runs[1]


@pytest.mark.parametrize("case", sorted(INDEXES))
@pytest.mark.parametrize("objective", ["f1", "f2"])
def test_narrow_kernels_match_int64_formulas(objective, case):
    index = INDEXES[case]()
    k = min(4, index.num_nodes)
    oracle = Int64Oracle(index, objective)
    run_greedy(oracle, k)
    assert_agrees_with_oracle(index, objective, oracle.selected)
    assert_greedy_agrees(index, objective, k)


@pytest.mark.parametrize("length, hub_hop", [(10, INT16_MIN), (INT16_MAX, INT16_MAX)])
def test_hub_sum_overflows_int32(length, hub_hop):
    # The pinned hub cases only test the opening sweep's int64 fallback
    # if an int32 accumulator would really overflow on the hub's slice.
    index = _hub_index(length, hub_hop)
    counts = np.diff(index.indptr)
    assert counts[3] > 65_536
    clamped = np.minimum(index.entries_for(3)[1].astype(np.int64), length)
    assert abs(int(clamped.sum())) > INT32_MAX


# ----------------------------------------------------------------------
# Slow lane: random hand-built indexes.
# ----------------------------------------------------------------------
_EDGE_HOPS = (INT16_MIN, INT16_MIN + 1, -2, -1, 0, 1, 2, INT16_MAX - 1, INT16_MAX)


@st.composite
def hand_built_indexes(draw):
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, 3))
    length = draw(st.sampled_from([0, 1, 2, 3, 6, MAX_WALK_LENGTH]))
    pairs = [
        (hit, state)
        for hit in range(n)
        for state in range(n * r)
        if state % n != hit
    ]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    hop = st.one_of(
        st.sampled_from(_EDGE_HOPS + (length, length + 1)).filter(
            lambda h: INT16_MIN <= h <= INT16_MAX
        ),
        st.integers(INT16_MIN, INT16_MAX),
        st.integers(0, length + 1).filter(lambda h: h <= INT16_MAX),
    )
    hops = {pair: draw(hop) for pair, keep in zip(pairs, kept) if keep}
    return hand_built(
        n, r, length,
        lambda hit, states: [hops[(hit, s)] for s in states.tolist()],
        keep=lambda hit, states: np.array(
            [(hit, s) in hops for s in states.tolist()], dtype=bool
        ),
    )


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(
    index=hand_built_indexes(),
    objective=st.sampled_from(["f1", "f2"]),
    data=st.data(),
)
def test_narrow_kernels_match_int64_formulas_property(index, objective, data):
    n = index.num_nodes
    picks = data.draw(st.permutations(range(n)).map(lambda p: p[: min(3, n)]))
    assert_agrees_with_oracle(index, objective, list(picks))
    assert_greedy_agrees(
        index, objective, data.draw(st.integers(0, n)),
        lazy_equals_full=objective == "f2" or bool((index.hop >= 0).all()),
    )
