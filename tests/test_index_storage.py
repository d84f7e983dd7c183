"""Storage backends for the flat walk index (DESIGN.md §13).

Covers the delta codec primitives (``pack_value_blocks`` /
``unpack_value_blocks``), the three storage classes' parity on real
indexes, the per-candidate decode path the gain engine uses on
compressed storage, and the canonical-order precondition.  Archive-level
behavior (persistence v3) lives in ``test_persistence.py``; the
end-to-end build/edit/solve/serve parity lives in the differential
harness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_fast import approx_greedy_fast
from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph, ring_graph, star_graph
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import as_format
from repro.walks.storage import (
    INDEX_FORMATS,
    CompressedStorage,
    pack_value_blocks,
    unpack_value_blocks,
    validate_index_format,
)


# ----------------------------------------------------------------------
# Codec primitives
# ----------------------------------------------------------------------
class TestPackUnpack:
    def _round_trip(self, values, counts, widths):
        values = np.asarray(values, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        words, wordptr = pack_value_blocks(values, counts, widths)
        blocks = np.arange(counts.size, dtype=np.int64)
        decoded = unpack_value_blocks(words, wordptr, widths, counts, blocks)
        np.testing.assert_array_equal(decoded, values)
        return words, wordptr

    def test_empty_stream(self):
        words, wordptr = self._round_trip([], [0, 0, 0], [0, 0, 0])
        assert wordptr.tolist() == [0, 0, 0, 0]
        assert words.tolist() == [0]  # just the pad word

    def test_width_zero_blocks_store_nothing(self):
        words, wordptr = self._round_trip([0, 0, 0], [3], [0])
        assert wordptr.tolist() == [0, 0]

    def test_singleton_blocks(self):
        self._round_trip([5, 0, 7], [1, 1, 1], [3, 0, 3])

    def test_word_boundary_spill(self):
        """Values straddling a 64-bit word boundary (width 7, 10 values
        puts value 9 at bits 63..69)."""
        values = [(i * 37) % 128 for i in range(10)]
        self._round_trip(values, [10], [7])

    def test_max_width_63(self):
        hi = (1 << 52) + 12345
        self._round_trip([hi, 0, hi - 1], [3], [53])

    def test_mixed_width_blocks(self):
        values = [3, 1, 2] + [100, 350] + [] + [0]
        self._round_trip(values, [3, 2, 0, 1], [2, 9, 0, 1])

    def test_subset_decode(self):
        values = np.asarray([1, 2, 3, 40, 50, 6], dtype=np.int64)
        counts = np.asarray([3, 2, 1], dtype=np.int64)
        widths = np.asarray([2, 6, 3], dtype=np.int64)
        words, wordptr = pack_value_blocks(values, counts, widths)
        got = unpack_value_blocks(
            words, wordptr, widths, counts, np.asarray([2, 0], dtype=np.int64)
        )
        np.testing.assert_array_equal(got, [6, 1, 2, 3])

    def test_negative_values_rejected(self):
        with pytest.raises(ParameterError):
            pack_value_blocks(
                np.asarray([-1], dtype=np.int64),
                np.asarray([1], dtype=np.int64),
                np.asarray([4], dtype=np.int64),
            )

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        num_blocks = data.draw(st.integers(0, 6))
        counts, values, widths = [], [], []
        for _ in range(num_blocks):
            # The codec's exact range is < 2**53 (frexp), so widths past
            # 52 cannot arise from in-range values.
            width = data.draw(st.integers(0, 52))
            count = data.draw(st.integers(0, 9))
            block = data.draw(
                st.lists(
                    st.integers(0, (1 << width) - 1 if width else 0),
                    min_size=count, max_size=count,
                )
            )
            widths.append(width)
            counts.append(count)
            values.extend(block)
        self._round_trip(values, counts or [0], widths or [0])


# ----------------------------------------------------------------------
# Storage classes on real indexes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def built():
    graph = power_law_graph(90, 300, seed=11)
    index = FlatWalkIndex.build(graph, 5, 6, seed=12)
    return graph, index


class TestStorageParity:
    def test_validate_index_format(self):
        for fmt in INDEX_FORMATS:
            assert validate_index_format(fmt) == fmt
        with pytest.raises(ParameterError):
            validate_index_format("sparse")

    def test_variants_hold_identical_entries(self, built):
        _, index = built
        for fmt in INDEX_FORMATS:
            variant = as_format(index, fmt)
            assert variant.storage_format == fmt
            np.testing.assert_array_equal(variant.indptr, index.indptr)
            np.testing.assert_array_equal(variant.state, index.state)
            np.testing.assert_array_equal(variant.hop, index.hop)
            assert variant.state.dtype == index.state.dtype
            assert variant.hop.dtype == index.hop.dtype

    def test_per_node_slices_agree(self, built):
        _, index = built
        compressed = index.compress()
        for node in range(index.num_nodes):
            ds, dh = index.entries_for(node)
            cs, ch = compressed.entries_for(node)
            np.testing.assert_array_equal(cs, ds)
            np.testing.assert_array_equal(ch, dh)

    def test_compression_shrinks_entry_bytes(self, built):
        _, index = built
        assert index.compress().storage_nbytes() < index.storage_nbytes()

    def test_densify_round_trip(self, built):
        _, index = built
        back = index.compress().densify()
        assert back.storage_format == "dense"
        np.testing.assert_array_equal(back.state, index.state)
        np.testing.assert_array_equal(back.hop, index.hop)

    def test_non_canonical_order_rejected(self):
        graph = ring_graph(8)
        index = FlatWalkIndex.build(graph, 3, 2, seed=1)
        state = index.state.copy()
        if state.size >= 2:
            # Swap two entries within the largest block.
            counts = np.diff(index.indptr)
            node = int(np.argmax(counts))
            lo = int(index.indptr[node])
            state[lo], state[lo + 1] = state[lo + 1], state[lo]
        with pytest.raises(ParameterError, match="canonical"):
            CompressedStorage.from_arrays(index.indptr, state, index.hop)

    def test_empty_index_compresses(self):
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder()
        builder.touch_node(5)
        index = FlatWalkIndex.build(builder.build(), 3, 2, seed=5)
        compressed = index.compress()
        assert compressed.total_entries == 0
        np.testing.assert_array_equal(compressed.state, index.state)
        star = FlatWalkIndex.build(star_graph(6), 2, 3, seed=6)
        np.testing.assert_array_equal(
            star.compress().state, star.state
        )


# ----------------------------------------------------------------------
# Gain engine on compressed storage
# ----------------------------------------------------------------------
class TestKernelOnCompressed:
    def test_selections_identical(self, built):
        graph, index = built
        reference = approx_greedy_fast(
            graph, 8, index.length, index=index, objective="f2",
        )
        for fmt in ("compressed", "mmap"):
            got = approx_greedy_fast(
                graph, 8, index.length, index=as_format(index, fmt),
                objective="f2",
            )
            assert got.selected == reference.selected, fmt
            assert got.gains == reference.gains, fmt

    def test_f1_objective_identical(self, built):
        graph, index = built
        reference = approx_greedy_fast(
            graph, 6, index.length, index=index, objective="f1"
        )
        got = approx_greedy_fast(
            graph, 6, index.length, index=index.compress(), objective="f1"
        )
        assert got.selected == reference.selected
        assert got.gains == reference.gains

