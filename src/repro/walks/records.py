"""The first-visit record format every index builder shares.

Algorithm 3 reduces a batch of walks to *first-visit records*: one
record per position whose node differs from every earlier position of
its walk, naming the node hit, the walk's flattened ``D`` state and the
hop.  Each record travels as one packed ``int64`` (:class:`RecordPacker`:
``hit · (nR << b) + (state << b) | hop``) from the moment it is
extracted: :func:`first_visit_records` emits the packed records of a
block of walks, which is exactly what the canonical sort consumes, so
no builder ever holds a ``(hit, state, hop)`` triple, and once sorted
they give each node's offsets by binary search
(:meth:`RecordPacker.indptr`), so nothing counts them per node.  This
module owns that format end to end — the extraction, the canonical
sort key (:func:`canonical_record_key`), the hop-width cap
(:data:`MAX_WALK_LENGTH`) and the packer — so the static, out-of-core,
weighted and dynamic builders can never disagree on it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "first_visit_records",
    "canonical_record_key",
    "MAX_WALK_LENGTH",
    "RecordPacker",
]


#: Walk rows per extraction block: a block's hop columns, first-visit
#: mask rows and packing scratch stay in cache.
_EXTRACT_BLOCK = 1 << 16

#: Walk positions per block of the per-node scan: its ``(rows, L)``
#: compare buffers stay at 1 MiB of flags and 4 MiB of hops.
_SCAN_POSITIONS = 1 << 20


def first_visit_records(
    walks: np.ndarray,
    states: np.ndarray,
    packer: "RecordPacker",
    out: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Packed first-visit records of a block of walks, and per-hop counts.

    The Algorithm-3 extraction shared by the walk engines'
    :meth:`~repro.walks.backends.WalkEngine.iter_walk_records` (the static
    and out-of-core builders), ``FlatWalkIndex.from_walks``, the weighted
    builder and the dynamic builder (:mod:`repro.dynamic.index`): a
    position is a record iff its node differs from every earlier position
    of the walk.  ``walks`` is ``(B, L+1)`` and ``states[b]`` is row
    ``b``'s flattened ``D`` index.  Returns ``(packed, hop_counts)``:
    ``packed`` holds one :class:`RecordPacker` ``int64`` per record, in
    no particular order (the canonical sort orders them), and
    ``hop_counts[h - 1]`` is how many of them are at hop ``h``.  Nothing
    is counted per node: the assemblers read each node's offsets off the
    sorted records (:meth:`RecordPacker.indptr`).  When the records fit
    the ``int64`` array ``out`` (a record sink's vacant buffer space,
    :meth:`~repro.walks.build.ExternalSortSink.vacant`), ``packed`` is
    its leading slice; otherwise it is a fresh array of exactly their
    number.

    Two passes over blocks of ``2**16`` rows, so each block's hop
    columns stay in cache.  The first fills an ``(L, B)`` first-visit
    mask, which sizes the output exactly: by comparing each hop column
    with every earlier one, or, when the graph has far fewer nodes than
    the walks have hops (:func:`_scan_by_node`), by one scan per node
    that marks each row's first hop on it.  The second packs each hop's
    whole block column — ``hit · (nR << b) + (state << b) | hop`` — into
    one block-sized ``int64`` scratch with contiguous arithmetic, and
    ``np.compress`` copies its first visits into the output.  The hop
    columns are read contiguously (a csr walk matrix is already a
    transposed view of hop rows; a row-major one takes one transposed
    copy) and compared in the walks' own dtype; the hits are widened
    inside the ``int64`` multiply.  Hops come from the loop index, so
    the one range check is that the walks have at most
    ``packer.length`` hops (:class:`~repro.errors.ParameterError`
    otherwise).
    """
    length = walks.shape[1] - 1
    if length > packer.length:
        raise ParameterError(
            f"walks have {length} hops, more than the packer's "
            f"L={packer.length}"
        )
    columns = np.ascontiguousarray(walks.T)
    batch = columns.shape[1]
    # Pass 1: the first-visit mask, one row per hop; it sizes the output.
    fresh = np.empty((length, batch), dtype=bool)
    if _scan_by_node(packer.num_nodes, length):
        _first_visits_by_node(columns, fresh, packer.num_nodes)
    else:
        _first_visits_pairwise(columns, fresh)
    total = int(np.count_nonzero(fresh))
    if out is not None and out.size >= total:
        packed = out[:total]
    else:
        packed = np.empty(total, dtype=np.int64)
    # Pass 2: pack each block's hop columns whole, keep the first visits.
    hop_counts = np.zeros(length, dtype=np.int64)
    stride = np.int64(packer.num_states << packer.hop_bits)
    size = min(batch, _EXTRACT_BLOCK)
    value_block = np.empty(size, dtype=np.int64)
    base_block = np.empty(size, dtype=np.int64)
    at = 0
    for lo in range(0, batch, _EXTRACT_BLOCK):
        hi = min(lo + _EXTRACT_BLOCK, batch)
        value, base = value_block[: hi - lo], base_block[: hi - lo]
        np.left_shift(states[lo:hi], packer.hop_bits, out=base, dtype=np.int64)
        for hop in range(1, length + 1):
            mask = fresh[hop - 1, lo:hi]
            count = int(np.count_nonzero(mask))
            if not count:
                continue
            np.multiply(columns[hop, lo:hi], stride, out=value, dtype=np.int64)
            value += base
            value |= hop
            np.compress(mask, value, out=packed[at : at + count])
            at += count
            hop_counts[hop - 1] += count
    return packed, hop_counts


def _scan_by_node(num_nodes: int, length: int) -> bool:
    """Whether :func:`_first_visits_by_node` fills the mask faster.

    Measured per walk row on 10^5 random rows (DESIGN.md §15.1): the
    pairwise compares cost about ``0.12 L**2`` ns and the per-node scan
    about ``n (20 + 0.42 L)`` ns, so the scan wins once ``L**2`` exceeds
    about ``4 n (L + 48)``; for ``L <= 16`` it never does.
    """
    return 4 * num_nodes * (length + 48) < length * length


def _first_visits_pairwise(columns: np.ndarray, fresh: np.ndarray) -> None:
    """Fill ``fresh[h - 1]`` with "hop ``h`` differs from every earlier
    position", comparing the hop columns pairwise, block by block."""
    length, batch = fresh.shape
    differs_block = np.empty(min(batch, _EXTRACT_BLOCK), dtype=bool)
    for lo in range(0, batch, _EXTRACT_BLOCK):
        hi = min(lo + _EXTRACT_BLOCK, batch)
        block = columns[:, lo:hi]
        differs = differs_block[: hi - lo]
        for hop in range(1, length + 1):
            mask = fresh[hop - 1, lo:hi]
            np.not_equal(block[hop], block[0], out=mask)
            for prev in range(1, hop):
                np.not_equal(block[hop], block[prev], out=differs)
                mask &= differs


def _first_visits_by_node(
    columns: np.ndarray, fresh: np.ndarray, num_nodes: int
) -> None:
    """Fill the same mask as :func:`_first_visits_pairwise` by one scan
    per node: a row's first hop on ``v`` is a first visit unless the row
    starts at ``v``.  ``O(n L)`` compares per row instead of
    ``O(L**2)``."""
    length, batch = fresh.shape
    if length == 0:
        return
    step = max(1, _SCAN_POSITIONS // length)
    for lo in range(0, batch, step):
        hi = min(lo + step, batch)
        hops = np.ascontiguousarray(columns[1:, lo:hi].T)
        starts = columns[0, lo:hi]
        row_starts = np.arange(0, hops.size, length)
        marks = np.zeros(hops.shape, dtype=bool)
        on_node = np.empty(hops.shape, dtype=bool)
        for node in range(num_nodes):
            np.equal(hops, node, out=on_node)
            # Flat position of each row's first hop on ``node`` (its
            # hop 1 when the row never visits it).
            first = on_node.argmax(axis=1)
            first += row_starts
            hit = on_node.reshape(-1).take(first)
            hit &= starts != node
            marks.reshape(-1)[first[hit]] = True
        fresh[:, lo:hi] = marks.T


def canonical_record_key(
    hits: np.ndarray, states: np.ndarray, num_states: int
) -> np.ndarray:
    """The canonical ``hit * num_states + state`` sort key, as ``int64``.

    States are unique within one hit node's records (first-visit dedup),
    so the key is a strict total order over any record set — the one
    every builder sorts by, in-memory (``FlatWalkIndex._from_records``)
    and out-of-core (:mod:`repro.walks.build`) alike, kept in one place
    so the two can never disagree.  Both operands are forced to
    ``int64`` *before* the multiply: under NEP 50 (numpy >= 2) and under
    1.x value-based casting alike, ``int32_array * python_int`` stays
    ``int32`` whenever the scalar fits, so int32 inputs would wrap
    silently once ``hit * n * R`` crosses 2^31 — reordering entries
    instead of crashing.  Keys are decodable: ``hit = key // num_states``
    and ``state = key % num_states`` (states are ``< num_states`` by
    construction), which is what lets :class:`RecordPacker` carry a whole
    record in one ``int64``.
    """
    keys = np.multiply(hits, np.int64(num_states), dtype=np.int64)
    keys += states
    return keys


#: The longest walk an index can hold: every builder stores hops as int16.
MAX_WALK_LENGTH = int(np.iinfo(np.int16).max)


class RecordPacker:
    """One first-visit record as one sortable ``int64``: ``key << b | hop``.

    ``key`` is :func:`canonical_record_key` and the low ``b =
    L.bit_length()`` bits hold the hop.  Keys are unique and hops are
    ``< 2**b``, so sorting the packed *values* orders records exactly as
    sorting by key — an in-place SIMD value sort instead of an argsort
    plus one gather per column — and every assembler (the external
    sorter's buffer, spill runs and merge; ``FlatWalkIndex._from_records``;
    the dynamic index) shares this one format.  A mask reads the hop
    back, a shift the key, and ``key % num_states`` the state
    (:meth:`decode`, :meth:`decode_into`), and a binary search of the
    sorted records each node's offsets (:meth:`indptr`).
    :func:`first_visit_records` packs as it extracts; :meth:`pack` packs
    record triples that come from elsewhere (the paper-oracle
    conversion, tests).

    The constructor is the range check: the largest packed record,
    ``(n * n R << b) - 1``, must fit ``int64`` and ``L`` must fit the
    int16 hop column, else :class:`~repro.errors.ParameterError`.  No
    buildable instance reaches the int64 bound — 10^6 nodes at R=100
    fit at every valid ``L`` — so there is no fallback format.
    """

    def __init__(self, num_nodes: int, num_replicates: int, length: int):
        if not 0 <= length <= MAX_WALK_LENGTH:
            raise ParameterError(
                f"walk length L={length} outside [0, {MAX_WALK_LENGTH}] "
                "(hops are stored as int16)"
            )
        num_states = int(num_nodes) * int(num_replicates)
        bits = int(length).bit_length()
        if (int(num_nodes) * num_states) << bits > 1 << 63:
            raise ParameterError(
                f"walk records of n={num_nodes}, R={num_replicates}, "
                f"L={length} do not pack into int64 (needs "
                f"n * n * R * 2**{bits} <= 2**63)"
            )
        self.num_nodes = int(num_nodes)
        self.num_states = num_states
        self.length = int(length)
        self.hop_bits = bits

    def check_hops(self, hops: np.ndarray) -> None:
        """Raise unless every hop lies in ``[0, L]``.

        A hop past ``L`` would spill into the key bits and a negative
        one would set them all, silently reordering records.
        """
        if hops.size == 0:
            return
        low, high = int(hops.min()), int(hops.max())
        if low < 0 or high > self.length:
            raise ParameterError(
                f"record hops must lie in [0, L={self.length}] "
                f"(got {low}..{high})"
            )

    def pack(
        self, hits: np.ndarray, states: np.ndarray, hops: np.ndarray
    ) -> np.ndarray:
        """A fresh ``int64`` array of packed records.

        ``hops`` must lie in ``[0, L]`` (:meth:`check_hops` raises
        otherwise) and ``states`` in ``[0, n R)``.
        """
        self.check_hops(hops)
        packed = canonical_record_key(hits, states, self.num_states)
        packed <<= self.hop_bits
        packed |= hops
        return packed

    def decode(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, int16 hops)``, shifting ``packed`` into the keys in place."""
        hops = np.empty(packed.size, dtype=np.int16)
        np.bitwise_and(
            packed, (1 << self.hop_bits) - 1, out=hops, casting="unsafe"
        )
        packed >>= self.hop_bits
        return packed, hops

    def decode_into(
        self,
        packed: np.ndarray,
        state: np.ndarray,
        hop: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Write each record's state and hop into ``state`` and ``hop``.

        The index writers' decode, one block at a time: the hop is the
        low bits, narrowed into the ``int16`` column, and the state the
        key's remainder by ``n R``, narrowed into the ``int32``/``int64``
        column (values fit by range); the hit is implied by the
        position.  The remainder is taken as ``key - (key // n R) * n R``
        because numpy divides by a scalar through a precomputed multiply,
        which it does not do for ``%``: the three passes run faster than
        the one ``%``.  ``state`` and ``hop`` have ``packed``'s length;
        ``scratch`` is ``int64`` with two rows at least that long.
        """
        size = packed.size
        keys, quotients = scratch[0, :size], scratch[1, :size]
        np.bitwise_and(
            packed, (1 << self.hop_bits) - 1, out=hop, casting="unsafe"
        )
        np.right_shift(packed, self.hop_bits, out=keys)
        np.floor_divide(keys, self.num_states, out=quotients)
        quotients *= self.num_states
        np.subtract(keys, quotients, out=state, casting="unsafe")

    def indptr(self, packed: np.ndarray) -> np.ndarray:
        """The ``int64`` ``indptr`` of the value-sorted records ``packed``.

        Hit ``v``'s records start at the first value ``>= v · (nR << b)``,
        so ``n - 1`` binary searches give every node's offset.  Only
        ``v <= n - 1`` is multiplied out: the packer accepts ``(n · nR)
        << b == 2**63``, where the product for ``v = n`` would wrap.
        """
        num_nodes = self.num_nodes
        indptr = np.empty(num_nodes + 1, dtype=np.int64)
        indptr[0] = 0
        indptr[num_nodes] = packed.size
        if num_nodes > 1:
            firsts = np.arange(1, num_nodes, dtype=np.int64)
            firsts *= self.num_states << self.hop_bits
            indptr[1:num_nodes] = np.searchsorted(packed, firsts)
        return indptr

    def sort_decode(
        self, packed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, keys, hops)``: sort ``packed`` in place, read its
        :meth:`indptr`, then :meth:`decode` it."""
        packed.sort()
        indptr = self.indptr(packed)
        return (indptr, *self.decode(packed))
