"""Storage backends for :class:`~repro.walks.index.FlatWalkIndex` (DESIGN.md §13).

The flat index is three arrays — ``indptr`` (CSR-by-hit-node), ``state``
and ``hop`` — and every consumer reads them either whole (a full gain
sweep) or as one hit node's slice (per-candidate gains).  That
access pattern is the seam this module abstracts: a *storage* object owns
the entry arrays and answers

* ``state_array()`` / ``hop_array()`` — the full arrays, and
* ``range_arrays(lo_node, hi_node)`` — the concatenated entries of a
  contiguous hit-node range,

so the index can swap the physical representation without any consumer
noticing.  Three backends:

* :class:`DenseStorage` — the original in-RAM arrays (the default; every
  builder still produces this).
* :class:`CompressedStorage` — delta-encoded entries.  Entries have been
  emitted in canonical ``(hit, state)`` order since the walk backends
  were unified, so within one hit node's block the states are strictly
  increasing and the gaps ``state[j] - state[j-1] - 1 >= 0`` are small;
  each block stores its first state in ``heads`` and the gaps bit-packed
  at the block's exact maximum gap width (0..63 bits, word-aligned per
  block so one block decodes from a self-contained ``uint64`` slice).
  Hops are bounded by ``L`` and pack at one global fixed width.  Decode
  is exact, so every downstream quantity is bit-identical to dense.
* :class:`MmapStorage` — read-only ``np.memmap`` views over a
  persistence-v3 archive (:mod:`repro.walks.persistence`).  Nothing is
  materialized until a consumer touches it, and nothing can be written
  back: the arrays are opened ``mode="r"``.

The bit-packing discipline mirrors :class:`~repro.walks.parallel.SharedArrayPack`'s
buffer-layout contract — a flat word buffer plus an offsets table, every
region independently addressable — applied to sub-word values instead of
whole arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "INDEX_FORMATS",
    "validate_index_format",
    "entry_state_dtype",
    "DenseStorage",
    "CompressedStorage",
    "MmapStorage",
    "block_delta_encode",
    "pack_value_blocks",
    "unpack_value_blocks",
]

#: The index representations selectable via ``--index-format`` (CLI) and
#: ``save_index(format=...)``: ``dense`` is the in-RAM default, the other
#: two are the beyond-RAM variants of ROADMAP item 3.
INDEX_FORMATS = ("dense", "compressed", "mmap")

# frexp (the elementwise bit-width primitive below) is exact only while
# values round-trip through float64; states are node*replicate indexes,
# so this bound is never near in practice but is asserted anyway.
_MAX_EXACT = 1 << 53


def validate_index_format(name: str) -> str:
    """Return ``name`` if it is a known index format, else raise."""
    if name not in INDEX_FORMATS:
        raise ParameterError(
            f"unknown index format {name!r}; expected one of {INDEX_FORMATS}"
        )
    return name


def entry_state_dtype(num_nodes: int, num_replicates: int) -> np.dtype:
    """The dtype every builder stores entry states in.

    ``int32`` while the state space ``n * R`` fits, ``int64`` past it —
    one rule shared by the in-memory assembler
    (``FlatWalkIndex._from_records``) and the out-of-core archive writer
    (:mod:`repro.walks.build`), so the two paths can never disagree on
    the bytes an archive holds.
    """
    return np.dtype(
        np.int32
        if num_nodes * num_replicates < np.iinfo(np.int32).max
        else np.int64
    )


def _bit_widths(values: np.ndarray) -> np.ndarray:
    """Elementwise bit length of non-negative integers (0 for 0)."""
    # frexp(v) = (m, e) with v = m * 2**e and 0.5 <= m < 1, so e is the
    # bit length; exact for v < 2**53 (guarded by callers).
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def _block_locals(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-value ``(block_id, local_index)`` for block-major value streams."""
    total = int(counts.sum())
    block_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return block_of, local


def pack_value_blocks(
    values: np.ndarray, counts: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bit-pack block-major values into word-aligned ``uint64`` regions.

    ``values`` holds ``counts[b]`` non-negative integers per block ``b``,
    concatenated in block order; block ``b`` packs at ``widths[b]`` bits
    per value (its values must fit — callers derive widths from the block
    maxima).  Width-0 blocks store nothing and decode as zeros.  Returns
    ``(words, wordptr)``: block ``b`` owns ``words[wordptr[b]:wordptr[b+1]]``
    and ``words`` carries one extra zero pad word so decoders may read
    ``words[i + 1]`` for any in-range ``i`` without a bounds check.
    """
    counts = counts.astype(np.int64)
    widths = widths.astype(np.int64)
    word_counts = (counts * widths + 63) >> 6
    wordptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(word_counts, out=wordptr[1:])
    words = np.zeros(int(wordptr[-1]) + 1, dtype=np.uint64)
    if values.size == 0:
        return words, wordptr
    block_of, local = _block_locals(counts)
    width_of = widths[block_of]
    nz = width_of > 0
    if not nz.any():
        return words, wordptr
    vals = values.astype(np.int64)[nz]
    if vals.size and (vals.min() < 0 or int(vals.max()) >= _MAX_EXACT):
        raise ParameterError("pack_value_blocks: values out of codec range")
    width_nz = width_of[nz].astype(np.uint64)
    bitpos = local[nz] * width_of[nz]
    word_index = wordptr[block_of[nz]] + (bitpos >> 6)
    offset = (bitpos & 63).astype(np.uint64)
    unsigned = vals.astype(np.uint64)
    np.bitwise_or.at(words, word_index, unsigned << offset)
    spill = offset + width_nz > 64
    if spill.any():
        np.bitwise_or.at(
            words,
            word_index[spill] + 1,
            unsigned[spill] >> (np.uint64(64) - offset[spill]),
        )
    return words, wordptr


def unpack_value_blocks(
    words: np.ndarray,
    wordptr: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
    blocks: np.ndarray,
) -> np.ndarray:
    """Decode the packed values of ``blocks`` (concatenated, block order).

    Inverse of :func:`pack_value_blocks` restricted to a block subset;
    ``widths``/``counts``/``wordptr`` are the full per-block tables.  The
    decode is a handful of vectorized gathers and shifts — no per-block
    Python loop — which is what keeps the per-candidate query path on
    compressed storage within the benchmarked slowdown budget.
    """
    cnt = counts[blocks].astype(np.int64)
    total = int(cnt.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    pos_of, local = _block_locals(cnt)
    width_of = widths[blocks].astype(np.int64)[pos_of]
    base = wordptr[blocks][pos_of]
    nz = width_of > 0
    if nz.all():
        # Common case (every decoded block has payload bits): skip the
        # five boolean-mask gathers of the general path — they dominate
        # full-array decode time.
        return _unpack_values(words, base, width_of, local)
    out = np.zeros(total, dtype=np.int64)
    if not nz.any():
        return out
    out[nz] = _unpack_values(
        words, base[nz], width_of[nz], local[nz]
    )
    return out


def _unpack_values(
    words: np.ndarray,
    base: np.ndarray,
    width_of: np.ndarray,
    local: np.ndarray,
) -> np.ndarray:
    """Gather-decode values with per-value word base/width/position (all
    widths nonzero).  In-place arithmetic; dtype changes are views, not
    copies — this path decodes millions of entries per full-array pass."""
    bitpos = local * width_of
    word_index = base + (bitpos >> 6)
    offset = (bitpos & 63).view(np.uint64)
    width_u = width_of.view(np.uint64)
    low = words[word_index] >> offset
    need_high = (offset + width_u).view(np.int64) > 64
    if need_high.any():
        # offset > 0 whenever a value spills (width <= 63), so the left
        # shift count 64 - offset stays in [1, 63].
        high = np.zeros_like(low)
        high[need_high] = words[word_index[need_high] + 1] << (
            np.uint64(64) - offset[need_high]
        )
        low |= high
    low &= (np.uint64(1) << width_u) - np.uint64(1)
    return low.view(np.int64)


def block_delta_encode(
    state64: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-block delta encoding of canonical-order states.

    ``state64`` holds ``counts[b]`` states per block ``b``, concatenated
    in block order and strictly increasing within each block (canonical
    ``(hit, state)`` order — violations raise).  Returns
    ``(heads, delta_widths, gaps, gap_counts)``: each block's first
    state, the exact bit width of its largest gap
    (``state[j] - state[j-1] - 1``), and the gap stream ready for
    :func:`pack_value_blocks`.  Shared by
    :meth:`CompressedStorage.from_arrays` and the incremental v3 writer
    (:mod:`repro.walks.build`) — the codec is per-block, so the writer
    can encode any *complete* run of blocks with this function and
    concatenate the word regions, landing on the same bytes a whole-index
    encode produces.
    """
    counts = counts.astype(np.int64)
    n = counts.size
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    heads = np.zeros(n, dtype=np.int64)
    nonempty = counts > 0
    heads[nonempty] = state64[starts[nonempty]]
    # Gaps between consecutive states of the same block.  np.diff over
    # the whole stream also produces cross-block differences at block
    # boundaries; mask them out by entry position.
    if total > 1:
        diffs = np.diff(state64)
        is_start = np.zeros(total, dtype=bool)
        is_start[starts[nonempty]] = True
        interior = ~is_start
        interior[0] = False
        gaps = diffs[interior[1:]] - 1
        if gaps.size and int(gaps.min()) < 0:
            raise ParameterError(
                "entries are not in canonical (hit, state) order; "
                "rebuild the index before compressing (legacy archives "
                "kept insertion order)"
            )
        owners = np.repeat(np.arange(n, dtype=np.int64), counts)[interior]
        block_max = np.zeros(n, dtype=np.int64)
        np.maximum.at(block_max, owners, gaps)
    else:
        gaps = np.zeros(0, dtype=np.int64)
        block_max = np.zeros(n, dtype=np.int64)
    delta_widths = _bit_widths(block_max).astype(np.uint8)
    gap_counts = np.maximum(counts - 1, 0)
    return heads, delta_widths, gaps, gap_counts


def _unpack_region(
    words: np.ndarray, base_word: int, width: int, count: int
) -> np.ndarray:
    """Decode one block's ``count`` values at ``width`` bits — the lean
    single-block path behind per-candidate queries (no block tables)."""
    bitpos = np.arange(0, count * width, width, dtype=np.int64)
    word_index = base_word + (bitpos >> 6)
    offset = (bitpos & 63).view(np.uint64)
    low = words[word_index] >> offset
    # A fixed width that divides 64 packs on clean lanes — no spills.
    if 64 % width:
        need_high = offset + np.uint64(width) > 64
        if need_high.any():
            # Masking the shift keeps it in [0, 63]; the offset-0 lanes
            # it wraps are exactly the ones ``need_high`` discards.
            shift = (np.uint64(64) - offset) & np.uint64(63)
            low |= np.where(
                need_high, words[word_index + 1] << shift, np.uint64(0)
            )
    low &= (np.uint64(1) << np.uint64(width)) - np.uint64(1)
    return low.view(np.int64)


class DenseStorage:
    """The original in-RAM entry arrays — zero indirection cost."""

    format_name = "dense"

    def __init__(self, indptr: np.ndarray, state: np.ndarray, hop: np.ndarray):
        self.indptr = indptr
        self._state = state
        self._hop = hop

    @property
    def num_entries(self) -> int:
        return int(self._state.size)

    @property
    def nbytes(self) -> int:
        return int(self._state.nbytes + self._hop.nbytes)

    def state_array(self) -> np.ndarray:
        return self._state

    def hop_array(self) -> np.ndarray:
        return self._hop

    def range_arrays(self, lo_node: int, hi_node: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.indptr[lo_node]), int(self.indptr[hi_node])
        return self._state[lo:hi], self._hop[lo:hi]

    def range_states(self, lo_node: int, hi_node: int) -> np.ndarray:
        lo, hi = int(self.indptr[lo_node]), int(self.indptr[hi_node])
        return self._state[lo:hi]


class MmapStorage(DenseStorage):
    """Read-only memmap views over a persistence-v3 archive.

    Shares :class:`DenseStorage`'s access paths (the arrays behave like
    plain ndarrays, paged in lazily by the gain engine) but reports its
    own format name, so a served query can never write through to the
    archive.  Lifetime: the maps hold the only reference to the open
    file; dropping the index drops the maps and closes it (no explicit
    close, mirroring how :class:`~repro.walks.parallel.SharedArrayPack`
    views pin their shared-memory segment).
    """

    format_name = "mmap"

    def __init__(
        self,
        indptr: np.ndarray,
        state: np.ndarray,
        hop: np.ndarray,
        source: "str | None" = None,
    ):
        super().__init__(indptr, state, hop)
        self.source = source

    @property
    def nbytes(self) -> int:
        # Mapped address space, not resident bytes — the arrays live in
        # the archive and page in on demand.
        return int(self._state.nbytes + self._hop.nbytes)


class CompressedStorage:
    """Per-block exact-width delta codec over canonical entry order.

    Layout (all little-endian, word-aligned per block):

    ``heads``        ``int64[n]``   first state of each hit node's block
    ``delta_widths`` ``uint8[n]``   bits per gap in the block (0..63)
    ``delta_words``  ``uint64[Wd+1]`` packed gaps ``state[j]-state[j-1]-1``
    ``delta_wordptr````int64[n+1]`` word region of each block's gaps
    ``hop_words``    ``uint64[Wh+1]`` packed hops at one global width
    ``hop_wordptr``  ``int64[n+1]`` word region of each block's hops
    ``hop_width``    scalar         ``bit_length(max hop)``

    A block of ``c`` entries stores ``c - 1`` gaps (the head is explicit),
    so singleton blocks cost ``8 + 1`` bytes plus their hop bits.  The
    trailing ``+1`` pad word in each word array lets the decoder read one
    word past any region unconditionally.
    """

    format_name = "compressed"

    def __init__(
        self,
        indptr: np.ndarray,
        heads: np.ndarray,
        delta_widths: np.ndarray,
        delta_words: np.ndarray,
        delta_wordptr: np.ndarray,
        hop_width: int,
        hop_words: np.ndarray,
        hop_wordptr: np.ndarray,
        state_dtype: np.dtype,
    ):
        self.indptr = indptr
        self.heads = heads
        self.delta_widths = delta_widths
        self.delta_words = delta_words
        self.delta_wordptr = delta_wordptr
        self.hop_width = int(hop_width)
        self.hop_words = hop_words
        self.hop_wordptr = hop_wordptr
        self.state_dtype = np.dtype(state_dtype)
        # Cached per-block tables so a per-candidate decode costs O(block),
        # not an O(n) diff over indptr per query.
        self._counts = np.diff(indptr).astype(np.int64)
        self._gap_counts = np.maximum(self._counts - 1, 0)
        self._hop_widths = np.full(
            self._counts.size, self.hop_width, dtype=np.int64
        )
        # Decoded-block cache for the per-candidate hot path: greedy and
        # serve both hammer a hot set of high-degree candidates, so
        # steady-state queries shouldn't pay the decode twice.  The
        # budget is half the entry count — state bytes only, hops are
        # never cached — so even fully warm the codec arrays plus cache
        # stay well under the dense footprint, and the cache is
        # transient query memory, not part of the representation.
        # Eviction is FIFO; cached arrays are shared between callers and
        # therefore frozen read-only.
        self._state_cache: dict[int, np.ndarray] = {}
        self._state_cache_entries = 0
        self._state_cache_budget = max(4096, int(self.indptr[-1]) // 2)

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls, indptr: np.ndarray, state: np.ndarray, hop: np.ndarray
    ) -> "CompressedStorage":
        """Compress dense entry arrays (requires canonical entry order)."""
        counts = np.diff(indptr).astype(np.int64)
        n = counts.size
        state64 = state.astype(np.int64)
        hop64 = hop.astype(np.int64)
        total = int(indptr[-1])
        if total and (
            int(state64.min()) < 0 or int(state64.max()) >= _MAX_EXACT
        ):
            raise ParameterError("state ids out of compressible range")
        if total and int(hop64.min()) < 0:
            raise ParameterError("negative hops cannot be compressed")
        heads, delta_widths, gaps, gap_counts = block_delta_encode(
            state64, counts
        )
        delta_words, delta_wordptr = pack_value_blocks(
            gaps, gap_counts, delta_widths
        )
        hop_width = int(_bit_widths(hop64.max(initial=0))) if total else 0
        hop_words, hop_wordptr = pack_value_blocks(
            hop64, counts, np.full(n, hop_width, dtype=np.int64)
        )
        return cls(
            indptr=indptr,
            heads=heads,
            delta_widths=delta_widths,
            delta_words=delta_words,
            delta_wordptr=delta_wordptr,
            hop_width=hop_width,
            hop_words=hop_words,
            hop_wordptr=hop_wordptr,
            state_dtype=state.dtype,
        )

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return int(self.indptr[-1])

    @property
    def nbytes(self) -> int:
        return int(
            self.heads.nbytes
            + self.delta_widths.nbytes
            + self.delta_words.nbytes
            + self.delta_wordptr.nbytes
            + self.hop_words.nbytes
            + self.hop_wordptr.nbytes
        )

    def arrays(self) -> dict:
        """The codec arrays by name (the persistence-v3 write set)."""
        return {
            "heads": self.heads,
            "delta_widths": self.delta_widths,
            "delta_words": self.delta_words,
            "delta_wordptr": self.delta_wordptr,
            "hop_words": self.hop_words,
            "hop_wordptr": self.hop_wordptr,
        }

    def state_array(self) -> np.ndarray:
        return self._decode_states(0, self.indptr.size - 1)

    def hop_array(self) -> np.ndarray:
        return self._decode_hops(0, self.indptr.size - 1)

    def range_arrays(self, lo_node: int, hi_node: int) -> tuple[np.ndarray, np.ndarray]:
        if hi_node - lo_node == 1:
            return (
                self._decode_one_states(lo_node),
                self._decode_one_hops(lo_node),
            )
        return (
            self._decode_states(lo_node, hi_node),
            self._decode_hops(lo_node, hi_node),
        )

    def range_states(self, lo_node: int, hi_node: int) -> np.ndarray:
        if hi_node - lo_node == 1:
            return self._decode_one_states(lo_node)
        return self._decode_states(lo_node, hi_node)

    # ------------------------------------------------------------------
    def _decode_one_states(self, node: int) -> np.ndarray:
        """One block's states, skipping the multi-block table machinery —
        this is the CELF per-candidate hot path on compressed storage.
        Returns a read-only array (hits may share a cached block)."""
        cached = self._state_cache.get(node)
        if cached is not None:
            return cached
        count = int(self._counts[node])
        if count == 0:
            return np.zeros(0, dtype=self.state_dtype)
        head = int(self.heads[node])
        width = int(self.delta_widths[node])
        states = np.empty(count, dtype=np.int64)
        states[0] = 0
        if count > 1:
            if width:
                gaps = _unpack_region(
                    self.delta_words,
                    int(self.delta_wordptr[node]),
                    width,
                    count - 1,
                )
                np.cumsum(gaps + 1, out=states[1:])
            else:
                states[1:] = np.arange(1, count, dtype=np.int64)
        states += head
        states = states.astype(self.state_dtype)
        states.flags.writeable = False
        cache = self._state_cache
        if count <= self._state_cache_budget:
            while self._state_cache_entries + count > self._state_cache_budget:
                evicted = cache.pop(next(iter(cache)))
                self._state_cache_entries -= evicted.size
            cache[node] = states
            self._state_cache_entries += count
        return states

    def _decode_one_hops(self, node: int) -> np.ndarray:
        count = int(self._counts[node])
        if count == 0 or self.hop_width == 0:
            return np.zeros(count, dtype=np.int16)
        hops = _unpack_region(
            self.hop_words,
            int(self.hop_wordptr[node]),
            self.hop_width,
            count,
        )
        return hops.astype(np.int16)

    def _decode_states(self, lo_node: int, hi_node: int) -> np.ndarray:
        return self._decode_states_blocks(
            np.arange(lo_node, hi_node, dtype=np.int64)
        )

    def _decode_states_blocks(self, blocks: np.ndarray) -> np.ndarray:
        cnt = self._counts[blocks]
        total = int(cnt.sum())
        if total == 0:
            return np.zeros(0, dtype=self.state_dtype)
        gaps = unpack_value_blocks(
            self.delta_words,
            self.delta_wordptr,
            self.delta_widths,
            self._gap_counts,
            blocks,
        )
        # Rebuild each block's states as head + running sum of (gap + 1):
        # lay the increments out entry-major (0 at each block's first
        # entry), cumsum globally, then subtract each block's offset.
        increments = np.zeros(total, dtype=np.int64)
        starts = np.cumsum(cnt) - cnt
        is_start = np.zeros(total, dtype=bool)
        is_start[starts[cnt > 0]] = True
        increments[~is_start] = gaps + 1
        running = np.cumsum(increments)
        base = np.repeat(running[np.minimum(starts, total - 1)], cnt)
        head_rep = np.repeat(self.heads[blocks], cnt)
        return (head_rep + (running - base)).astype(self.state_dtype)

    def _decode_hops(self, lo_node: int, hi_node: int) -> np.ndarray:
        blocks = np.arange(lo_node, hi_node, dtype=np.int64)
        hops = unpack_value_blocks(
            self.hop_words,
            self.hop_wordptr,
            self._hop_widths,
            self._counts,
            blocks,
        )
        return hops.astype(np.int16)
