"""Walk-index persistence: save/load round trips and corruption handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_fast import approx_greedy_fast
from repro.errors import GraphFormatError, ParameterError
from repro.graphs.generators import power_law_graph, ring_graph
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import (
    _write_v3,
    graph_fingerprint,
    index_provenance,
    load_index,
    save_index,
    v3_index_header,
)


def _write_v2(path, index, graph=None, **overrides):
    """A version-2 ``.npz`` archive as earlier releases wrote by default
    (``overrides`` replaces or adds named members)."""
    payload = {
        "version": np.int64(2),
        "header": np.asarray(
            [index.num_nodes, index.length, index.num_replicates],
            dtype=np.int64,
        ),
        "indptr": index.indptr,
        "state": index.state,
        "hop": index.hop,
        "meta_engine": np.str_("numpy"),
        "meta_seed": np.str_("22"),
    }
    if graph is not None:
        payload["graph_meta"] = np.asarray(
            [graph.num_nodes, graph.num_edges, graph_fingerprint(graph)],
            dtype=np.int64,
        )
    payload.update(overrides)
    np.savez(path, **payload)
    return path


def _write_raw_v3(path, index, graph=None, encoding="dense", **overrides):
    """A v3 archive written through the shared header/layout writer, with
    named arrays replaced or added (``overrides``)."""
    header = v3_index_header(
        index.num_nodes, index.length, index.num_replicates,
        encoding=encoding, engine="csr", seed=22, graph=graph,
    )
    arrays = {"indptr": index.indptr, "state": index.state, "hop": index.hop}
    arrays.update(overrides)
    header["state_dtype"] = arrays["state"].dtype.str
    _write_v3(str(path), header, arrays)
    return path


class TestRoundTrip:
    def test_arrays_identical(self, tmp_path):
        graph = power_law_graph(60, 180, seed=1)
        index = FlatWalkIndex.build(graph, 5, 8, seed=2)
        path = tmp_path / "walks.idx3"
        save_index(index, path)
        back = load_index(path)
        np.testing.assert_array_equal(back.indptr, index.indptr)
        np.testing.assert_array_equal(back.state, index.state)
        np.testing.assert_array_equal(back.hop, index.hop)
        assert back.num_nodes == index.num_nodes
        assert back.length == index.length
        assert back.num_replicates == index.num_replicates

    def test_selection_identical_after_reload(self, tmp_path):
        """The point of persistence: same index -> same greedy answer."""
        graph = power_law_graph(80, 240, seed=3)
        index = FlatWalkIndex.build(graph, 4, 10, seed=4)
        path = tmp_path / "walks.idx3"
        save_index(index, path)
        original = approx_greedy_fast(graph, 6, 4, index=index)
        reloaded = approx_greedy_fast(graph, 6, 4, index=load_index(path))
        assert original.selected == reloaded.selected

    def test_empty_index(self, tmp_path):
        """A graph of isolated nodes yields an index with zero entries."""
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder()
        builder.touch_node(4)
        index = FlatWalkIndex.build(builder.build(), 3, 2, seed=5)
        path = tmp_path / "empty.idx3"
        save_index(index, path)
        back = load_index(path)
        assert back.total_entries == 0
        assert back.num_nodes == 5


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises((GraphFormatError, FileNotFoundError)):
            load_index(tmp_path / "nope.idx3")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(GraphFormatError):
            load_index(path)

    def test_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(5))
        with pytest.raises(GraphFormatError):
            load_index(path)

    def test_wrong_version(self, tmp_path):
        graph = ring_graph(6)
        index = FlatWalkIndex.build(graph, 2, 2, seed=1)
        path = tmp_path / "v99.idx3"
        header = v3_index_header(6, 2, 2, encoding="dense")
        header["version"] = 99
        _write_v3(str(path), header, {
            "indptr": index.indptr, "state": index.state, "hop": index.hop,
        })
        with pytest.raises(GraphFormatError, match="version 99"):
            load_index(path)

    def test_inconsistent_arrays(self, tmp_path):
        graph = ring_graph(6)
        index = FlatWalkIndex.build(graph, 2, 2, seed=1)
        path = _write_raw_v3(
            tmp_path / "bad.idx3", index, state=index.state[:-1],  # truncated
        )
        with pytest.raises(GraphFormatError):
            load_index(path)


class TestSuffixNormalization:
    """Suffixless paths round-trip (regression: ``save_index(idx,
    "myindex")`` wrote ``myindex.npz`` via numpy's silent suffix append,
    then ``load_index("myindex")`` failed on the literal name)."""

    def test_static_round_trip_without_suffix(self, tmp_path):
        graph = power_law_graph(40, 120, seed=6)
        index = FlatWalkIndex.build(graph, 3, 4, seed=7)
        written = save_index(index, tmp_path / "myindex")
        assert written == tmp_path / "myindex.idx3"
        assert written.is_file()
        back = load_index(tmp_path / "myindex")
        np.testing.assert_array_equal(back.state, index.state)
        # The explicit suffixed spelling reaches the same archive.
        np.testing.assert_array_equal(
            load_index(tmp_path / "myindex.idx3").state, index.state
        )

    def test_fresh_save_not_shadowed_by_older_npz(self, tmp_path):
        """A suffixless save writes ``foo.idx3``; a ``foo.npz`` left by an
        earlier release must not be what ``load_index("foo")`` returns."""
        graph = power_law_graph(40, 120, seed=6)
        old = FlatWalkIndex.build(graph, 3, 4, seed=7)
        new = FlatWalkIndex.build(graph, 3, 4, seed=8)
        assert not new.same_entries(old)
        _write_v2(tmp_path / "foo.npz", old, graph)
        assert save_index(new, tmp_path / "foo") == tmp_path / "foo.idx3"
        assert load_index(tmp_path / "foo").same_entries(new)
        assert index_provenance(tmp_path / "foo")["version"] == 3
        with pytest.raises(GraphFormatError, match="npz"):
            load_index(tmp_path / "foo.npz")

    def test_dynamic_round_trip_without_suffix(self, tmp_path):
        from repro.dynamic import DynamicWalkIndex
        from repro.walks.persistence import (
            load_dynamic_index,
            save_dynamic_index,
        )

        graph = power_law_graph(30, 90, seed=8)
        dyn = DynamicWalkIndex.build(graph, 3, 4, seed=9)
        written = save_dynamic_index(dyn, tmp_path / "snap")
        assert written == tmp_path / "snap.npz"
        back = load_dynamic_index(tmp_path / "snap", graph=graph)
        np.testing.assert_array_equal(back.walks, dyn.walks)

    def test_literal_suffixless_file_is_honored(self, tmp_path):
        """A file genuinely named without .npz loads as given — and an
        overwrite updates it in place rather than writing a shadowed
        .npz sibling that load would never see."""
        graph = power_law_graph(30, 90, seed=3)
        index = FlatWalkIndex.build(graph, 3, 4, seed=4)
        written = save_index(index, tmp_path / "real")
        written.rename(tmp_path / "real")  # strip the suffix on disk
        back = load_index(tmp_path / "real")
        np.testing.assert_array_equal(back.state, index.state)
        replacement = FlatWalkIndex.build(graph, 3, 4, seed=11)
        rewritten = save_index(replacement, tmp_path / "real")
        assert rewritten == tmp_path / "real"
        assert [p.name for p in tmp_path.iterdir()] == ["real"]
        np.testing.assert_array_equal(
            load_index(tmp_path / "real").state, replacement.state
        )

    def test_provenance_accepts_suffixless(self, tmp_path):
        from repro.walks.persistence import index_provenance

        graph = power_law_graph(30, 90, seed=3)
        index = FlatWalkIndex.build(graph, 3, 4, seed=4)
        save_index(index, tmp_path / "prov", graph=graph, engine="csr")
        assert index_provenance(tmp_path / "prov")["engine"] == "csr"


class TestAtomicSave:
    """A crash mid-save must leave the previous good archive intact
    (regression: saves wrote straight to the destination, so an
    interrupted write destroyed both the old and the new archive)."""

    def _boom_v3(self, monkeypatch):
        import repro.walks.persistence as persistence

        def failing_write(tmp_name, header, arrays):
            with open(tmp_name, "wb") as handle:
                handle.write(b"half-written garbage")
            raise OSError("disk full")

        monkeypatch.setattr(persistence, "_write_v3", failing_write)

    def _boom(self, monkeypatch):
        def failing_savez(file, **payload):
            target = file if isinstance(file, str) else str(file)
            with open(target, "wb") as handle:
                handle.write(b"half-written garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", failing_savez)

    def test_interrupted_static_save_keeps_old_archive(
        self, tmp_path, monkeypatch
    ):
        graph = power_law_graph(40, 120, seed=1)
        index = FlatWalkIndex.build(graph, 3, 4, seed=2)
        path = save_index(index, tmp_path / "walks.idx3")
        self._boom_v3(monkeypatch)
        with pytest.raises(OSError):
            save_index(
                FlatWalkIndex.build(graph, 3, 4, seed=5), path
            )
        monkeypatch.undo()
        back = load_index(path)
        np.testing.assert_array_equal(back.state, index.state)
        assert [p.name for p in tmp_path.iterdir()] == ["walks.idx3"]

    def test_interrupted_dynamic_save_keeps_old_archive(
        self, tmp_path, monkeypatch
    ):
        from repro.dynamic import DynamicWalkIndex
        from repro.walks.persistence import (
            load_dynamic_index,
            save_dynamic_index,
        )

        graph = power_law_graph(30, 90, seed=2)
        dyn = DynamicWalkIndex.build(graph, 3, 4, seed=3)
        path = save_dynamic_index(dyn, tmp_path / "snap.npz")
        self._boom(monkeypatch)
        with pytest.raises(OSError):
            save_dynamic_index(
                DynamicWalkIndex.build(graph, 3, 4, seed=8), path
            )
        monkeypatch.undo()
        back = load_dynamic_index(path, graph=graph)
        np.testing.assert_array_equal(back.walks, dyn.walks)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]

    def test_saves_do_not_inherit_mkstemp_permissions(self, tmp_path):
        """The temp-file dance must not leave archives 0600 (mkstemp's
        default) — a saver and a reader are different processes in the
        serving deployment.  Fresh saves honor the umask; overwrites
        keep the destination's existing mode."""
        import os

        graph = power_law_graph(30, 90, seed=1)
        index = FlatWalkIndex.build(graph, 3, 4, seed=2)
        path = save_index(index, tmp_path / "perms.idx3")
        umask = os.umask(0)
        os.umask(umask)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)
        os.chmod(path, 0o604)
        save_index(index, path)
        assert (path.stat().st_mode & 0o777) == 0o604


# ----------------------------------------------------------------------
# Persistence v3 (.idx3): the one archive format, loaded as memory maps
# ----------------------------------------------------------------------
class TestV3RoundTrip:
    @pytest.fixture(scope="class")
    def built(self):
        graph = power_law_graph(70, 210, seed=21)
        index = FlatWalkIndex.build(graph, 4, 8, seed=22)
        return graph, index

    def test_entries_identical(self, built, tmp_path):
        graph, index = built
        path = save_index(index, tmp_path / "walks", graph=graph)
        assert path.suffix == ".idx3"
        back = load_index(path, graph=graph)
        np.testing.assert_array_equal(back.indptr, index.indptr)
        np.testing.assert_array_equal(back.state, index.state)
        np.testing.assert_array_equal(back.hop, index.hop)
        assert back.state.dtype == index.state.dtype
        assert (back.num_nodes, back.length, back.num_replicates) == (
            index.num_nodes, index.length, index.num_replicates
        )

    def test_selection_and_gains_identical(self, built, tmp_path):
        graph, index = built
        path = save_index(index, tmp_path / "walks")
        for objective in ("f1", "f2"):
            reference = approx_greedy_fast(
                graph, 6, index.length, index=index, objective=objective
            )
            got = approx_greedy_fast(
                graph, 6, index.length, index=load_index(path),
                objective=objective,
            )
            assert got.selected == reference.selected, objective
            assert got.gains == reference.gains, objective

    def test_provenance(self, built, tmp_path):
        graph, index = built
        path = save_index(
            index, tmp_path / "prov", graph=graph, engine="csr", seed=22,
        )
        prov = index_provenance(path)
        assert prov["version"] == 3
        assert prov["encoding"] == "dense"
        assert prov["engine"] == "csr"
        assert prov["seed"] == "22"  # seed material is stored as text
        assert prov["graph_num_nodes"] == graph.num_nodes

    def test_suffixless_resolution(self, built, tmp_path):
        graph, index = built
        written = save_index(index, tmp_path / "noext")
        assert written == tmp_path / "noext.idx3"
        back = load_index(tmp_path / "noext")
        np.testing.assert_array_equal(back.state, index.state)

    def test_stale_graph_rejected(self, built, tmp_path):
        graph, index = built
        path = save_index(index, tmp_path / "walks", graph=graph)
        edited = power_law_graph(70, 211, seed=23)
        with pytest.raises(ParameterError, match="stale"):
            load_index(path, graph=edited)


class TestLegacyArchives:
    """v3 archives written by earlier releases still load, including those
    carrying the since-removed coverage rows and gain-backend provenance
    (the reader ignores arrays it does not name and a stored
    ``gain_backend``).  The v1/v2 ``.npz`` archives are refused loudly."""

    @pytest.fixture(scope="class")
    def built(self):
        graph = power_law_graph(70, 210, seed=21)
        index = FlatWalkIndex.build(graph, 4, 8, seed=22)
        return graph, index

    @staticmethod
    def _assert_serves_like(graph, index, back):
        assert back.same_entries(index)
        for objective in ("f1", "f2"):
            want = approx_greedy_fast(
                graph, 6, index.length, index=index, objective=objective
            )
            got = approx_greedy_fast(
                graph, 6, index.length, index=back, objective=objective
            )
            assert got.selected == want.selected
            assert got.gains == want.gains

    def test_v3_with_stored_rows(self, built, tmp_path):
        graph, index = built
        n, num_states = index.num_nodes, index.num_states
        words = (num_states + 63) >> 6
        rng = np.random.default_rng(3)
        path = tmp_path / "legacy.idx3"
        header = v3_index_header(
            n, index.length, index.num_replicates, encoding="dense",
            engine="csr", seed=22, graph=graph,
        )
        header["meta"]["gain_backend"] = "bitset"
        header["state_dtype"] = index.state.dtype.str
        _write_v3(str(path), header, {
            "indptr": index.indptr,
            "state": index.state,
            "hop": index.hop,
            "rows": rng.integers(0, 2**63, size=(n, words), dtype=np.uint64),
            "crow_ptr": np.arange(n + 1, dtype=np.int64),
            "crow_chunks": np.zeros(n, dtype=np.int32),
            "crow_types": np.ones(n, dtype=np.uint8),
            "crow_cards": np.ones(n, dtype=np.int32),
            "crow_dataptr": np.arange(n + 1, dtype=np.int64),
            "crow_data": np.arange(n, dtype=np.uint16),
        })
        back = load_index(path, graph=graph)
        assert not back.state.flags.writeable  # served off the map
        self._assert_serves_like(graph, index, back)
        prov = index_provenance(path)
        assert (prov["version"], prov["encoding"]) == (3, "dense")
        assert (prov["engine"], prov["seed"]) == ("csr", "22")
        assert prov["graph_num_nodes"] == n
        assert "gain_backend" not in prov

    def test_v2_with_gain_backend(self, built, tmp_path):
        """A v2 ``.npz`` archive — here one carrying the since-removed
        ``gain_backend`` provenance — is refused by the loader and the
        provenance reader alike, naming the retired format and the
        rebuild, also when reached through a suffixless path."""
        graph, index = built
        path = _write_v2(
            tmp_path / "legacy.npz", index, graph,
            meta_gain_backend=np.str_("bitset"),
        )
        for read in (load_index, index_provenance):
            with pytest.raises(
                GraphFormatError, match=r"v1/v2 \.npz"
            ) as excinfo:
                read(path)
            assert str(path) in str(excinfo.value)
            assert "repro index" in str(excinfo.value)
        path.rename(tmp_path / "suffixless")
        with pytest.raises(GraphFormatError, match="repro index"):
            load_index(tmp_path / "suffixless", graph=graph)


class TestFingerprintMismatchMessage:
    def test_names_both_fingerprints_and_path(self, tmp_path):
        """Regression: the stale-index error must name the archive path
        and both fingerprints (stored and actual, in hex) so operators
        can tell *which* archive disagrees and by how much."""
        graph = power_law_graph(50, 150, seed=31)
        index = FlatWalkIndex.build(graph, 3, 4, seed=32)
        # Same node and edge counts, different wiring: only the
        # fingerprint check can catch this.
        edited = power_law_graph(50, 150, seed=33)
        if edited.num_edges != graph.num_edges:  # pragma: no cover
            pytest.skip("generator did not hit the edge count")
        path = save_index(index, tmp_path / "fp-v3", graph=graph)
        with pytest.raises(ParameterError) as excinfo:
            load_index(path, graph=edited)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"{graph_fingerprint(edited):#010x}" in message
        assert f"{graph_fingerprint(graph):#010x}" in message


class TestV3FailureModes:
    def _archive(self, tmp_path):
        graph = power_law_graph(40, 120, seed=41)
        index = FlatWalkIndex.build(graph, 3, 4, seed=42)
        return save_index(index, tmp_path / "walks", graph=graph)

    def test_truncated_archive_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        blob = path.read_bytes()
        for cut in (len(blob) - 200, len(blob) // 2, 40, 9):
            path.write_bytes(blob[:cut])
            with pytest.raises(GraphFormatError):
                load_index(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"GARBAGE\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(GraphFormatError):
            load_index(path)

    def test_corrupt_header_json_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # flip a byte inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(GraphFormatError):
            load_index(path)

    def test_retired_codec_encoding_rejected(self, tmp_path):
        """Archives of the retired delta codec (``encoding="compressed"``)
        fail loudly, naming the encoding and the rebuild; their
        provenance stays readable."""
        graph = power_law_graph(40, 120, seed=41)
        index = FlatWalkIndex.build(graph, 3, 4, seed=42)
        n = index.num_nodes
        path = _write_raw_v3(
            tmp_path / "codec.idx3", index, graph, encoding="compressed",
            heads=np.zeros(n, dtype=np.int64),
            delta_widths=np.zeros(n, dtype=np.uint8),
            delta_words=np.zeros(1, dtype=np.uint64),
            delta_wordptr=np.zeros(n + 1, dtype=np.int64),
            hop_words=np.zeros(1, dtype=np.uint64),
            hop_wordptr=np.zeros(n + 1, dtype=np.int64),
        )
        with pytest.raises(GraphFormatError, match="compressed") as excinfo:
            load_index(path, graph=graph)
        assert "repro index" in str(excinfo.value)
        prov = index_provenance(path)
        assert (prov["version"], prov["encoding"]) == (3, "compressed")
        assert (prov["engine"], prov["seed"]) == ("csr", "22")


class TestStructureChecks:
    """Every reader refuses arrays that cannot form an index, at load and
    in O(n): each archive below loaded at an earlier release and then
    solved wrongly or crashed mid-solve."""

    @pytest.fixture(scope="class")
    def built(self):
        graph = power_law_graph(70, 210, seed=21)
        index = FlatWalkIndex.build(graph, 4, 8, seed=22)
        return graph, index

    @staticmethod
    def _swapped_indptr(index):
        indptr = index.indptr.copy()
        assert indptr[1] < indptr[2]  # the swap really decreases
        indptr[1], indptr[2] = indptr[2], indptr[1]
        return indptr

    @staticmethod
    def _refused(path, graph):
        with pytest.raises(GraphFormatError, match="inconsistent index arrays"):
            load_index(path, graph=graph)

    def test_v3_decreasing_indptr(self, built, tmp_path):
        graph, index = built
        self._refused(_write_raw_v3(
            tmp_path / "swap.idx3", index, graph,
            indptr=self._swapped_indptr(index),
        ), graph)

    def test_indptr_not_starting_at_zero(self, built, tmp_path):
        graph, index = built
        indptr = index.indptr.copy()
        assert indptr[1] >= 1
        indptr[0] = 1
        self._refused(_write_raw_v3(
            tmp_path / "offset.idx3", index, graph, indptr=indptr,
        ), graph)

    def test_float_state(self, built, tmp_path):
        graph, index = built
        self._refused(_write_raw_v3(
            tmp_path / "float.idx3", index, graph,
            state=index.state.astype(np.float64),
        ), graph)

    def test_wide_hop(self, built, tmp_path):
        graph, index = built
        self._refused(_write_raw_v3(
            tmp_path / "hop.idx3", index, graph,
            hop=index.hop.astype(np.int64) + 10**12,
        ), graph)

    def test_dynamic_snapshot_decreasing_indptr(self, built, tmp_path):
        from repro.dynamic import DynamicWalkIndex
        from repro.walks.persistence import (
            load_dynamic_index,
            save_dynamic_index,
        )

        graph, _ = built
        dyn = DynamicWalkIndex.build(graph, 4, 8, seed=22)
        path = save_dynamic_index(dyn, tmp_path / "snap")
        with np.load(path) as archive:
            payload = dict(archive)
        payload["indptr"] = self._swapped_indptr(dyn.flat)
        np.savez(path, **payload)
        with pytest.raises(GraphFormatError, match="inconsistent index arrays"):
            load_dynamic_index(path, graph=graph)


class TestReadOnlyViews:
    """Archives load as read-only views over ``mode="r"`` maps: a served
    query can never write back through them, and attempting to is an
    error rather than silent archive corruption."""

    def test_arrays_not_writeable(self, tmp_path):
        graph = power_law_graph(40, 120, seed=51)
        index = FlatWalkIndex.build(graph, 3, 4, seed=52)
        back = load_index(save_index(index, tmp_path / "ro"))
        for array in (back.state, back.hop):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_loaded_arrays_are_plain_ndarrays(self, tmp_path):
        """Base-class views, not ``np.memmap``: numpy's subclass hooks on
        every slice would slow the per-candidate gain path.  The views
        stay read-only, keep their map alive through ``.base``, and the
        mapped bytes are still counted."""
        from repro import obs

        graph = power_law_graph(60, 180, seed=53)
        index = FlatWalkIndex.build(graph, 4, 6, seed=54)
        path = save_index(index, tmp_path / "plain", graph=graph)
        obs.configure()
        try:
            back = load_index(path, graph=graph)
            mapped = obs.registry().counter(
                "persistence_bytes_mapped_total"
            ).value
        finally:
            obs.disable()
        assert mapped == back.storage_nbytes() == index.storage_nbytes()
        for array in (back.indptr, back.state, back.hop):
            assert type(array) is np.ndarray
            assert not array.flags.writeable
            assert isinstance(array.base, np.memmap)
        for objective in ("f1", "f2"):
            want = approx_greedy_fast(
                graph, 8, index.length, index=index, objective=objective
            )
            got = approx_greedy_fast(
                graph, 8, index.length, index=back, objective=objective
            )
            assert (got.selected, got.gains) == (want.selected, want.gains)

    def test_serving_off_the_map_leaves_archive_intact(self, tmp_path):
        from repro.serve import DominationService

        graph = power_law_graph(60, 180, seed=53)
        index = FlatWalkIndex.build(graph, 4, 6, seed=54)
        path = save_index(index, tmp_path / "serve", graph=graph)
        before = path.read_bytes()
        with DominationService.from_index_file(path, graph) as service:
            served = service.select(5)
        direct = approx_greedy_fast(
            graph, 5, index.length, index=index, objective="f2"
        )
        assert served.selected == direct.selected
        assert path.read_bytes() == before


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(5, 40),
    extra_edges=st.integers(0, 40),
    length=st.integers(1, 5),
    reps=st.integers(1, 5),
    engine=st.sampled_from(["numpy", "csr"]),
)
def test_v3_round_trip_property(
    tmp_path_factory, num_nodes, extra_edges, length, reps, engine
):
    """save -> load preserves entries and every solver answer, for any
    engine."""
    tmp_path = tmp_path_factory.mktemp("v3prop")
    num_edges = min(
        num_nodes + extra_edges,
        num_nodes * 3,
        num_nodes * (num_nodes - 1) // 2,
    )
    graph = power_law_graph(num_nodes, num_edges, seed=num_nodes)
    index = FlatWalkIndex.build(graph, length, reps, seed=7, engine=engine)
    back = load_index(
        save_index(index, tmp_path / "walks", graph=graph), graph=graph,
    )
    assert back.same_entries(index)
    np.testing.assert_array_equal(back.state, index.state)
    k = min(4, num_nodes)
    want = approx_greedy_fast(graph, k, length, index=index)
    got = approx_greedy_fast(graph, k, length, index=back)
    assert got.selected == want.selected
    assert got.gains == want.gains
