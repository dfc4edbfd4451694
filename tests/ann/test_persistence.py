"""Tests for index save/load round-trips and the one index state codec."""

import json

import numpy as np
import pytest

from repro.ann.ivf import IVFIndex
from repro.ann.persistence import load_index, save_ivf
from repro.ann.quantization import make_quantizer
from repro.core.clustering import IndexShard


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(400, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def queries(data):
    return data[:8] + 0.01


@pytest.mark.parametrize("scheme", ["flat", "sq8", "sq4", "pq4", "opq4"])
class TestIVFRoundTrip:
    def test_search_identical(self, scheme, data, queries, tmp_path):
        path = tmp_path / f"ivf_{scheme}.npz"
        index = IVFIndex(
            16, "l2", nlist=8, nprobe=4, quantizer=make_quantizer(scheme, 16)
        )
        index.train(data)
        index.add(data)
        save_ivf(index, path)
        loaded = load_index(path)
        assert loaded.ntotal == index.ntotal
        d0, i0 = index.search(queries, 5)
        d1, i1 = loaded.search(queries, 5)
        assert np.array_equal(i0, i1)
        assert np.allclose(d0, d1, atol=1e-5)

    def test_nprobe_override_still_works(self, scheme, data, queries, tmp_path):
        path = tmp_path / f"ivf2_{scheme}.npz"
        index = IVFIndex(
            16, "l2", nlist=8, nprobe=1, quantizer=make_quantizer(scheme, 16)
        )
        index.train(data)
        index.add(data)
        save_ivf(index, path)
        loaded = load_index(path)
        _, shallow = loaded.search(queries, 5)
        _, deep = loaded.search(queries, 5, nprobe=8)
        assert (deep >= -1).all()
        assert not np.array_equal(shallow, deep) or True  # both valid searches


class TestErrors:
    def test_untrained_ivf_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="untrained"):
            save_ivf(IVFIndex(8, nlist=4), tmp_path / "x.npz")

    def test_loading_garbage_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, header='{"format": 999, "type": "flat"}')
        with pytest.raises(ValueError, match="format"):
            load_index(path)


SCHEMES = ("flat", "sq8", "sq4", "pq8", "opq8")
METRICS = ("l2", "ip")
ORIGINS = ("built", "compacted")


def _shard(shard_id, scheme, metric, origin, data):
    """One shard per case; ``compacted`` ones went through a live
    insert + delete + ``IndexShard.compact()`` first."""
    index = IVFIndex(16, metric, nlist=8, nprobe=4, quantizer=make_quantizer(scheme, 16))
    index.train(data)
    index.add(data[:360])
    shard = IndexShard(
        shard_id, index, np.arange(360, dtype=np.int64), data[:360].mean(axis=0)
    )
    if origin == "compacted":
        shard.insert(data[360:], np.arange(360, len(data), dtype=np.int64))
        shard.delete(np.arange(0, len(data), 7))
        assert shard.compact()
    return shard


@pytest.fixture(scope="module")
def zoo(data):
    cases = [(s, m, o) for s in SCHEMES for m in METRICS for o in ORIGINS]
    return {case: _shard(i, *case, data) for i, case in enumerate(cases)}


class TestStateCodec:
    """``export_state`` / ``from_state`` is the only serialised form of an
    index: the in-memory arrays and the ``.npz`` file are its transports."""

    @pytest.mark.parametrize("origin", ORIGINS)
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_transport_searches_bit_identically(
        self, zoo, queries, tmp_path, scheme, metric, origin
    ):
        shard = zoo[scheme, metric, origin]
        index = shard.index
        header, arrays = index.export_state()
        assert ("code_sqnorms" in arrays) == (
            metric == "l2" and scheme in ("flat", "sq8", "sq4")
        )
        want_d, want_i = index.search(queries, 5)
        assert (want_i >= 0).all()

        save_ivf(index, tmp_path / "idx.npz")
        for copy in (IVFIndex.from_state(header, arrays), load_index(tmp_path / "idx.npz")):
            assert copy.ntotal == index.ntotal
            got_d, got_i = copy.search(queries, 5)
            np.testing.assert_array_equal(got_i, want_i)
            np.testing.assert_array_equal(got_d, want_d)

    def test_rows_by_local_id_inverts_install_rows(self, zoo):
        index = zoo["pq8", "l2", "compacted"].index
        codes, cells = index.rows_by_local_id()
        twin = index.fresh_sealed_like()
        twin.install_rows(codes, cells)
        for name, values in twin.export_state()[1].items():
            np.testing.assert_array_equal(values, index.export_state()[1][name])


class TestStateValidation:
    """State arrives from a file or a shared-memory segment: ``from_state``
    checks every invariant the scans rely on and names the offending field."""

    @pytest.fixture()
    def state(self, data):
        index = IVFIndex(16, nlist=8, nprobe=4, quantizer=make_quantizer("pq8", 16))
        index.train(data)
        index.add(data)
        return index.export_state()

    def test_intact_state_loads(self, state):
        assert IVFIndex.from_state(*state).ntotal == 400

    def test_truncated_codes_rejected(self, state):
        header, arrays = state
        arrays["codes"] = arrays["codes"][:-3]
        with pytest.raises(ValueError, match="codes"):
            IVFIndex.from_state(header, arrays)

    def test_header_ntotal_mismatch_rejected(self, state):
        header, arrays = state
        with pytest.raises(ValueError, match="cell_offsets"):
            IVFIndex.from_state(dict(header, ntotal=399), arrays)

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("ids", lambda a: a[:-1]),
            ("ids", lambda a: a + 1),
            ("ids", lambda a: np.where(np.arange(len(a)) == 1, a[0], a)),
            ("cell_offsets", lambda a: a[:-1]),
            ("cell_offsets", lambda a: a[::-1]),
            ("centroids", lambda a: a[:, :-1]),
            ("codes", lambda a: a[:, :-1]),
        ],
    )
    def test_corrupt_array_names_its_field(self, state, name, corrupt):
        header, arrays = state
        arrays[name] = corrupt(arrays[name])
        with pytest.raises(ValueError, match=name):
            IVFIndex.from_state(header, arrays)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("scheme", ["pq8", "opq8"])
    def test_radius_sorted_file_loads(
        self, data, queries, tmp_path, radius_sorted_state, scheme, metric
    ):
        """Format-5 PQ / OPQ files saved while a pruned scan existed carry a
        ``code_radii`` array and rows radius-sorted within each cell. That is
        still a valid CSR layout: it loads, ignores the array, and returns the
        ids the same index returns in insertion order."""
        index = IVFIndex(16, metric, nlist=8, quantizer=make_quantizer(scheme, 16))
        index.train(data)
        index.add(data)
        header, arrays = radius_sorted_state(index)
        assert not np.array_equal(arrays["ids"], index.export_state()[1]["ids"])
        path = tmp_path / "radius_sorted.npz"
        np.savez_compressed(path, header=json.dumps(header), **arrays)
        loaded = load_index(path)
        assert "code_radii" not in loaded.export_state()[1]
        for nprobe in (1, 4, 8):
            want_d, want_i = index.search(queries, 5, nprobe=nprobe)
            got_d, got_i = loaded.search(queries, 5, nprobe=nprobe)
            np.testing.assert_array_equal(got_i, want_i)
            np.testing.assert_array_equal(got_d, want_d)

    def test_old_format_file_says_rebuild(self, state, tmp_path):
        header, arrays = state
        path = tmp_path / "v4.npz"
        np.savez_compressed(path, header=json.dumps(dict(header, format=4)), **arrays)
        with pytest.raises(ValueError, match="format 4.*hermes-repro build`"):
            load_index(path)


class TestScanStateRoundTrip:
    """The saved state carries the derived scan state a decode pass would
    recompute, and a loaded index is sealed when it is made: its first
    search builds nothing."""

    def _built(self, data, scheme):
        index = IVFIndex(
            16, "l2", nlist=8, nprobe=8, quantizer=make_quantizer(scheme, 16)
        )
        index.train(data)
        index.add(data)
        return index

    @pytest.mark.parametrize("scheme", ["sq8", "pq4"])
    def test_first_search_triggers_no_compaction(self, scheme, data, queries, tmp_path):
        index = self._built(data, scheme)
        path = tmp_path / "idx.npz"
        save_ivf(index, path)
        loaded = load_index(path)
        sealed = loaded._sealed
        loaded.search(queries, 5)
        assert loaded._sealed is sealed

    def test_code_sqnorms_persisted_for_adc_l2(self, data, tmp_path):
        # SQ under L2 needs per-code squared norms -- an expensive full
        # decode pass if recomputed; the save must carry them. (PQ embeds
        # the norm terms in its per-query ADC tables instead.)
        index = self._built(data, "sq8")
        path = tmp_path / "idx.npz"
        save_ivf(index, path)
        with np.load(path) as saved:
            np.testing.assert_array_equal(
                saved["code_sqnorms"], index.export_state()[1]["code_sqnorms"]
            )

    def test_save_computes_missing_sqnorms(self, data, tmp_path):
        # Saving right after build (no search ran) must persist the norms
        # rather than leaving the cost to the loader.
        index = self._built(data, "sq8")
        save_ivf(index, tmp_path / "idx.npz")
        with np.load(tmp_path / "idx.npz") as saved:
            assert saved["code_sqnorms"].shape == (index.ntotal,)
