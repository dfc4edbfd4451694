"""Tests for the IVF index."""

import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.ann.flat import FlatIndex
from repro.ann.ivf import IVFIndex, default_nlist
from repro.ann.quantization import make_quantizer
from repro.core.clustering import IndexShard
from repro.metrics.recall import recall_at_k
from tests.oracles import dead_view, ivf_search_reference


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=4, size=(8, 24))
    return np.concatenate(
        [centers[i] + rng.normal(size=(150, 24)) for i in range(8)]
    ).astype(np.float32)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(1)
    return data[rng.choice(len(data), 16, replace=False)] + 0.01


@pytest.fixture(scope="module")
def truth(data, queries):
    flat = FlatIndex(24)
    flat.add(data)
    return flat.search(queries, 5)[1]


def trained_ivf(data, **kwargs):
    index = IVFIndex(24, **kwargs)
    index.train(data)
    index.add(data)
    return index


class TestDefaults:
    def test_default_nlist_sqrt(self):
        assert default_nlist(10000) == 100

    def test_default_nlist_minimum_one(self):
        assert default_nlist(0) == 1

    def test_nlist_inferred_at_train(self, data):
        index = trained_ivf(data)
        assert index.nlist == default_nlist(len(data))


class TestLifecycle:
    def test_search_before_train_raises(self, data):
        with pytest.raises(RuntimeError, match="train"):
            IVFIndex(24).search(data[:1], 1)

    def test_add_before_train_raises(self, data):
        with pytest.raises(RuntimeError, match="train"):
            IVFIndex(24).add(data)

    def test_train_smaller_than_nlist_raises(self):
        index = IVFIndex(4, nlist=100)
        with pytest.raises(ValueError, match="smaller than nlist"):
            index.train(np.zeros((10, 4), dtype=np.float32))

    def test_list_sizes_sum_to_ntotal(self, data):
        index = trained_ivf(data, nlist=16)
        assert index.list_sizes().sum() == index.ntotal == len(data)

    def test_incremental_add_preserves_ids(self, data):
        index = IVFIndex(24, nlist=16, nprobe=16)
        index.train(data)
        index.add(data[:100])
        ids = index.add(data[100:200])
        assert ids[0] == 100
        _, found = index.search(data[150:151], 1)
        assert found[0, 0] == 150


class TestSearchQuality:
    def test_full_probe_matches_exact(self, data, queries, truth):
        index = trained_ivf(data, nlist=16)
        _, ids = index.search(queries, 5, nprobe=16)
        assert recall_at_k(ids, truth) > 0.99

    def test_recall_increases_with_nprobe(self, data, queries, truth):
        index = trained_ivf(data, nlist=32)
        recalls = []
        for nprobe in (1, 4, 16, 32):
            _, ids = index.search(queries, 5, nprobe=nprobe)
            recalls.append(recall_at_k(ids, truth))
        assert recalls == sorted(recalls)
        assert recalls[-1] > recalls[0]

    def test_nprobe_override_beats_default(self, data, queries, truth):
        index = trained_ivf(data, nlist=32, nprobe=1)
        _, low = index.search(queries, 5)
        _, high = index.search(queries, 5, nprobe=32)
        assert recall_at_k(high, truth) >= recall_at_k(low, truth)

    def test_sq8_payload_keeps_recall(self, data, queries, truth):
        index = trained_ivf(
            data, nlist=16, quantizer=make_quantizer("sq8", 24)
        )
        _, ids = index.search(queries, 5, nprobe=16)
        assert recall_at_k(ids, truth) > 0.95

    def test_k_larger_than_candidates_pads(self, data):
        index = trained_ivf(data, nlist=16)
        dists, ids = index.search(data[:1], len(data) + 10, nprobe=1)
        assert (ids[0] == -1).any()

    def test_invalid_nprobe_rejected(self, data):
        index = trained_ivf(data, nlist=16)
        with pytest.raises(ValueError):
            index.search(data[:1], 1, nprobe=0)


class TestCompaction:
    """Rows are sealed when they are written: the record a search reads is
    complete when it is published, and no search publishes another."""

    def test_repeated_search_does_not_recompact(self, data, queries):
        """After each way rows become searchable — add, from_state,
        install_rows, a shard compaction — searches, masked or not, leave
        the published record the very same object."""
        built = trained_ivf(data, nlist=16, quantizer=make_quantizer("sq8", 24))
        installed = built.fresh_sealed_like()
        installed.install_rows(*built.rows_by_local_id())
        n = len(data)
        shard = IndexShard(0, trained_ivf(data, nlist=16), np.arange(n), data.mean(axis=0))
        shard.insert(queries, np.arange(n, n + len(queries)))
        shard.delete(np.array([3]))
        assert shard.compact()
        loaded = IVFIndex.from_state(*built.export_state())
        for index in (built, loaded, installed, shard.index):
            sealed = index._sealed
            for k, nprobe in ((1, 1), (5, 4), (5, 16)):
                index.search(queries, k, nprobe=nprobe)
            index.search(queries, 5, live=dead_view(index, np.array([0, 7])))
            assert index._sealed is sealed

    def test_incremental_adds_match_single_add(self, data):
        whole = trained_ivf(data, nlist=16, nprobe=16)
        split = IVFIndex(24, nlist=16, nprobe=16)
        split.train(data)
        split.add(data[:500])
        split.search(data[:2], 3)  # a search between the adds
        split.add(data[500:])
        d1, i1 = whole.search(data[:8], 5)
        d2, i2 = split.search(data[:8], 5)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2, rtol=1e-4, atol=1e-4)

    def test_cell_codes_are_contiguous_views(self, data):
        index = trained_ivf(data, nlist=16)
        codes, ids = index.cell_codes(0)
        assert codes.base is index.export_state()[1]["codes"] or len(codes) == 0
        assert len(codes) == len(ids)


class TestSealedRecordSwap:
    """Writers publish a new sealed record instead of editing the one a scan
    may be holding."""

    @pytest.mark.parametrize("scheme", ["sq8", "pq8"])
    @pytest.mark.parametrize("rebuild", ["install_rows", "add", "masked_search"])
    def test_scan_survives_a_concurrent_rebuild(self, data, queries, scheme, rebuild):
        """A scan that already holds the sealed storage finishes on it while
        another thread publishes a new record — rows installed in reverse
        local-id order, or more rows added, either of which moves stored
        rows — or runs a masked search of its own."""
        index = trained_ivf(
            data, nlist=16, nprobe=16, quantizer=make_quantizer(scheme, 24)
        )
        ref_d, ref_i = ivf_search_reference(index, queries, 5)
        real = index.quantizer.adc_distances
        fired = []

        def write():
            if rebuild == "install_rows":
                codes, cells = index.rows_by_local_id()
                index.install_rows(codes[::-1], cells[::-1])
            elif rebuild == "add":
                index.add(data[:50] + 0.5)
            else:
                index.search(queries, 5, live=dead_view(index, np.array([0])))

        def rebuild_then_scan(*args, **kwargs):
            if not fired:  # from inside the outer search's first kernel
                fired.append(True)
                worker = threading.Thread(target=write)
                worker.start()
                worker.join(timeout=30)
                assert not worker.is_alive()
            return real(*args, **kwargs)

        index.quantizer.adc_distances = rebuild_then_scan
        try:
            dists, ids = index.search(queries, 5)
        finally:
            del index.quantizer.adc_distances
        assert fired
        np.testing.assert_array_equal(ids, ref_i)
        np.testing.assert_allclose(dists, ref_d, rtol=1e-3, atol=5e-3)


def test_only_ivf_module_names_sealed_storage_fields():
    """Layout fence: everything outside ``ann/ivf.py`` reaches the sealed
    storage through export_state / from_state / rows_by_local_id — and names
    deleted rows by local id (``dead_columns``), never by storage row: the
    record and its id → row ``positions`` map stay in the one module."""
    import repro

    # (?<!\w): the attribute, not e.g. ``needs_code_sqnorms`` / ``_dead_sealed``.
    fenced = re.compile(
        r"(?<!\w)(_cell_offsets|_code_cells|_code_sqnorms"
        r"|_sealed|SealedLists)\b"
        r"|\.positions\b"
    )
    root = Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path != root / "ann" / "ivf.py" and fenced.search(path.read_text())
    ]
    assert offenders == []


class TestMemory:
    def test_sq8_smaller_than_flat_payload(self, data):
        flat_payload = trained_ivf(data, nlist=16)
        sq8 = trained_ivf(data, nlist=16, quantizer=make_quantizer("sq8", 24))
        assert sq8.memory_bytes() < flat_payload.memory_bytes()

    def test_memory_grows_with_vectors(self, data):
        small = trained_ivf(data[:200], nlist=8)
        large = trained_ivf(data, nlist=8)
        assert large.memory_bytes() > small.memory_bytes()
