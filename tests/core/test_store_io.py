"""Tests for clustered-datastore persistence."""

import json
import threading

import numpy as np
import pytest

import repro.core.store_io as store_io
from repro.core.store_io import _atomic_write, load_datastore, save_datastore
from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.embeddings import make_corpus


@pytest.fixture()
def mutable_store():
    """A small private datastore safe to mutate (the shared one is not)."""
    corpus = make_corpus(600, n_topics=4, dim=32, seed=21)
    config = HermesConfig(n_clusters=3, clusters_to_search=3, nlist=8)
    return cluster_datastore(corpus.embeddings, config)


def test_first_search_builds_nothing(mutable_store, small_queries, tmp_path):
    """A built or loaded datastore is sealed: its first search publishes no
    new record on any shard."""
    save_datastore(mutable_store, tmp_path / "store")
    for store in (mutable_store, load_datastore(tmp_path / "store")):
        before = [shard.index._sealed for shard in store.shards]
        HermesSearcher(store).search(small_queries.embeddings[:8])
        assert all(shard.index._sealed is s for shard, s in zip(store.shards, before))


class TestDatastoreRoundTrip:
    def test_structure_preserved(self, clustered, tmp_path):
        save_datastore(clustered, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")
        assert loaded.n_clusters == clustered.n_clusters
        assert loaded.ntotal == clustered.ntotal
        assert np.array_equal(loaded.assignments, clustered.assignments)
        assert np.array_equal(loaded.sizes(), clustered.sizes())
        assert loaded.config == clustered.config

    def test_search_identical(self, clustered, small_queries, tmp_path):
        save_datastore(clustered, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")
        original = HermesSearcher(clustered).search(small_queries.embeddings[:8])
        reloaded = HermesSearcher(loaded).search(small_queries.embeddings[:8])
        assert np.array_equal(original.ids, reloaded.ids)
        assert np.allclose(original.distances, reloaded.distances, atol=1e-5)

    def test_centroids_preserved(self, clustered, tmp_path):
        save_datastore(clustered, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")
        assert np.allclose(loaded.centroids(), clustered.centroids())

    def test_warm_scan_state_survives_round_trip(self, clustered, tmp_path):
        # save_datastore delegates to save_ivf, which writes the scan state
        # a loader would otherwise recompute: ADC norms iff the codec needs
        # them, and nothing a scan does not read.
        save_datastore(clustered, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")
        for shard in loaded.shards:
            index = shard.index
            norms = index.quantizer.needs_code_sqnorms(index.metric)
            _, arrays = index.export_state()
            with np.load(tmp_path / "store" / f"shard_{shard.shard_id}.npz") as saved:
                for names in (set(arrays), set(saved.files) - {"header"}):
                    assert ("code_sqnorms" in names) == norms
                    assert "code_radii" not in names

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sample_k", 3),
            ("kmeans_algorithm", "auto"),
            ("kmeans_batch_size", 4096),
            ("quantizer_train_sample", 16_384),
            ("search_workers_mode", "process"),
        ],
    )
    def test_manifest_from_before_sample_k_was_deleted_loads(
        self, clustered, small_queries, tmp_path, key, value
    ):
        # Stores (and build-cache entries) written while HermesConfig still
        # had a since-deleted knob carry it in their manifest, with the value
        # they were saved with.
        save_datastore(clustered, tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_datastore(tmp_path / "store")
        assert loaded.config == clustered.config
        queries = small_queries.embeddings[:8]
        assert np.array_equal(
            HermesSearcher(loaded).search(queries).ids,
            HermesSearcher(clustered).search(queries).ids,
        )

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_datastore(tmp_path / "nothing")


class TestMutationStateRoundTrip:
    def test_delta_tombstones_and_counters_survive(self, mutable_store, tmp_path):
        rng = np.random.default_rng(7)
        fresh = rng.normal(size=(9, 32)).astype(np.float32)
        new_ids = mutable_store.add_documents(fresh)
        mutable_store.delete_documents([3, 17, int(new_ids[0])])
        assert mutable_store.delta_rows() > 0

        save_datastore(mutable_store, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")

        assert loaded.mutations == mutable_store.mutations
        assert loaded.delta_rows() == mutable_store.delta_rows()
        for orig, back in zip(mutable_store.shards, loaded.shards):
            assert back.generation == orig.generation
            assert back.tombstones == orig.tombstones
        # The reloaded live shard serves bit-identical ids.
        queries = rng.normal(size=(6, 32)).astype(np.float32)
        original = HermesSearcher(mutable_store).search(queries, k=5)
        reloaded = HermesSearcher(loaded).search(queries, k=5)
        assert np.array_equal(original.ids, reloaded.ids)
        assert np.array_equal(original.distances, reloaded.distances)

    @pytest.mark.parametrize("quantization", ["flat", "sq4"])
    def test_delta_codes_keep_the_codec_dtype(self, quantization, tmp_path):
        # A flat codec's delta rows are float32: a restore that cast them to
        # uint8 served other documents after a save / load.
        corpus = make_corpus(800, n_topics=4, dim=32, seed=22)
        store = cluster_datastore(
            corpus.embeddings,
            HermesConfig(
                n_clusters=2, clusters_to_search=2, nlist=8, quantization=quantization
            ),
        )
        fresh = np.random.default_rng(9).normal(size=(5, 32)).astype(np.float32)
        store.add_documents(fresh)
        save_datastore(store, tmp_path / "store")
        loaded = load_datastore(tmp_path / "store")
        for orig, back in zip(store.shards, loaded.shards):
            if orig.delta is not None:
                assert back.delta.codes.dtype == orig.delta.codes.dtype
                np.testing.assert_array_equal(back.delta.codes, orig.delta.codes)
        for k in (1, 5):
            original = HermesSearcher(store).search(fresh, k=k)
            reloaded = HermesSearcher(loaded).search(fresh, k=k)
            np.testing.assert_array_equal(reloaded.ids, original.ids)
            np.testing.assert_array_equal(reloaded.distances, original.distances)

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("delta_codes", lambda codes, cells: (codes[:, :-1], cells)),
            ("delta_cells", lambda codes, cells: (codes, cells[:-1])),
            ("delta_cells", lambda codes, cells: (codes, np.full_like(cells, 8))),
        ],
        ids=["code_width", "length", "cell_range"],
    )
    def test_corrupt_sidecar_names_the_field(
        self, mutable_store, tmp_path, field, corrupt
    ):
        mutable_store.add_documents(
            np.random.default_rng(11).normal(size=(6, 32)).astype(np.float32)
        )
        save_datastore(mutable_store, tmp_path / "store")
        sidecar = next((tmp_path / "store").glob("mutation_*.npz"))
        with np.load(sidecar) as data:
            arrays = dict(data)
        arrays["delta_codes"], arrays["delta_cells"] = corrupt(
            arrays["delta_codes"], arrays["delta_cells"]
        )
        np.savez(sidecar, **arrays)
        with pytest.raises(ValueError, match=field):
            load_datastore(tmp_path / "store")

    def test_compacted_store_writes_no_sidecars(self, mutable_store, tmp_path):
        mutable_store.add_documents(
            np.random.default_rng(8).normal(size=(4, 32)).astype(np.float32)
        )
        mutable_store.compact()
        save_datastore(mutable_store, tmp_path / "store")
        assert not list((tmp_path / "store").glob("mutation_*.npz"))
        loaded = load_datastore(tmp_path / "store")
        assert loaded.mutations == mutable_store.mutations
        assert loaded.delta_rows() == 0

    def test_pre_format5_directory_loads_clean(self, clustered, tmp_path):
        # A directory written before live mutation existed has no
        # "mutations" key, no per-shard "generation", and no sidecars.
        save_datastore(clustered, tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["mutations"]
        for entry in manifest["shards"]:
            del entry["generation"]
        manifest_path.write_text(json.dumps(manifest))

        loaded = load_datastore(tmp_path / "store")
        assert loaded.mutations == 0
        assert loaded.delta_rows() == 0
        assert all(s.generation == 0 for s in loaded.shards)
        assert all(not s.has_mutations for s in loaded.shards)


class TestConcurrentSave:
    def test_save_during_concurrent_mutation_loads_clean(
        self, mutable_store, tmp_path
    ):
        # save_datastore quiesces each shard while writing it, so a save
        # racing live mutations must still persist a consistent cut per
        # shard. IndexShard.__post_init__ rejects torn shards (ids array vs
        # sealed+delta rows), so a successful load proves consistency.
        stop = threading.Event()
        failures: list = []

        def mutator():
            r = np.random.default_rng(23)
            n = 0
            try:
                while not stop.is_set():
                    ids = mutable_store.add_documents(
                        r.normal(size=(2, 32)).astype(np.float32)
                    )
                    mutable_store.delete_documents(ids[:1])
                    n += 1
                    if n % 3 == 0:
                        mutable_store.compact()
            except Exception as exc:  # pragma: no cover - the failure signal
                failures.append(exc)

        worker = threading.Thread(target=mutator)
        worker.start()
        try:
            for i in range(3):
                save_datastore(mutable_store, tmp_path / f"store_{i}")
        finally:
            stop.set()
            worker.join()
        assert not failures, failures
        for i in range(3):
            loaded = load_datastore(tmp_path / f"store_{i}")
            assert loaded.ntotal > 0


class TestAtomicWrites:
    def test_atomic_write_preserves_old_contents_on_crash(self, tmp_path):
        target = tmp_path / "blob.bin"
        _atomic_write(target, lambda f: f.write(b"generation one"))

        def crashing_writer(f):
            f.write(b"partial garbage")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            _atomic_write(target, crashing_writer)
        assert target.read_bytes() == b"generation one"
        assert not list(tmp_path.glob("*.tmp"))

    def test_crashed_resave_leaves_store_loadable(
        self, mutable_store, tmp_path, monkeypatch
    ):
        # Save a good store, then crash a second save mid-shard: the
        # directory must still load as the *first* complete store.
        store_dir = tmp_path / "store"
        save_datastore(mutable_store, store_dir)
        before = load_datastore(store_dir)

        calls = {"n": 0}
        real_save_ivf = store_io.save_ivf

        def flaky_save_ivf(index, f):
            calls["n"] += 1
            if calls["n"] == 2:
                f.write(b"\x00" * 16)  # partial bytes, then the "crash"
                raise OSError("injected crash mid-write")
            real_save_ivf(index, f)

        monkeypatch.setattr(store_io, "save_ivf", flaky_save_ivf)
        mutable_store.delete_documents([0, 1])
        with pytest.raises(OSError, match="injected crash"):
            save_datastore(mutable_store, store_dir)
        monkeypatch.undo()

        after = load_datastore(store_dir)
        assert not list(store_dir.glob("*.tmp"))
        assert after.mutations == before.mutations
        assert after.ntotal == before.ntotal
        for a, b in zip(after.shards, before.shards):
            assert np.array_equal(a.global_ids, b.global_ids)
            assert a.tombstones == b.tombstones
