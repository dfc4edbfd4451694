"""Mutation-equivalence layer: live shards vs a flat brute-force oracle.

The contract (``repro/ann/delta.py``): at every point of any interleaving of
inserts, deletes, searches, and compactions, a live shard's search must
return exactly the ids a flat brute-force scan over the decoded *live*
vectors (in insertion order, stable tie-break) would return — and the same
ids must survive compaction and match a rebuild-from-scratch over the live
set. Hypothesis drives random schedules across codecs and metrics; explicit
tests cover duplicates, delete-then-reinsert, and inline / threaded fan-out
parity.
"""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.delta import DeltaIndex
from repro.ann.distances import pairwise_distance, top_k
from repro.ann.ivf import IVFIndex
from repro.ann.quantization import make_quantizer
from repro.core.clustering import IndexShard
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import disable_tracing, enable_tracing
from tests.oracles import live_shard_two_scan_oracle

DIM = 16
NLIST = 6
K = 10
ACTIONS = ("insert", "dup", "delete", "reinsert", "compact")


def build_shard(scheme: str, metric: str, base: np.ndarray) -> IndexShard:
    index = IVFIndex(
        DIM,
        metric,
        nlist=NLIST,
        nprobe=NLIST,  # full probe: the regime where equivalence is exact
        quantizer=make_quantizer(scheme, DIM),
        train_seed=0,
    )
    index.train(base)
    index.add(base)
    return IndexShard(
        shard_id=0,
        index=index,
        global_ids=np.arange(len(base), dtype=np.int64),
        centroid=base.mean(axis=0),
    )


class FlatOracle:
    """Ground truth: brute force over decoded live vectors, insertion order.

    Stores every raw vector by global id; a search decodes the encoded live
    set (the same lossy codes the shard serves) and ranks with the stable
    ``top_k``, so exact distance ties resolve to the earliest insertion —
    the order the shard's sealed-first merge must reproduce.
    """

    def __init__(self, quantizer, metric: str, base: np.ndarray) -> None:
        self.quantizer = quantizer
        self.metric = metric
        self.raw = [row.copy() for row in base]
        self.live = list(range(len(base)))

    def insert(self, vectors: np.ndarray) -> np.ndarray:
        ids = np.arange(len(self.raw), len(self.raw) + len(vectors), dtype=np.int64)
        for row in vectors:
            self.live.append(len(self.raw))
            self.raw.append(np.asarray(row, dtype=np.float32).copy())
        return ids

    def delete(self, global_ids) -> None:
        doomed = {int(g) for g in global_ids}
        self.live = [g for g in self.live if g not in doomed]

    def search(self, queries: np.ndarray, k: int):
        ids = np.asarray(self.live, dtype=np.int64)
        if not len(ids):
            nq = len(queries)
            return (
                np.full((nq, k), np.inf, dtype=np.float32),
                np.full((nq, k), -1, dtype=np.int64),
            )
        stacked = np.stack([self.raw[g] for g in self.live])
        decoded = self.quantizer.decode(self.quantizer.encode(stacked))
        dists = pairwise_distance(
            np.asarray(queries, dtype=np.float32), decoded, self.metric
        )
        out_d, cols = top_k(dists, k)
        out_i = np.where(cols >= 0, ids[np.clip(cols, 0, None)], -1)
        out_d = np.where(out_i < 0, np.inf, out_d)
        return out_d, out_i


def assert_ids_match_up_to_duplicate_ties(got_i, want_i, oracle: FlatOracle):
    """Ids must match exactly — except inside groups of identical codes.

    Two documents encoding to the same code have mathematically equal
    distances, but BLAS kernels round identical columns differently
    depending on their position in the matrix (remainder lanes), so the
    order *within* such a duplicate group is implementation-defined. Any
    columnwise mismatch must therefore be between code-identical documents.
    """
    if np.array_equal(got_i, want_i):
        return
    got_i = np.atleast_2d(got_i)
    want_i = np.atleast_2d(want_i)
    for row, col in zip(*np.nonzero(got_i != want_i)):
        a, b = int(got_i[row, col]), int(want_i[row, col])
        assert a >= 0 and b >= 0, f"padding mismatch at ({row}, {col}): {a} vs {b}"
        code_a = oracle.quantizer.encode(oracle.raw[a][np.newaxis]).tobytes()
        code_b = oracle.quantizer.encode(oracle.raw[b][np.newaxis]).tobytes()
        assert code_a == code_b, (
            f"ids differ at ({row}, {col}): {a} vs {b}, and they are not "
            "code-identical duplicates"
        )


def assert_shard_matches_oracle(shard: IndexShard, oracle: FlatOracle, queries):
    got_d, got_i = shard.search(queries, K)
    want_d, want_i = oracle.search(queries, K)
    assert_ids_match_up_to_duplicate_ties(got_i, want_i, oracle)
    finite = np.isfinite(want_d)
    np.testing.assert_array_equal(finite, np.isfinite(got_d))
    # ids exact (up to duplicate ties); distances only up to ADC-vs-decode
    # fp32 reassociation noise.
    np.testing.assert_allclose(
        got_d[finite], want_d[finite], rtol=1e-3, atol=5e-3
    )


def rebuild_from_scratch(shard: IndexShard, oracle: FlatOracle) -> IVFIndex:
    """(c): an offline build over the current live raw vectors."""
    fresh = shard.index.fresh_sealed_like()
    if oracle.live:
        fresh.add(np.stack([oracle.raw[g] for g in oracle.live]))
    return fresh


def apply_action(action, shard, oracle, rng, graveyard):
    """One schedule step, mirrored on shard and oracle."""
    if action == "insert":
        vecs = rng.normal(size=(int(rng.integers(1, 5)), DIM)).astype(np.float32)
    elif action == "dup":
        if not oracle.live:
            return
        pick = int(rng.choice(np.asarray(oracle.live)))
        vecs = oracle.raw[pick][np.newaxis].repeat(2, axis=0)
    elif action == "reinsert":
        if not graveyard:
            return
        vecs = graveyard.pop()[np.newaxis]
    elif action == "delete":
        if not oracle.live:
            return
        n = min(len(oracle.live), int(rng.integers(1, 4)))
        victims = rng.choice(np.asarray(oracle.live), size=n, replace=False)
        graveyard.extend(oracle.raw[int(g)] for g in victims)
        shard.delete(victims)
        oracle.delete(victims)
        return
    elif action == "compact":
        shard.compact()
        return
    else:  # pragma: no cover - strategy only emits the actions above
        raise AssertionError(action)
    ids = oracle.insert(vecs)
    shard.insert(vecs, ids)


class TestScheduleEquivalence:
    """Random mutation schedules, checked against the oracle at every step."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize("scheme", ["flat", "sq8", "pq4"])
    @given(
        seed=st.integers(0, 2**31 - 1),
        schedule=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=10),
    )
    @settings(deadline=None)
    def test_matches_oracle_at_every_step(self, metric, scheme, seed, schedule):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(48, DIM)).astype(np.float32)
        shard = build_shard(scheme, metric, base)
        oracle = FlatOracle(shard.index.quantizer, metric, base)
        queries = rng.normal(size=(3, DIM)).astype(np.float32)
        graveyard: list = []

        assert_shard_matches_oracle(shard, oracle, queries)
        for action in schedule:
            apply_action(action, shard, oracle, rng, graveyard)
            assert_shard_matches_oracle(shard, oracle, queries)

        # (b): compaction must not change a single id (up to duplicate ties,
        # which move between the delta and sealed scan kernels).
        live_d, live_i = shard.search(queries, K)
        shard.compact()
        assert not shard.has_mutations
        comp_d, comp_i = shard.search(queries, K)
        assert_ids_match_up_to_duplicate_ties(live_i, comp_i, oracle)
        np.testing.assert_allclose(live_d, comp_d, rtol=1e-3, atol=5e-3)
        assert_shard_matches_oracle(shard, oracle, queries)

        # (c): the compacted index is bit-identical to an offline rebuild
        # over the live set — same codes, same cells, same CSR layout.
        rebuilt = rebuild_from_scratch(shard, oracle)
        reb_d, reb_pos = rebuilt.search(queries, K)
        live_ids = np.asarray(oracle.live, dtype=np.int64)
        reb_i = np.where(reb_pos >= 0, live_ids[np.clip(reb_pos, 0, None)], -1)
        np.testing.assert_array_equal(comp_i, reb_i)
        np.testing.assert_array_equal(comp_d, reb_d)


class TestExplicitEdges:
    """Deterministic regressions for the hairiest schedule shapes."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_duplicates_straddling_the_delta_boundary(self, metric):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(30, DIM)).astype(np.float32)
        shard = build_shard("sq8", metric, base)
        oracle = FlatOracle(shard.index.quantizer, metric, base)
        # Same vector on both sides of the sealed/delta boundary.
        dup = base[7][np.newaxis].repeat(3, axis=0)
        ids = oracle.insert(dup)
        shard.insert(dup, ids)
        q = base[7][np.newaxis] + 1e-4
        assert_shard_matches_oracle(shard, oracle, q)
        # All four code-identical copies (sealed original + three delta rows)
        # outrank everything else; their internal order is kernel-defined.
        expected_group = {7, *ids.tolist()}
        _, got_i = shard.search(q, 5)
        assert set(got_i[0, :4].tolist()) == expected_group
        shard.compact()
        assert_shard_matches_oracle(shard, oracle, q)
        _, got_i = shard.search(q, 5)
        assert set(got_i[0, :4].tolist()) == expected_group

    def test_delete_then_reinsert_gets_a_fresh_id(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(30, DIM)).astype(np.float32)
        shard = build_shard("flat", "l2", base)
        oracle = FlatOracle(shard.index.quantizer, "l2", base)
        victim = base[11].copy()
        shard.delete([11])
        oracle.delete([11])
        q = victim[np.newaxis]
        _, before = shard.search(q, 3)
        assert 11 not in before
        ids = oracle.insert(victim[np.newaxis])
        shard.insert(victim[np.newaxis], ids)
        assert ids[0] == 30  # ids are never reused
        assert_shard_matches_oracle(shard, oracle, q)
        _, after = shard.search(q, 3)
        assert after[0, 0] == 30
        shard.compact()
        assert_shard_matches_oracle(shard, oracle, q)

    def test_double_delete_raises(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(20, DIM)).astype(np.float32)
        shard = build_shard("flat", "l2", base)
        shard.delete([3])
        with pytest.raises(KeyError, match="already deleted"):
            shard.delete([3])
        with pytest.raises(KeyError, match="unknown"):
            shard.delete([999])

    def test_delete_everything_then_search(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(12, DIM)).astype(np.float32)
        shard = build_shard("sq8", "l2", base)
        oracle = FlatOracle(shard.index.quantizer, "l2", base)
        shard.delete(np.arange(12))
        oracle.delete(np.arange(12))
        q = rng.normal(size=(2, DIM)).astype(np.float32)
        assert len(shard) == 0
        assert_shard_matches_oracle(shard, oracle, q)
        shard.compact()
        assert shard.index.ntotal == 0
        assert_shard_matches_oracle(shard, oracle, q)
        # the emptied shard accepts new documents again
        vecs = rng.normal(size=(5, DIM)).astype(np.float32)
        ids = oracle.insert(vecs)
        shard.insert(vecs, ids)
        assert_shard_matches_oracle(shard, oracle, q)


class TestConcurrentMutation:
    """Interleaved-thread races: the equivalence contract must hold not just
    for sequential schedules but when mutations, searches, and compactions
    genuinely overlap in time."""

    def test_mutation_during_compaction_blocks_and_survives(self, monkeypatch):
        # Freeze a compaction inside its rebuild window (after the fresh
        # index is sealed, before the swap) and fire an insert + a delete at
        # the shard. Both must block on the mutation lock until the swap —
        # the unserialized version let them update the pre-swap state, which
        # the swap then silently discarded (lost inserts, resurrected
        # deletes).
        rng = np.random.default_rng(20)
        base = rng.normal(size=(40, DIM)).astype(np.float32)
        shard = build_shard("flat", "l2", base)
        oracle = FlatOracle(shard.index.quantizer, "l2", base)
        seed_vecs = rng.normal(size=(3, DIM)).astype(np.float32)
        shard.insert(seed_vecs, oracle.insert(seed_vecs))

        in_rebuild = threading.Event()
        resume = threading.Event()
        real_install = IVFIndex.install_rows

        def stalled_install(index, codes, cells):
            real_install(index, codes, cells)
            in_rebuild.set()
            assert resume.wait(timeout=10)

        monkeypatch.setattr(IVFIndex, "install_rows", stalled_install)
        compactor = threading.Thread(target=shard.compact)
        compactor.start()
        assert in_rebuild.wait(timeout=10)

        late_vecs = rng.normal(size=(2, DIM)).astype(np.float32)
        late_ids = oracle.insert(late_vecs)
        oracle.delete([5])
        inserter = threading.Thread(target=shard.insert, args=(late_vecs, late_ids))
        deleter = threading.Thread(target=shard.delete, args=([5],))
        inserter.start()
        deleter.start()
        inserter.join(timeout=0.3)
        deleter.join(timeout=0.3)
        assert inserter.is_alive(), "insert slipped into the rebuild window"
        assert deleter.is_alive(), "delete slipped into the rebuild window"

        resume.set()
        for t in (compactor, inserter, deleter):
            t.join(timeout=10)
            assert not t.is_alive()

        queries = rng.normal(size=(3, DIM)).astype(np.float32)
        assert_shard_matches_oracle(shard, oracle, queries)
        _, got = shard.search(base[5][np.newaxis], K)
        assert 5 not in got  # the late delete stuck
        _, got = shard.search(late_vecs[:1], 3)
        assert late_ids[0] in got  # the late insert stuck
        shard.compact()  # folding the late mutations stays equivalent too
        assert_shard_matches_oracle(shard, oracle, queries)

    def test_search_stays_consistent_under_concurrent_mutation(self):
        # Hammer searches while another thread appends delta rows and
        # periodically compacts. Every search must see one point-in-time cut:
        # the unsnapshotted version could scan delta rows past its id
        # snapshot (IndexError / wrong global ids) or mix a post-compaction
        # sealed index with pre-compaction delta state.
        rng = np.random.default_rng(21)
        base = rng.normal(size=(48, DIM)).astype(np.float32)
        shard = build_shard("sq8", "l2", base)
        oracle = FlatOracle(shard.index.quantizer, "l2", base)
        queries = rng.normal(size=(3, DIM)).astype(np.float32)
        inserted: list = []
        failures: list = []

        def mutator():
            try:
                r = np.random.default_rng(22)
                next_id = len(base)
                for step in range(50):
                    vecs = r.normal(size=(2, DIM)).astype(np.float32)
                    shard.insert(
                        vecs, np.arange(next_id, next_id + 2, dtype=np.int64)
                    )
                    inserted.append(vecs)
                    next_id += 2
                    if step % 10 == 9:
                        shard.compact()
            except Exception as exc:  # pragma: no cover - the failure signal
                failures.append(exc)

        worker = threading.Thread(target=mutator)
        worker.start()
        max_id = len(base) + 2 * 50
        while worker.is_alive():
            dists, gids = shard.search(queries, K)
            # The 48 sealed rows are always live, so top-10 must come back
            # full with in-range ids at every instant.
            assert np.isfinite(dists).all()
            assert (gids >= 0).all() and (gids < max_id).all()
        worker.join()
        assert not failures, failures
        for vecs in inserted:
            oracle.insert(vecs)
        assert_shard_matches_oracle(shard, oracle, queries)


    def test_readers_never_see_rows_an_append_is_writing(self):
        """Delta rows are views of arrays the writer appends past and
        regrows. Two readers scan while one writer inserts row by row (three
        threads on a two-core box, a 1 µs switch interval): every returned
        id's distance must be its own row's, so a reader that saw a row half
        written, or a view that moved under it, shows up as a mismatch."""
        rng = np.random.default_rng(23)
        base = rng.normal(size=(40, DIM)).astype(np.float32)
        shard = build_shard("flat", "ip", base)
        fresh = rng.normal(size=(300, DIM)).astype(np.float32) * 3.0
        rows = np.concatenate([base, fresh])  # flat codes: row = global id
        queries = fresh[rng.choice(300, 4)] + 0.01
        stop = threading.Event()
        failures: list = []

        def writer():
            try:
                for i in range(len(fresh)):
                    shard.insert(fresh[i : i + 1], np.array([40 + i]))
                    if i % 97 == 96:
                        shard.delete(np.array([40 + i - 50]))
            except Exception as exc:  # pragma: no cover - the failure signal
                failures.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    dists, gids = shard.search(queries, 5, nprobe=NLIST)
                    want = -np.einsum("qd,qkd->qk", queries, rows[gids])
                    np.testing.assert_allclose(dists, want, rtol=1e-4, atol=1e-4)
            except Exception as exc:  # pragma: no cover - the failure signal
                failures.append(exc)
                stop.set()

        threads = [threading.Thread(target=f) for f in (writer, reader, reader)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures
        assert shard.delta.ntotal == 300


class TestWorkerModeParity:
    """Inline and thread-pool deep searches must agree under mutation, and
    neither may serve a tombstoned id, before or after a compaction."""

    def test_inline_and_threaded_bit_identical_after_mutation(self):
        for tombstones in ("sealed", "delta", "both"):
            self.check_parity(tombstones)

    def check_parity(self, tombstones):
        from repro.core.clustering import cluster_datastore
        from repro.core.config import HermesConfig
        from repro.core.hierarchical import HermesSearcher

        from repro.datastore.embeddings import make_corpus

        corpus = make_corpus(400, n_topics=4, dim=DIM, seed=9)
        config = HermesConfig(n_clusters=2, clusters_to_search=2, nlist=4)
        datastore = cluster_datastore(corpus.embeddings, config)
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(6, DIM)).astype(np.float32)
        # Inserts that win (the queries themselves), so deleting some of them
        # puts tombstones where the delta scan would otherwise answer.
        fresh = np.concatenate([rng.normal(size=(8, DIM)).astype(np.float32), queries])
        new_ids = datastore.add_documents(fresh)
        doomed = []
        if tombstones in ("sealed", "both"):
            served = HermesSearcher(datastore, config=config).search(queries, k=5).ids
            doomed.append(np.setdiff1d(served[:, :3], new_ids))  # sealed winners
            doomed.append(np.setdiff1d(rng.choice(400, 8, replace=False), doomed[0]))
        if tombstones in ("delta", "both"):
            doomed.append(new_ids[[0, 3, 8, 9, 13]])
        doomed = np.concatenate(doomed)
        datastore.delete_documents(doomed)
        for shard in datastore.shards:
            dead = np.array(sorted(shard.tombstones))
            assert (dead < shard.index.ntotal).any() == (tombstones != "delta")
            assert (dead >= shard.index.ntotal).any() == (tombstones != "sealed")

        inline = HermesSearcher(datastore, config=config)
        threaded = HermesSearcher(datastore, config=config, max_workers=2)
        base = inline.search(queries, k=5)
        result = threaded.search(queries, k=5)
        np.testing.assert_array_equal(base.ids, result.ids)
        np.testing.assert_array_equal(base.distances, result.distances)
        assert not np.isin(result.ids, doomed).any()
        assert (result.ids >= 0).all()

        # Compaction bumps every mutated shard's generation and must not
        # change an answer.
        generations = [s.generation for s in datastore.shards]
        assert datastore.compact() > 0
        assert [s.generation for s in datastore.shards] != generations
        compacted = inline.search(queries, k=5)
        np.testing.assert_array_equal(base.ids, compacted.ids)
        reloaded = threaded.search(queries, k=5)
        np.testing.assert_array_equal(compacted.ids, reloaded.ids)
        np.testing.assert_array_equal(compacted.distances, reloaded.distances)


class TestNearestNeighbourOnLiveShard:
    """``k == 1`` (the sample search) on a shard with tombstones and a delta.

    The one scan masks tombstoned rows, sealed and delta alike, before it
    selects, so the winner is the best *live* row straight away; it must be
    what the top-k path returns in column 0 — bit for bit, it is the same
    scan.
    """

    NPROBE = 1  # of 6 cells: the sparse strategy, i.e. the k == 1 reduction

    def assert_k1_is_column_zero(self, shard, oracle, queries):
        results = {}
        for nprobe in (self.NPROBE, NLIST):
            d1, i1 = shard.search(queries, 1, nprobe=nprobe)
            dk, ik = shard.search(queries, 3, nprobe=nprobe)
            np.testing.assert_array_equal(i1[:, 0], ik[:, 0])
            np.testing.assert_array_equal(d1[:, 0], dk[:, 0])
            np.testing.assert_array_equal(np.isfinite(d1), i1 >= 0)
            results[nprobe] = (d1, i1)
        # full probe is the regime the flat oracle describes
        _, want_i = oracle.search(queries, 1)
        assert_ids_match_up_to_duplicate_ties(results[NLIST][1], want_i, oracle)
        return results[self.NPROBE]

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_tombstoned_winner_is_replaced_by_the_next_live_row(self, metric):
        rng = np.random.default_rng(30)
        base = rng.normal(size=(60, DIM)).astype(np.float32)
        shard = build_shard("sq8", metric, base)
        oracle = FlatOracle(shard.index.quantizer, metric, base)
        queries = base[:8] * 1.01
        _, winners = shard.search(queries, 1, nprobe=self.NPROBE)
        doomed = np.unique(winners[:4, 0])  # half the batch loses its winner
        shard.delete(doomed)
        oracle.delete(doomed)
        _, got = self.assert_k1_is_column_zero(shard, oracle, queries)
        assert not np.isin(got, doomed).any()
        np.testing.assert_array_equal(got[4:], winners[4:])  # untouched rows
        assert (got >= 0).all()

    def test_every_probed_row_tombstoned_pads(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(40, DIM)).astype(np.float32)
        shard = build_shard("sq8", "l2", base)
        oracle = FlatOracle(shard.index.quantizer, "l2", base)
        shard.delete(np.arange(40))
        oracle.delete(np.arange(40))
        queries = base[:5]
        dists, ids = self.assert_k1_is_column_zero(shard, oracle, queries)
        assert np.isinf(dists).all() and (ids == -1).all()

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_winner_in_the_delta(self, metric):
        for tombstones in ("delta", "both"):
            self.check_winner_in_the_delta(metric, tombstones)

    def check_winner_in_the_delta(self, metric, tombstones):
        rng = np.random.default_rng(32)
        base = rng.normal(size=(60, DIM)).astype(np.float32)
        shard = build_shard("sq8", metric, base)
        oracle = FlatOracle(shard.index.quantizer, metric, base)
        queries = rng.normal(size=(6, DIM)).astype(np.float32) * 2.0
        # The queries themselves become delta rows: under either metric each
        # is (one of) its own nearest neighbours, far ahead of the base rows.
        fresh = queries[:3] * 1.5 if metric == "ip" else queries[:3]
        ids = oracle.insert(fresh)
        shard.insert(fresh, ids)
        # ...and a would-be winner in the delta is tombstoned, alone or with
        # a sealed row, so the delta scan's mask works with and without the
        # sealed scan's.
        doomed = [int(ids[2])] + ([0] if tombstones == "both" else [])
        shard.delete(doomed)
        oracle.delete(doomed)
        _, got = self.assert_k1_is_column_zero(shard, oracle, queries)
        np.testing.assert_array_equal(got[:2, 0], ids[:2])
        assert not np.isin(got, doomed).any()

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize("scheme", ["flat", "sq8", "pq4"])
    def test_delta_scan_masks_then_reduces(self, scheme, metric):
        """The delta columns of a live shard's one scan, through
        ``IndexShard.search``: dead rows never come back, ``k == 1`` (an
        argmin) is column 0 of the top-k bit for bit — exact ties included,
        every delta row is stored twice — and a shard with nothing live left
        pads."""
        rng = np.random.default_rng(33)
        base = rng.normal(size=(60, DIM)).astype(np.float32)
        fresh = rng.normal(size=(20, DIM)).astype(np.float32)
        queries = np.concatenate([fresh[:6] * 1.01, base[:3]])
        for nprobe in (self.NPROBE, NLIST):
            shard = build_shard(scheme, metric, base)
            shard.insert(np.concatenate([fresh, fresh]), np.arange(60, 100))
            first_d, winners = shard.search(queries, 1, nprobe=nprobe)
            assert (winners[:6, 0] >= 60).all()  # the fresh rows win their queries
            dead = np.empty(0, dtype=np.int64)
            for doomed in (None, np.unique(winners), np.arange(100)):
                if doomed is not None:
                    doomed = np.setdiff1d(doomed, dead)
                    shard.delete(doomed)
                    dead = np.union1d(dead, doomed)
                dk, ik = shard.search(queries, 4, nprobe=nprobe)
                d1, i1 = shard.search(queries, 1, nprobe=nprobe)
                np.testing.assert_array_equal(i1[:, 0], ik[:, 0])
                np.testing.assert_array_equal(d1[:, 0], dk[:, 0])
                np.testing.assert_array_equal(np.isfinite(dk), ik >= 0)
                assert not np.isin(ik, dead).any()
                if len(dead) == 100:
                    assert (ik == -1).all() and np.isinf(dk).all()
                elif len(dead):  # the dead winner's twin (same code) takes its place
                    assert (ik[:, 0] >= 0).all()
                    np.testing.assert_allclose(dk[:6, 0], first_d[:6, 0], rtol=1e-6)



# -- one pass over a live shard ------------------------------------------------
# A live shard's read is one scan: delta rows are extra columns after the
# sealed ones, masked and selected with them. The oracle is the read it
# replaced — two scans and a merge (tests/oracles.py). Distances must be
# bit-identical; ids may differ only inside a run of exactly equal distances,
# which the one selection orders by shifted distance and the merge by final.

PARITY_ROWS = 120


@functools.lru_cache(maxsize=None)
def parity_shard(scheme, metric, state):
    """``(shard, rows a query may sit near)``; built once, then only read."""
    rng = np.random.default_rng(40)
    base = rng.normal(size=(PARITY_ROWS, DIM)).astype(np.float32)
    fresh = rng.normal(size=(30, DIM)).astype(np.float32)
    shard = build_shard(scheme, metric, base)
    new = np.arange(PARITY_ROWS, PARITY_ROWS + 30)
    if state == "empty_sealed":  # everything compacted away, then inserts
        shard.delete(np.arange(PARITY_ROWS))
        shard.compact()
        assert shard.index.ntotal == 0
        shard.insert(fresh, new)
        shard.delete(new[[2, 17]])
    elif state == "all_dead_delta":
        shard.insert(fresh, new)
        shard.delete(np.concatenate([new, [3, 50, 77]]))
    elif state == "emptied_cell":  # a probed cell may hold no row at all
        _, cells = shard.index.rows_by_local_id()
        shard.delete(np.flatnonzero(cells == cells[0]))
        shard.compact()
        shard.insert(fresh, new)
        shard.delete(new[[5]])
    elif state == "straddling_duplicates":  # sealed rows again, as delta rows
        shard.insert(base[:30], new)
        shard.delete([0, 7, new[3], new[12]])
    else:
        assert state == "mixed"
        shard.insert(fresh, new)
        shard.delete(np.concatenate([rng.choice(PARITY_ROWS, 20, replace=False), new[::4]]))
    return shard, np.concatenate([base, fresh])


def assert_ids_equal_within_tied_runs(dists, got, want):
    """``got == want`` column by column, except inside a run of exactly
    equal distances, which must hold the same ids — unless the run reaches
    column ``k - 1``, where it is cut and either member may be kept."""
    for row in np.flatnonzero((got != want).any(axis=1)):
        d = dists[row]
        for value in np.unique(d[got[row] != want[row]]):
            run = d == value
            if not run[-1]:
                assert set(got[row][run].tolist()) == set(want[row][run].tolist())


@given(
    scheme=st.sampled_from(["flat", "sq8", "sq4", "pq4"]),
    metric=st.sampled_from(["ip", "l2"]),
    state=st.sampled_from(
        ["mixed", "empty_sealed", "emptied_cell", "all_dead_delta", "straddling_duplicates"]
    ),
    k=st.sampled_from([1, 3, 10]),
    nprobe=st.sampled_from([1, 3, NLIST]),
    nq=st.sampled_from([1, 7, 32]),
    seed=st.integers(0, 2**31 - 1),
)
def test_one_pass_matches_two_scans_and_a_merge(scheme, metric, state, k, nprobe, nq, seed):
    shard, pool = parity_shard(scheme, metric, state)
    rng = np.random.default_rng(seed)
    queries = pool[rng.choice(len(pool), nq)] + rng.normal(
        scale=0.05, size=(nq, DIM)
    ).astype(np.float32)
    got_d, got_i = shard.search(queries, k, nprobe=nprobe)
    want_d, want_i = live_shard_two_scan_oracle(shard, queries, k, nprobe=nprobe)
    np.testing.assert_array_equal(got_d, want_d)
    assert_ids_equal_within_tied_runs(got_d, got_i, want_i)
    assert not np.isin(got_i, shard.tombstoned_ids).any()


class TestLiveStateIsDerivedAtWriteTime:
    """Structural guards: a live shard call is one scan, and it reads the
    state ``insert`` / ``delete`` / ``compact`` derived — nothing per call."""

    @staticmethod
    def live_shard():
        rng = np.random.default_rng(41)
        base = rng.normal(size=(90, DIM)).astype(np.float32)
        shard = build_shard("sq8", "l2", base)
        shard.insert(rng.normal(size=(12, DIM)).astype(np.float32), np.arange(90, 102))
        shard.delete([4, 95])
        return shard, base[:5]

    def test_one_scan_per_live_call(self):
        shard, queries = self.live_shard()
        for k, nprobe in ((1, 1), (3, 1), (3, NLIST)):
            registry = MetricsRegistry()
            previous = set_registry(registry)
            tracer = enable_tracing()
            try:
                shard.search(queries, k, nprobe=nprobe)
            finally:
                disable_tracing()
                set_registry(previous)
            (span,) = [s for root in tracer.roots for s in root.find_all("ivf_scan")]
            assert span.attrs["delta_rows"] == 12
            assert sum(registry.get("ivf_scans_total").collect().values()) == 1.0

    def test_searches_read_what_writes_derived(self, monkeypatch):
        shard, queries = self.live_shard()
        seen = []
        search = IVFIndex._search

        def spy(index, q, k, *, nprobe=None, live=None, kept=None):
            seen.append(live)
            return search(index, q, k, nprobe=nprobe, live=live, kept=kept)

        def forbidden(*args, **kwargs):
            raise AssertionError("a search derived live state")

        monkeypatch.setattr(IVFIndex, "_search", spy)

        def read_twice():
            with monkeypatch.context() as m:
                m.setattr(IVFIndex, "dead_columns", forbidden)
                m.setattr(DeltaIndex, "snapshot", forbidden)
                for k in (1, 3):
                    shard.search(queries, k, nprobe=2)
            first, second = seen[-2:]
            assert first.dead is second.dead
            assert first.delta.operand is second.delta.operand
            return first

        view = read_twice()
        np.testing.assert_array_equal(view.dead[-1:], [95])  # delta row 5's column
        shard.insert(queries + 0.5, np.arange(102, 107))
        after_insert = read_twice()
        assert after_insert.delta.operand is not view.delta.operand
        assert after_insert.delta.ntotal == 17
        shard.delete([10])
        after_delete = read_twice()
        assert after_delete.dead is not after_insert.dead and len(after_delete.dead) == 3
        assert shard.compact()
        shard.search(queries, 3, nprobe=2)
        assert seen[-1] is None  # compacted: a frozen shard's scan
