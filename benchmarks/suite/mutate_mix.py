"""mutate_mix: batch-32 reads beside inserts, deletes and compaction.

The scan_unique read interleaved, every batch, with ``add_documents`` and
``delete_documents`` while a second thread compacts. It drives the same
``core``/``ann`` scan through its other face (delta memtable snapshot,
tombstone over-fetch, generation-stale cache), so a gain bought for frozen
reads that costs live reads, writes or compaction stalls shows up here.
"""

from __future__ import annotations

import threading

import numpy as np

import harness as h
import spec
from workload import MAX_BATCHES_PER_S, NDCG_SAMPLE, Workload, clock, evenly

NEVER = np.iinfo(np.int64).max


class MutateMix(Workload):
    name = "mutate_mix"

    def setup(self) -> None:
        self.build_vector_stack()
        self.compactor = None

    def warmup(self) -> None:
        sz = self.sz
        nb = sz["query_batches"]
        self.batches = self.trivia(32 * nb, stream=3).reshape(nb, 32, -1)
        for batch in self.batches[: max(4, nb // 20)]:
            self.frontend.search(batch)
        # The whole write schedule is a function of the seed: fresh rows come
        # from the corpus's own topic model, ids are allocated sequentially,
        # victims are drawn from the ids live at that iteration.
        rows, docs = sz["write_rows"], sz["docs"]
        self.max_iters = int(self.seconds * MAX_BATCHES_PER_S / 3) + 8
        fresh, _ = self.corpus.topic_model.sample_documents(rows * self.max_iters)
        self.fresh = fresh.reshape(self.max_iters, rows, -1)
        total = docs + rows * self.max_iters
        #: iteration whose write made the id visible / invisible to later reads
        self.born = np.full(total, NEVER, dtype=np.int64)
        self.born[:docs] = -1
        self.died = np.full(total, NEVER, dtype=np.int64)
        alive = np.zeros(total, dtype=bool)
        alive[:docs] = True
        rng = np.random.default_rng(70_000 + self.seed)
        self.victims = np.empty((self.max_iters, rows), dtype=np.int64)
        for i in range(self.max_iters):
            new = docs + rows * i
            alive[new:new + rows] = True
            self.victims[i] = rng.choice(np.flatnonzero(alive), size=rows, replace=False)
            alive[self.victims[i]] = False

    def _compact_loop(self) -> None:
        threshold = self.sz["compact_at"]
        while not self._stop.is_set():
            rows = self.ds.delta_rows()
            self.delta_peak = max(self.delta_peak, rows)
            if rows < threshold:
                self._stop.wait(0.005)
                continue
            t0 = clock()
            self.ds.compact()
            self.compactions.append((t0, clock()))

    def close(self) -> None:
        if self.compactor is not None:
            self._stop.set()
            self.compactor.join()
            self.compactor = None

    def measure(self) -> None:
        rows, docs = self.sz["write_rows"], self.sz["docs"]
        self.cache_before = self.cache_snapshot()
        degraded_before = h.counter_total("retrieval_degraded_batches_total")
        self._stop = threading.Event()
        self.compactions: list = []
        self.delta_peak = 0
        self.compactor = threading.Thread(target=self._compact_loop, name="suite-compactor")
        self.compactor.start()
        rec = self.rec
        reads, ids, adds, dels, probed = [], [], [], [], []
        raised = 0
        start = clock()
        stop = start + self.seconds
        i = 0
        while i < self.max_iters and clock() < stop:
            rec.enabled = self.traced and i % 2 == 0
            rec.unit = i
            t0 = clock()
            try:
                result = self.frontend.search(self.batches[i % len(self.batches)])
            except Exception:  # noqa: BLE001 - a raising search is a counted failure
                raised += 1
                ids.append(np.full((32, spec.K), -1, dtype=np.int64))
            else:
                ids.append(result.ids)
            reads.append((t0, clock()))
            try:
                span = rec.begin("core.insert", rows=rows)
                t0 = clock()
                new_ids = self.ds.add_documents(self.fresh[i])
                adds.append(clock() - t0)
                rec.end(span)
                if new_ids[0] != docs + rows * i:
                    raise RuntimeError(
                        f"ids allocated from {new_ids[0]}, planned {docs + rows * i}")
                span = rec.begin("core.delete", rows=rows)
                t0 = clock()
                self.ds.delete_documents(self.victims[i])
                dels.append(clock() - t0)
                rec.end(span)
            except Exception:  # noqa: BLE001 - a raising write is a counted failure
                raised += 1
            self.born[docs + rows * i: docs + rows * (i + 1)] = i
            self.died[self.victims[i]] = i
            probed.append(self.speed.sample(clock() - start))
            i += 1
        ended = clock() - start
        rec.enabled = False
        self.close()
        self.iters = i
        self.reads = np.asarray(reads)
        self.lat = self.reads[:, 1] - self.reads[:, 0]
        self.began = self.reads[:, 0] - start
        # Loop-body time of each iteration: the read plus its two writes,
        # without the speed probe.
        self.cycle = np.diff(np.append(self.began, ended)) - np.asarray(probed)
        self.ids = np.stack(ids)
        self.adds, self.dels = np.asarray(adds), np.asarray(dels)
        self.raised = raised
        self.degraded = self.degraded_since(degraded_before)
        self.check_lookup_conservation()
        for t0, t1 in self.compactions:
            rec.record("core.compact", t0, t1)
        self.all_vectors = np.concatenate(
            [self.vectors, self.fresh[:i].reshape(-1, self.vectors.shape[1])])

    def live_at(self, i: int) -> np.ndarray:
        """Ids visible to read *i* (rows written in iteration i land after it)."""
        n = len(self.all_vectors)
        return (self.born[:n] < i) & (self.died[:n] >= i)

    def score(self) -> None:
        n = self.iters
        # No tombstoned (or unborn) id is ever returned.
        served = self.ids.reshape(n, -1)
        step = np.arange(n)[:, None]
        valid = served >= 0
        safe = np.where(valid, served, 0)
        visible = (self.born[safe] < step) & (self.died[safe] >= step)
        leaked = int((valid & ~visible).sum())
        short = int((~valid).any(axis=1).sum())
        lost = self._unretrievable()
        self.attempted = 32 * n + len(self.adds) + len(self.dels)
        self.failed = 32 * (self.raised + self.degraded) + leaked + short + lost
        self.checks.add("no_tombstoned_id_served", leaked == 0, f"{leaked} dead ids in results")
        self.checks.add(
            "inserted_rows_retrievable", lost == 0,
            f"{lost} of the sampled inserted rows not found by their own embedding",
        )
        self.checks.add(
            "no_failures", self.failed == 0,
            f"raised {self.raised}, degraded batches {self.degraded}, short batches {short}",
        )
        self.put_latency(self.began, self.lat)
        self.put_loop_throughput(self.began, self.cycle, 32.0)
        pick = evenly(n, NDCG_SAMPLE // 32)
        truth = np.concatenate([
            h.brute_force_topk(self.batches[i % len(self.batches)], self.all_vectors, spec.K,
                               live=self.live_at(i))
            for i in pick
        ])
        self.score_ndcg(self.ids[pick].reshape(-1, spec.K), truth)

    def _unretrievable(self) -> int:
        """Recently inserted live rows must come back for their own embedding,
        from the delta memtable and again after a compaction."""
        ids = np.arange(len(self.all_vectors))
        recent = ids[self.live_at(self.iters) & (ids >= self.sz["docs"])][-64:]
        lost = 0
        for _ in range(2):
            for lo in range(0, len(recent), 32):
                want = recent[lo:lo + 32]
                got = self.frontend.search(self.all_vectors[want]).ids
                lost += int((~(got == want[:, None]).any(axis=1)).sum())
            self.ds.compact()
        return lost

    def layers(self) -> None:
        put = self.put
        lat = self.lat
        comps = h.frontend_components(self.rec)
        self.common_layers(comps)
        self.batch_budget(comps, lat[0::2], lat[1::2])

        nrows = self.sz["write_rows"]
        writes = np.concatenate([self.adds, self.dels])
        put("core.clustering.insert_us_per_row", 1e6 * h.median(self.adds) / nrows, len(self.adds))
        put("core.clustering.delete_us_per_row", 1e6 * h.median(self.dels) / nrows, len(self.dels))
        put("core.clustering.write_p50_ms", 1e3 * h.pctl(writes, 50), len(writes))
        put("core.clustering.write_p95_ms", 1e3 * h.pctl(writes, 95), len(writes))
        windows = np.asarray(self.compactions).reshape(-1, 2)
        put("core.clustering.compactions", len(windows))
        put("core.clustering.compact_s",
            h.median(windows[:, 1] - windows[:, 0]) if len(windows) else 0.0, len(windows))
        put("core.clustering.delta_rows_peak", self.delta_peak)
        stalled = np.zeros(len(lat), dtype=bool)
        for t0, t1 in windows:
            stalled |= (self.reads[:, 0] < t1) & (self.reads[:, 1] > t0)
        both = stalled.any() and (~stalled).any()
        put("core.clustering.read_stall_ratio",
            h.pctl(lat[stalled], 50) / h.pctl(lat[~stalled], 50) if both else 0.0,
            int(stalled.sum()))

        # Delta read overhead: the same shard search over a live delta, then
        # right after compaction (score() left the store compacted, so first
        # replay one compaction interval's worth of writes).
        more = min(self.iters + self.sz["compact_at"] // nrows, self.max_iters)
        for i in range(self.iters, more):
            self.ds.add_documents(self.fresh[i])
            self.ds.delete_documents(self.victims[i])
        shard = max(self.ds.shards, key=lambda s: s.delta.ntotal if s.delta is not None else 0)
        batch = self.batches[0]
        live_s = self._shard_p50(shard, batch)
        self.ds.compact()
        put("ann.delta.read_overhead_share", live_s / self._shard_p50(shard, batch) - 1.0)

        self.probe_index_layers(batch)
        if self.full_size:
            hit = self.metrics["serving.cache.hit_share"]
            self.checks.claim(len(windows) >= 10 and hit <= 0.05,
                              f"{len(windows)} compactions, cache hit share {hit:.3f}")

    def _shard_p50(self, shard, batch) -> float:
        times = []
        stop = clock() + self.probe_s
        while clock() < stop:
            t0 = clock()
            shard.search(batch, spec.K, nprobe=128)
            times.append(clock() - t0)
        return h.median(times)
