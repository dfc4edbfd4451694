"""scan_unique: closed loop of never-repeated batch-32 queries, one client.

The cache and the batcher do nothing here (hit share 0), so route + deep
scan + merge are the whole latency: this is where a router or kernel change
must show, and where a cache change must show nothing.
"""

from __future__ import annotations

import numpy as np

import harness as h
import spec
from repro.core.hierarchical import HermesSearcher
from repro.obs import disable_tracing, enable_tracing
from workload import MAX_BATCHES_PER_S, NDCG_SAMPLE, Workload, clock, evenly


class ScanUnique(Workload):
    name = "scan_unique"

    def setup(self) -> None:
        self.build_vector_stack()

    def warmup(self) -> None:
        n = max(4, int(0.05 * self.seconds * MAX_BATCHES_PER_S / 3))
        for batch in self.trivia(32 * n, stream=2).reshape(n, 32, -1):
            self.frontend.search(batch)

    def measure(self) -> None:
        n = int(self.seconds * MAX_BATCHES_PER_S) + 8
        self.batches = self.trivia(32 * n, stream=3).reshape(n, 32, -1)
        self.cache_before = self.cache_snapshot()
        degraded_before = h.counter_total("retrieval_degraded_batches_total")
        began, lat, ids, probed, raised = [], [], [], [], 0
        rec = self.rec
        start = clock()
        stop = start + self.seconds
        i = 0
        while i < n and clock() < stop:
            rec.enabled = self.traced and i % 2 == 0
            rec.unit = i
            t0 = clock()
            try:
                result = self.frontend.search(self.batches[i])
            except Exception:  # noqa: BLE001 - a raising search is a counted failure
                raised += 1
                ids.append(np.full((32, spec.K), -1, dtype=np.int64))
            else:
                ids.append(result.ids)
            t1 = clock()
            lat.append(t1 - t0)
            began.append(t0 - start)
            probed.append(self.speed.sample(t1 - start))
            i += 1
        rec.enabled = False
        self.began = np.asarray(began)
        # Loop-body time of each iteration (search + bookkeeping, without the
        # speed probe), for throughput.
        self.cycle = np.diff(np.append(self.began, clock() - start)) - np.asarray(probed)
        self.lat = np.asarray(lat)
        self.ids = np.stack(ids)
        self.raised = raised
        self.degraded = self.degraded_since(degraded_before)
        self.check_lookup_conservation()

    def score(self) -> None:
        n = len(self.lat)
        short = int((self.ids < 0).any(axis=2).sum())
        self.attempted = 32 * n
        self.failed = 32 * (self.raised + self.degraded) + short
        self.checks.add(
            "no_failures", self.failed == 0,
            f"raised {self.raised}, degraded batches {self.degraded}, short rows {short}",
        )
        self.put_latency(self.began, self.lat)
        self.put_loop_throughput(self.began, self.cycle, 32.0)
        pick = evenly(n, NDCG_SAMPLE // 32)
        queries = self.batches[pick].reshape(-1, self.batches.shape[2])
        truth = h.brute_force_topk(queries, self.vectors, spec.K)
        self.score_ndcg(self.ids[pick].reshape(-1, spec.K), truth)

    def layers(self) -> None:
        comps = h.frontend_components(self.rec)
        self.common_layers(comps)
        self.batch_budget(comps, self.lat[0::2], self.lat[1::2])
        self.top1_shard_recall(self.vectors)
        self.probe_index_layers(self.batches[0])

        batches = self.trivia(32 * 64, stream=4).reshape(64, 32, -1)
        plain = self.searcher_proxy.inner
        fanned = HermesSearcher(self.ds, max_workers=2)
        value, n = self.paired_p50_ratio(plain.search, fanned.search, batches, 3 * self.probe_s)
        self.put("core.hierarchical.fanout_speedup_2w", value, n)
        value, n = self.paired_p50_ratio(
            self._search_obs_traced, plain.search, batches, 3 * self.probe_s)
        self.put("obs.tracer_enabled_overhead_share", value - 1.0, n)

        if self.full_size:
            hit = self.metrics["serving.cache.hit_share"]
            scan = (self.metrics["core.router.route_share"]
                    + self.metrics["core.hierarchical.deep_share"])
            self.checks.claim(hit <= 0.02 and scan >= 0.9,
                              f"cache hit share {hit:.3f}, route + deep share {scan:.3f}")

    def _search_obs_traced(self, batch) -> None:
        enable_tracing()
        try:
            self.searcher_proxy.inner.search(batch)
        finally:
            disable_tracing()
