"""What the four workloads share: life cycle, scoring, span-derived metrics.

Every workload follows the same life cycle (see ``run.run_workload``)::

    setup()  ->  instrument() if traced  ->  warmup()  ->  measure()
      ->  score()  ->  layers() if traced  ->  close()  ->  setup() repeats

``measure`` only collects raw samples; ``score`` turns them into the
end-to-end metrics and runs the correctness oracle; ``layers`` turns the
traced units' spans into the per-layer metrics and the latency budget. In a
traced run units alternate traced/untraced (batch by batch, cohort by cohort,
request by request), so the tracing overhead is a paired comparison inside
one run instead of a difference between two noisy phases.
"""

from __future__ import annotations

import time

import numpy as np

import harness as h
import spec
from repro.ann.kmeans import train_kmeans
from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.embeddings import make_corpus
from repro.datastore.queries import trivia_queries
from repro.serving.cache import CacheConfig
from repro.serving.frontend import ServingFrontend

clock = time.perf_counter

#: Queries scored against brute force per run (evenly sampled).
NDCG_SAMPLE = 4096
#: Generous ceiling on units per second when pre-generating inputs.
MAX_BATCHES_PER_S = 150


def evenly(n: int, take: int) -> np.ndarray:
    """*take* indices spread evenly over range(n)."""
    if n <= take:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, take).astype(np.int64))


class Workload:
    """Shared state and the pieces every workload reuses."""

    name = ""

    def __init__(self, seed: int, seconds: float, *, traced: bool, smoke: bool) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.traced = traced
        self.smoke = smoke
        self.sz = spec.sizes(self.name, smoke=smoke)
        self.rec = h.SpanRecorder()
        self.speed = h.SpeedProbe()
        self.checks = h.Checks()
        self.metrics: dict = {}
        self.samples: dict = {}
        self.budgets: dict = {}
        #: raw whole-run values of the end-to-end timings (not speed-scaled)
        self.pooled: dict = {}
        self.attempted = 0
        self.failed = 0
        self.stage_s: dict = {}
        self.searcher_proxy = None
        #: floors and what-the-workload-stresses claims hold at the sizes and
        #: the run length they were sized for
        self.full_size = not smoke and self.seconds >= spec.RUN_SECONDS
        #: seconds each side probe may spend (traced runs only)
        self.probe_s = max(0.15, 0.025 * self.seconds)

    # -- result plumbing --------------------------------------------------------
    def put(self, name: str, value: float, n: int | None = None) -> None:
        self.metrics[name] = float(value)
        if n is not None:
            self.samples[name] = int(n)

    def close(self) -> None:
        """Stop every thread the stack started."""

    # -- vector stack (scan_unique, serve_zipf, mutate_mix) ----------------------
    def build_vector_stack(self, cache_capacity: int | None = None) -> None:
        t0 = clock()
        self.corpus = make_corpus(self.sz["docs"], dim=self.sz["dim"], seed=self.seed)
        self.vectors = self.corpus.embeddings
        t1 = clock()
        self.ds = cluster_datastore(self.vectors, HermesConfig(k=spec.K))
        t2 = clock()
        self.searcher = HermesSearcher(self.ds)
        cache_config = None if cache_capacity is None else CacheConfig(capacity=cache_capacity)
        self.frontend = ServingFrontend(self.searcher, cache_config=cache_config)
        self.frontend.search(self.trivia(32, stream=1))  # first warm search
        self.stage_s = {"corpus": t1 - t0, "build": t2 - t1}

    def trivia(self, n: int, *, stream: int) -> np.ndarray:
        return trivia_queries(
            self.corpus.topic_model, n, seed=10_000 * stream + self.seed
        ).embeddings

    def instrument(self) -> None:
        self.frontend, self.searcher_proxy = h.instrument(self.frontend, self.rec)

    # -- end-to-end metrics ---------------------------------------------------------
    def score_ndcg(self, served: np.ndarray, truth: np.ndarray) -> None:
        scores = h.ndcg_at_k(served, truth)
        value = float(scores.mean())
        self.put("ndcg_at_10", value, len(scores))
        floor = spec.NDCG_FLOORS[self.name]
        if self.full_size:
            self.checks.add(
                "ndcg_floor", value >= floor, f"ndcg_at_10 {value:.4f} vs floor {floor}"
            )

    def put_latency(self, at_s, latency_s, fixed_s=0.0) -> None:
        """latency_p50_ms / latency_p95_ms at reference machine speed.

        Each sample's machine-work part (all of it, minus *fixed_s*: timer
        waits and modelled GPU time) is divided by its window's speed factor;
        the percentile is taken per one-second window and the mean of the
        quiet quarter of the windows is reported. ``pooled`` keeps the raw
        whole-run value.
        """
        at_s = np.asarray(at_s, dtype=np.float64)
        raw = np.asarray(latency_s, dtype=np.float64)
        fixed = np.broadcast_to(np.asarray(fixed_s, dtype=np.float64), raw.shape)
        fixed = np.minimum(fixed, raw)
        lat = fixed + (raw - fixed) / self.speed.factor(at_s)
        for name, q in (("latency_p50_ms", 50.0), ("latency_p95_ms", 95.0)):
            windows = h.per_window(at_s, lambda idx, q=q: np.percentile(lat[idx], q))
            self.put(name, 1e3 * h.quiet_quarter(windows), len(lat))
            self.pooled[name] = 1e3 * h.pctl(raw, q)

    def put_throughput(self, at_s, work, cost_s) -> None:
        """throughput_per_s: per-window work / cost seconds (cost already at
        reference speed), quiet quarter of the windows."""
        work = np.asarray(work, dtype=np.float64)
        cost = np.asarray(cost_s, dtype=np.float64)
        windows = h.per_window(at_s, lambda idx: work[idx].sum() / cost[idx].sum())
        self.put("throughput_per_s", h.quiet_quarter(windows, better="higher"), len(work))

    def put_loop_throughput(self, began_s: np.ndarray, cycle_s: np.ndarray, work: float) -> None:
        """Closed loops: *work* per iteration over the loop-body seconds."""
        n = len(began_s)
        self.pooled["throughput_per_s"] = work * n / float(cycle_s.sum())
        self.put_throughput(began_s, np.full(n, work), cycle_s / self.speed.factor(began_s))

    def degraded_since(self, before: float) -> int:
        return int(h.counter_total("retrieval_degraded_batches_total") - before)

    # -- conservation ---------------------------------------------------------------
    def cache_snapshot(self) -> dict:
        stats = self.frontend.cache.stats
        return {
            "lookups": stats.lookups, "result_hits": stats.result_hits,
            "routing_hits": stats.routing_hits, "evictions": stats.evictions,
            "stale_generation": stats.stale_generation,
            "registry_lookups": h.counter_total("retrieval_cache_lookups_total"),
            "registry_requests": h.counter_total("frontend_requests_total"),
        }

    def check_lookup_conservation(self) -> None:
        """Three independent counts of the same events must agree: queries the
        frontend served, lookups the cache's stats saw (sum of tier hits and
        misses), and lookups the obs registry counted per tier."""
        now, was = self.cache_snapshot(), self.cache_before
        self.cache_after = now
        counts = [
            int(now[k] - was[k]) for k in ("registry_requests", "lookups", "registry_lookups")
        ]
        self.checks.add(
            "lookup_conservation", len(set(counts)) == 1,
            f"frontend queries {counts[0]}, cache tier hits + misses {counts[1]}, "
            f"registry lookups {counts[2]}",
        )

    # -- per-layer metrics shared by every workload ---------------------------------
    def common_layers(self, comps: list) -> None:
        """Span- and stat-derived core/serving metrics every workload reports."""
        put = self.put
        searched = [c for c in comps if c["searches"]]
        routed = [c for c in comps if c["routed"]]

        def median_ms(rows: list, key: str) -> float:
            return 1e3 * h.median([c[key] for c in rows]) if rows else 0.0

        put("core.router.route_ms", median_ms(routed, "route"), len(routed))
        put("core.router.sample_searches_per_batch",
            h.ratio(sum(c["samples"] for c in routed), sum(c["routed"] for c in routed)))
        put("core.hierarchical.deep_ms", median_ms(searched, "deep"), len(searched))
        put("core.hierarchical.merge_self_ms", median_ms(searched, "merge"), len(searched))
        put("serving.frontend.self_ms", median_ms(comps, "frontend_self"), len(comps))
        queries = sum(c["queries"] for c in comps)
        put("serving.cache.lookup_us_per_query",
            1e6 * h.ratio(sum(c["lookup"] for c in comps), queries))
        put("serving.cache.insert_us_per_query",
            1e6 * h.ratio(sum(c["insert"] for c in comps), sum(c["inserted"] for c in comps)))
        put("serving.frontend.searched_share",
            h.ratio(sum(c["searched"] for c in comps), queries))

        proxy = self.searcher_proxy
        put("core.hierarchical.shard_queries_per_query",
            h.ratio(proxy.shard_queries, proxy.queries))
        put("core.hierarchical.degraded_share", h.ratio(proxy.degraded, proxy.searches))

        # Cache stats over the measured phase only (both snapshots are taken
        # inside measure(); the oracle's own searches come later).
        delta = {k: self.cache_after[k] - self.cache_before[k] for k in self.cache_before}
        lookups = delta["lookups"]
        put("serving.cache.hit_share", h.ratio(delta["result_hits"], lookups), lookups)
        put("serving.cache.routing_hit_share", h.ratio(delta["routing_hits"], lookups))
        put("serving.cache.evictions", delta["evictions"])
        put("serving.cache.stale_generation_share",
            h.ratio(delta["stale_generation"], lookups))

        put("core.clustering.build_s", self.stage_s["build"])
        put("core.clustering.imbalance", self.ds.imbalance)
        put("core.clustering.index_bytes_per_vector",
            h.ratio(self.ds.memory_bytes(), self.ds.ntotal))
        put("harness.failed_share", h.ratio(self.failed, self.attempted), self.attempted)
        put("harness.speed_factor", self.speed.run_factor(), len(self.speed.took))

    def put_tracing_overhead(self, traced_lat, untraced_lat) -> float:
        """Paired traced/untraced units of one run; returns the traced p50."""
        p50 = h.pctl(traced_lat, 50)
        overhead = p50 / h.pctl(untraced_lat, 50) - 1.0 if len(untraced_lat) else 0.0
        self.put("obs.bench_tracing_overhead_share", overhead, len(traced_lat))
        self.checks.add("tracing_overhead", overhead <= 0.05,
                        f"traced / untraced latency p50 - 1 = {overhead:.3f}", hard=False)
        return p50

    def batch_budget(self, comps: list, traced_lat, untraced_lat) -> None:
        """Closed-loop reads: tracing overhead and the p50 budget of a call."""
        p50 = self.put_tracing_overhead(traced_lat, untraced_lat)
        band = h.median_band(np.array([c["total"] for c in comps]))
        rows = [("queue wait", 0.0)] + [
            (title, float(np.mean([comps[i][key] for i in band])))
            for title, key in (("cache", "cache"), ("route", "route"), ("deep scan", "deep"),
                               ("merge", "merge"), ("frontend self", "frontend_self"))
        ]
        self.add_budget("latency_p50", rows, p50, shares=True)

    def add_budget(self, title: str, rows: list, reference_s: float, *,
                   unit_s: float = 1e-3, shares: bool = False) -> None:
        """Store a budget (rows in seconds) and check it against *reference_s*.

        The rows telescope exactly by construction (each is a mean over the
        same median-band units); how far that band mean sits from the traced
        p50 is the soft 2 % check. *shares* marks the workload's primary
        budget, the one its route and deep shares are read from.
        """
        total = sum(v for _, v in rows)
        if shares:
            by = dict(rows)
            self.put("core.router.route_share", h.ratio(by.get("route", 0.0), total))
            self.put("core.hierarchical.deep_share", h.ratio(by.get("deep scan", 0.0), total))
        self.budgets[title] = {
            "rows": [(k, v / unit_s) for k, v in rows],
            "sum": total / unit_s,
            "reference": reference_s / unit_s,
            "unit": "ms" if unit_s == 1e-3 else "s",
        }
        gap = abs(total - reference_s) / reference_s if reference_s else 0.0
        self.checks.add(
            f"budget_sums[{title}]", gap <= 0.02,
            f"rows sum {total / unit_s:.3f} vs traced {reference_s / unit_s:.3f} "
            f"({100 * gap:.2f} % apart)", hard=False,
        )

    def top1_shard_recall(self, vectors: np.ndarray) -> None:
        log = self.searcher_proxy.routing_log
        if not log:
            self.put("core.router.top1_shard_recall", 0.0, 0)
            return
        queries = np.concatenate([q for q, _ in log])
        top1 = h.brute_force_topk(queries, vectors, 1)[:, 0]
        home = np.asarray(self.ds.assignments)[top1]
        # Fan-out varies per search (brownout shrinks it), so compare per search.
        hit, lo = [], 0
        for _, routed in log:
            hit.append((routed == home[lo:lo + len(routed), None]).any(axis=1))
            lo += len(routed)
        hit = np.concatenate(hit)
        self.put("core.router.top1_shard_recall", float(hit.mean()), len(hit))

    # -- side probes (traced runs) ---------------------------------------------------
    def probe_index_layers(self, queries: np.ndarray) -> None:
        """``ann`` metrics: direct calls on the largest shard's sealed
        IVFIndex at batch 32, and the corpus split's K-means."""
        index = max(self.ds.shards, key=len).index
        counters = ("ivf_cells_pruned_total", "workspace_hits_total", "workspace_misses_total")
        before = {n: h.counter_total(n) for n in counters}
        for name, nprobe, k in (("sample", 8, 1), ("deep", 128, spec.K)):
            index.search(queries, k, nprobe=nprobe)
            times = []
            stop = clock() + self.probe_s
            while clock() < stop:
                t0 = clock()
                index.search(queries, k, nprobe=nprobe)
                times.append(clock() - t0)
            self.put(f"ann.ivf.{name}_scan_ms", 1e3 * h.median(times), len(times))
        pruned, hits, misses = (h.counter_total(n) - before[n] for n in counters)
        self.put("ann.ivf.cells_pruned", pruned)
        self.put("ann.workspace.hit_share", h.ratio(hits, hits + misses))
        t0 = clock()
        train_kmeans(self.vectors, self.ds.n_clusters)
        self.put("ann.kmeans.split_train_s", clock() - t0)

    def paired_p50_ratio(self, call_a, call_b, batches: np.ndarray, seconds: float) -> tuple:
        """p50(a) / p50(b) over the same batches, a and b alternating."""
        a, b = [], []
        stop = clock() + seconds
        i = 0
        while clock() < stop:
            batch = batches[i % len(batches)]
            for call, out in ((call_a, a), (call_b, b)):
                t0 = clock()
                call(batch)
                out.append(clock() - t0)
            i += 1
        return h.median(a) / h.median(b), len(a)
