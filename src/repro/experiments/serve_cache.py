"""Serve-time cache skew sweep: hit rate and latency vs request popularity.

Hermes's serve traffic is heavily skewed (Fig. 13): NQ-like workloads
concentrate on a few hot topics, so the same queries recur. This experiment
quantifies what the serve-time retrieval cache
(:mod:`repro.serving.cache`) buys as a function of that skew: a Zipf-``α``
request stream over a fixed pool of unique queries is replayed twice per
``α`` — once through the cache-fronted :class:`~repro.serving.frontend.
ServingFrontend` and once straight through the searcher — and the sweep
reports hit rate, latency (mean/p50/p99 per batch), modelled TTFT, and
NDCG@k against exact ground truth for both paths.

At ``α = 0`` every pool query is equally likely (worst case for a cache
smaller than the pool); as ``α`` grows the head of the pool dominates and
the hit rate climbs — the shape ``hermes-repro cache`` prints.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.hierarchical import HermesSearcher
from ..datastore.embeddings import zipf_weights
from ..datastore.queries import trivia_queries
from ..llm.inference import InferenceModel
from ..metrics.ndcg import ndcg
from ..serving.cache import CacheConfig
from ..serving.frontend import ServingFrontend
from .common import (
    accuracy_corpus,
    clustered_accuracy_datastore,
    monolithic_accuracy_retriever,
)

#: Prefill context fed to the TTFT model (the paper's serving anchor).
TTFT_INPUT_TOKENS = 512


@dataclass(frozen=True)
class SkewPoint:
    """One Zipf-``α`` operating point of the sweep."""

    alpha: float
    n_requests: int
    hit_rate: float
    exact_hits: int
    misses: int
    evictions: int
    cached_mean_ms: float
    cached_p50_ms: float
    cached_p99_ms: float
    uncached_mean_ms: float
    uncached_p50_ms: float
    uncached_p99_ms: float
    speedup: float
    cached_ndcg: float
    uncached_ndcg: float
    cached_ttft_ms: float
    uncached_ttft_ms: float


def request_stream(
    n_unique: int, n_requests: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Zipf-``alpha`` draws of pool indices (``alpha=0`` is uniform)."""
    if n_unique <= 0 or n_requests <= 0:
        raise ValueError("n_unique and n_requests must be positive")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    weights = zipf_weights(n_unique, exponent=alpha)
    return rng.choice(n_unique, size=n_requests, p=weights)


def _percentiles(latencies_s: list) -> tuple:
    arr = np.asarray(latencies_s, dtype=np.float64) * 1e3
    return float(arr.mean()), float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def run(
    alphas: tuple = (0.0, 0.5, 1.0, 1.5),
    *,
    n_unique: int = 128,
    n_requests: int = 1024,
    batch: int = 32,
    k: int = 10,
    capacity: int = 512,
    seed: int = 0,
) -> list:
    """Sweep the request skew; returns one :class:`SkewPoint` per ``α``.

    Each point uses a *fresh* cache (no cross-``α`` warm state) but the same
    shared accuracy corpus, searcher, and query pool, so only the request
    distribution varies along the sweep.
    """
    corpus = accuracy_corpus()
    searcher = HermesSearcher(clustered_accuracy_datastore())
    pool = trivia_queries(corpus.topic_model, n_unique, seed=seed + 7).embeddings
    _, pool_truth = monolithic_accuracy_retriever().ground_truth(pool, k)
    inference = InferenceModel()
    prefill_s = inference.prefill(batch, TTFT_INPUT_TOKENS).latency_s

    points = []
    for alpha in alphas:
        rng = np.random.default_rng(seed)
        stream = request_stream(n_unique, n_requests, float(alpha), rng)
        queries = pool[stream]
        truth = pool_truth[stream]
        frontend = ServingFrontend(searcher, cache_config=CacheConfig(capacity=capacity))

        cached_lat, cached_ids = [], []
        uncached_lat, uncached_ids = [], []
        for start in range(0, n_requests, batch):
            qb = queries[start : start + batch]
            t0 = time.perf_counter()
            res = frontend.search(qb, k=k)
            cached_lat.append(time.perf_counter() - t0)
            cached_ids.append(res.ids)
            t0 = time.perf_counter()
            raw = searcher.search(qb, k=k)
            uncached_lat.append(time.perf_counter() - t0)
            uncached_ids.append(raw.ids)

        c_mean, c_p50, c_p99 = _percentiles(cached_lat)
        u_mean, u_p50, u_p99 = _percentiles(uncached_lat)
        stats = frontend.cache.stats
        points.append(
            SkewPoint(
                alpha=float(alpha),
                n_requests=n_requests,
                hit_rate=stats.hit_rate,
                exact_hits=stats.exact_hits,
                misses=stats.misses,
                evictions=stats.evictions,
                cached_mean_ms=c_mean,
                cached_p50_ms=c_p50,
                cached_p99_ms=c_p99,
                uncached_mean_ms=u_mean,
                uncached_p50_ms=u_p50,
                uncached_p99_ms=u_p99,
                speedup=u_mean / c_mean if c_mean > 0 else float("inf"),
                cached_ndcg=ndcg(np.concatenate(cached_ids), truth),
                uncached_ndcg=ndcg(np.concatenate(uncached_ids), truth),
                cached_ttft_ms=(c_mean / 1e3 + prefill_s) * 1e3,
                uncached_ttft_ms=(u_mean / 1e3 + prefill_s) * 1e3,
            )
        )
    return points


def table_rows(points: list) -> list:
    """Rows for :func:`repro.metrics.reporting.format_table`."""
    return [
        (
            p.alpha,
            f"{p.hit_rate:.0%}",
            p.cached_mean_ms,
            p.cached_p50_ms,
            p.cached_p99_ms,
            p.uncached_mean_ms,
            f"{p.speedup:.2f}x",
            p.cached_ttft_ms,
            p.cached_ndcg,
            p.uncached_ndcg,
        )
        for p in points
    ]


TABLE_HEADERS = [
    "alpha",
    "hit rate",
    "mean (ms)",
    "p50 (ms)",
    "p99 (ms)",
    "no-cache mean",
    "speedup",
    "TTFT (ms)",
    "NDCG",
    "no-cache NDCG",
]


def write_artifact(points: list, path: "str | Path", *, k: int = 10) -> Path:
    """Persist the sweep as a JSON artifact (one record per ``α``)."""
    path = Path(path)
    payload = {
        "experiment": "serve_cache_skew_sweep",
        "k": k,
        "points": [asdict(p) for p in points],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
