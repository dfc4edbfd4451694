"""Live-mutation churn sweep: serving quality and cost under a changing corpus.

The paper builds its datastore offline and serves it frozen; the north-star
deployment cannot — documents arrive and expire while queries are in flight.
This experiment drives the real searcher over a datastore that mutates
between query batches, at several churn rates, and measures what live
updates cost and whether they are *correct*:

- **Quality.** NDCG@k of the live (delta + tombstone) datastore against
  brute force over the current live vectors, and again after compaction
  folds every delta row back into the sealed indices. Every shard is
  deep-searched at full probe, so the live and compacted answers must be
  **bit-identical** — the serving-layer face of the mutation-equivalence
  contract (``tests/ann/test_mutation_equivalence.py`` proves the per-shard
  version).
- **Integrity.** Deleted documents must never surface in results, and every
  inserted document must be retrievable by its own embedding.
- **Cost.** Per-batch search p50 while the delta is live vs after
  compaction, plus peak delta occupancy and the compaction count.

``hermes-repro mutate`` prints the sweep; ``--smoke`` additionally asserts
the integrity/equivalence properties and exits non-zero on violation (the
live-read latency is measured by the ``mutate_mix`` workload of
``benchmarks/suite``, where timing is controlled).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..baselines.monolithic import MonolithicRetriever
from ..core.clustering import cluster_datastore
from ..core.config import HermesConfig
from ..core.hierarchical import HermesSearcher
from ..datastore.embeddings import make_corpus
from ..datastore.queries import trivia_queries
from ..metrics.ndcg import ndcg

#: Per-batch mutation rates swept by default (fraction of the batch size
#: inserted *and* deleted between consecutive query batches).
CHURN_SWEEP = (0.0, 0.01, 0.05)
K_MUTATION = 10


@dataclass(frozen=True)
class ChurnPoint:
    """One churn rate's outcome over the full query stream."""

    churn: float
    batches: int
    inserted: int
    deleted: int
    peak_delta_rows: int
    compacted_shards: int
    p50_live_ms: float
    p50_compacted_ms: float
    overhead_frac: float
    ndcg_live: float
    ndcg_compacted: float
    live_equals_compacted: bool
    deleted_leaks: int
    inserted_misses: int


@dataclass(frozen=True)
class MutationReport:
    """The sweep plus the fixed workload shape it was measured under."""

    k: int
    n_queries: int
    batch: int
    docs: int
    points: tuple


def _churn_point(
    churn: float,
    *,
    corpus,
    fresh_pool: np.ndarray,
    queries: np.ndarray,
    batch: int,
    k: int,
    config: HermesConfig,
    rng: np.random.Generator,
) -> ChurnPoint:
    # A private datastore per point: mutation is destructive, so sharing the
    # memoised accuracy datastore would poison every other experiment.
    datastore = cluster_datastore(corpus.embeddings, config)
    searcher = HermesSearcher(datastore, config=config)
    n_batches = len(queries) // batch
    inserted = deleted = 0
    peak_delta = 0
    pool_next = 0
    deleted_ids: set = set()
    live_times = []
    # Fractional accumulator: churn * batch < 1 at small batches; rounding
    # per batch would mutate nothing and leave the sweep vacuous.
    mut_acc = 0.0
    for b in range(n_batches):
        mut_acc += churn * batch
        n_mut = int(mut_acc)
        mut_acc -= n_mut
        if n_mut:
            fresh = fresh_pool[pool_next : pool_next + n_mut]
            pool_next += n_mut
            datastore.add_documents(fresh)
            inserted += len(fresh)
            _, live_ids = datastore.live_vectors()
            victims = rng.choice(live_ids, size=n_mut, replace=False)
            datastore.delete_documents(victims)
            deleted += len(victims)
            deleted_ids.update(int(g) for g in victims)
        peak_delta = max(peak_delta, datastore.delta_rows())
        sub = queries[b * batch : (b + 1) * batch]
        start = time.perf_counter()
        searcher.search(sub, k=k, clusters_to_search=datastore.n_clusters)
        live_times.append(time.perf_counter() - start)

    # Final live state: quality + integrity, then the compacted replay.
    live_vecs, live_ids = datastore.live_vectors()
    mono = MonolithicRetriever(live_vecs)
    _, truth_pos = mono.ground_truth(queries, k)
    truth = live_ids[truth_pos]
    live = searcher.search(queries, k=k, clusters_to_search=datastore.n_clusters)
    leaks = int(np.isin(live.ids, np.array(sorted(deleted_ids))).sum())
    ndcg_live = ndcg(live.ids, truth)

    compacted_shards = datastore.compact()
    compacted = searcher.search(queries, k=k, clusters_to_search=datastore.n_clusters)
    ndcg_compacted = ndcg(compacted.ids, truth)
    identical = bool(np.array_equal(live.ids, compacted.ids))

    compacted_times = []
    for b in range(n_batches):
        sub = queries[b * batch : (b + 1) * batch]
        start = time.perf_counter()
        searcher.search(sub, k=k, clusters_to_search=datastore.n_clusters)
        compacted_times.append(time.perf_counter() - start)

    # Every surviving insert must be findable by its own embedding.
    inserted_misses = 0
    if inserted:
        survivors = np.setdiff1d(
            np.arange(len(corpus.embeddings), len(datastore.assignments)),
            np.array(sorted(deleted_ids)),
        )
        if len(survivors):
            probe = datastore.reconstruct_vectors()[survivors]
            hits = searcher.search(probe, k=k, clusters_to_search=datastore.n_clusters)
            inserted_misses = int((~(hits.ids == survivors[:, None]).any(axis=1)).sum())

    p50_live = float(np.median(live_times) * 1e3)
    p50_compacted = float(np.median(compacted_times) * 1e3)
    return ChurnPoint(
        churn=churn,
        batches=n_batches,
        inserted=inserted,
        deleted=deleted,
        peak_delta_rows=peak_delta,
        compacted_shards=compacted_shards,
        p50_live_ms=p50_live,
        p50_compacted_ms=p50_compacted,
        overhead_frac=(p50_live / p50_compacted - 1.0) if p50_compacted else 0.0,
        ndcg_live=ndcg_live,
        ndcg_compacted=ndcg_compacted,
        live_equals_compacted=identical,
        deleted_leaks=leaks,
        inserted_misses=inserted_misses,
    )


def run(
    churns: tuple = CHURN_SWEEP,
    *,
    docs: int = 3_000,
    n_queries: int = 128,
    batch: int = 32,
    k: int = K_MUTATION,
    n_clusters: int = 4,
    seed: int = 0,
) -> MutationReport:
    """Sweep churn rates over a private datastore; returns the report."""
    corpus = make_corpus(docs, n_topics=8, dim=64, seed=seed)
    # The insert stream: same topic geometry, disjoint sample.
    from ..datastore.embeddings import TopicModel

    model = corpus.topic_model
    fresh_model = TopicModel(
        centers=model.centers,
        weights=model.weights,
        spread=model.spread,
        rng_seed=seed + 1,
    )
    fresh_pool, _ = fresh_model.sample_documents(
        max(1, int(max(churns, default=0.0) * n_queries)) + batch
    )
    queries = trivia_queries(corpus.topic_model, n_queries, seed=seed + 2).embeddings
    config = HermesConfig(
        n_clusters=n_clusters, clusters_to_search=n_clusters, nlist=16
    )
    rng = np.random.default_rng(seed + 3)
    points = tuple(
        _churn_point(
            churn,
            corpus=corpus,
            fresh_pool=fresh_pool,
            queries=queries,
            batch=batch,
            k=k,
            config=config,
            rng=rng,
        )
        for churn in churns
    )
    return MutationReport(
        k=k, n_queries=n_queries, batch=batch, docs=docs, points=points
    )


TABLE_HEADERS = [
    "churn",
    "ins",
    "del",
    "peak delta",
    "p50 live (ms)",
    "p50 compacted (ms)",
    "overhead",
    "NDCG live",
    "NDCG compacted",
    "identical",
]


def table_rows(report: MutationReport) -> list:
    """Rows for :func:`repro.metrics.reporting.format_table`."""
    return [
        (
            f"{p.churn:.0%}",
            p.inserted,
            p.deleted,
            p.peak_delta_rows,
            f"{p.p50_live_ms:.2f}",
            f"{p.p50_compacted_ms:.2f}",
            f"{p.overhead_frac:+.0%}",
            f"{p.ndcg_live:.4f}",
            f"{p.ndcg_compacted:.4f}",
            "yes" if p.live_equals_compacted else "NO",
        )
        for p in report.points
    ]


def smoke_check(report: MutationReport) -> list:
    """Acceptance assertions for ``--smoke``; returns the failure list."""
    problems = []
    for p in report.points:
        if p.deleted_leaks:
            problems.append(
                f"churn {p.churn:.0%}: {p.deleted_leaks} deleted documents "
                "surfaced in search results"
            )
        if p.inserted_misses:
            problems.append(
                f"churn {p.churn:.0%}: {p.inserted_misses} inserted documents "
                "not retrievable by their own embedding"
            )
        if not p.live_equals_compacted:
            problems.append(
                f"churn {p.churn:.0%}: live and compacted result ids differ "
                "at full probe"
            )
        if abs(p.ndcg_live - p.ndcg_compacted) > 1e-9:
            problems.append(
                f"churn {p.churn:.0%}: NDCG live {p.ndcg_live:.4f} != "
                f"compacted {p.ndcg_compacted:.4f}"
            )
        if p.churn > 0 and p.peak_delta_rows == 0:
            problems.append(
                f"churn {p.churn:.0%}: no delta rows accumulated — the "
                "mutation path was not exercised"
            )
    return problems


def write_artifact(report: MutationReport, path: "str | Path") -> Path:
    """Persist the sweep as a JSON artifact."""
    path = Path(path)
    payload = {
        "experiment": "mutation_churn",
        "description": "live-mutation churn sweep: NDCG/latency of delta+"
        "tombstone serving vs the compacted datastore, plus integrity checks",
        "k": report.k,
        "n_queries": report.n_queries,
        "batch": report.batch,
        "docs": report.docs,
        "points": [asdict(p) for p in report.points],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
