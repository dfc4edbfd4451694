"""Ablation: auditing RAGCache's ideal-hit-rate assumption.

The paper grants RAGCache a 100% KV-cache hit rate across strides (§3). This
ablation serves *real* token-level strided sessions through the live
:class:`~repro.serving.pipeline.RAGServingPipeline` (retrieval re-executed
each stride with a drifting query) and measures the actual consecutive-stride
document overlap and the hit rate of a real LRU prefix cache — bounding how
much of the ideal saving a deployment would truly capture.
"""

import numpy as np

from repro.baselines.ragcache import simulate_cache_hit_rate, stride_overlap_fraction
from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from repro.metrics.reporting import format_table
from repro.serving.cache import CacheConfig
from repro.serving.pipeline import PipelineConfig, RAGServingPipeline


def _jaccard(a, b):
    """Jaccard similarity of two routed-cluster id rows (ignoring -1)."""
    sa = {int(c) for c in a if c >= 0}
    sb = {int(c) for c in b if c >= 0}
    union = sa | sb
    return len(sa & sb) / len(union) if union else 1.0


def run_sessions(*, n_sessions=10, n_strides=8):
    vocab = TokenVocabulary(n_topics=6, pool_size=150, common_size=80)
    gen = CorpusGenerator(vocab, doc_tokens=96, topical_fraction=0.8, seed=4)
    docs = gen.generate(360)
    chunks = chunk_documents(docs, chunk_tokens=48)
    encoder = SyntheticEncoder(dim=64, seed=0)
    embeddings = encoder.encode_chunks(chunks)
    datastore = cluster_datastore(
        embeddings, HermesConfig(n_clusters=6, clusters_to_search=2)
    )
    searcher = HermesSearcher(datastore)
    rng = np.random.default_rng(9)
    queries = [
        rng.choice(vocab.topic_pool(s % 6), size=16, replace=False)
        for s in range(n_sessions)
    ]

    # The live stride loop, one session per request. Semantic and routing
    # cache tiers are off so every stride really routes and searches with its
    # own drifted query (the exact tier only replays a bit-identical one).
    with RAGServingPipeline(
        searcher,
        encoder,
        ChunkStore(chunks),
        config=PipelineConfig(
            mode="sequential",
            n_strides=n_strides,
            stride_tokens=16,
            grounding=0.6,
            k=5,
        ),
        cache_config=CacheConfig(semantic_threshold=None, routing_threshold=None),
    ) as pipeline:
        report = pipeline.serve(queries)

    records = []
    for s, request in enumerate(report.requests):
        stride_ids = [stride.ids for stride in request.strides]
        routed = searcher.router.route(
            np.stack([stride.query for stride in request.strides]),
            datastore,
            datastore.config.clusters_to_search,
        ).clusters
        records.append(
            {
                "topic": s % 6,
                "overlap": stride_overlap_fraction(stride_ids),
                "routing_stability": float(
                    np.mean([_jaccard(a, b) for a, b in zip(routed, routed[1:])])
                ),
                "lru_hit_rate": simulate_cache_hit_rate(
                    stride_ids, capacity=4096, chunk_tokens=48
                ),
            }
        )
    return records


def test_ablation_ragcache_overlap(run_once):
    records = run_once(run_sessions)
    print("\n" + format_table(
        ["topic", "doc overlap", "routing stability", "LRU hit rate"],
        [
            (r["topic"], r["overlap"], r["routing_stability"], r["lru_hit_rate"])
            for r in records
        ],
        title="Ablation: real strided sessions vs RAGCache's ideal assumption",
    ))
    mean_overlap = float(np.mean([r["overlap"] for r in records]))
    mean_hits = float(np.mean([r["lru_hit_rate"] for r in records]))
    mean_routing = float(np.mean([r["routing_stability"] for r in records]))
    print(
        f"means: overlap {mean_overlap:.2f}, LRU hit rate {mean_hits:.2f}, "
        f"routing stability {mean_routing:.2f} (paper assumes hit rate 1.0)"
    )

    # Substantial-but-not-ideal reuse: the assumption is optimistic yet
    # directionally sound for topically stable sessions.
    assert 0.2 < mean_overlap < 1.0
    # The LRU rate trails raw overlap slightly: every session pays k cold
    # misses on its first stride, which the ideal assumption waives.
    assert mean_hits > 0.5
    assert mean_hits > mean_overlap - 0.15
    # Hermes routing is stable across strides, so per-node state persists.
    assert mean_routing > 0.6
