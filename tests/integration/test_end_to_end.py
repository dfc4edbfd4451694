"""Cross-module integration tests: the full offline + online Hermes flow.

Real ids come from :class:`HermesSearcher`, prompts from ``augment_query``,
and the modelled at-scale cost of the routed batch from
``MultiNodeModel.hosting(...).hermes`` + ``simulate_generation`` (the
``serve_at_scale`` fixture) — the surface the examples and figures use.
"""

import numpy as np
import pytest

from repro import (
    GenerationConfig,
    HermesConfig,
    InferenceModel,
    MonolithicRetriever,
    cluster_datastore,
    make_corpus,
    ndcg,
)
from repro.core.hierarchical import HermesSearcher
from repro.datastore.chunkstore import ChunkStore, augment_query
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from repro.datastore.queries import trivia_queries
from repro.llm.models import PHI_1_5


class TestOfflineToOnline:
    """Build everything from tokens upward and serve text queries."""

    @pytest.fixture(scope="class")
    def stack(self):
        vocab = TokenVocabulary(n_topics=6, pool_size=150, common_size=80)
        gen = CorpusGenerator(vocab, doc_tokens=96, topical_fraction=0.75, seed=3)
        docs = gen.generate(300)
        chunks = chunk_documents(docs, chunk_tokens=48)
        encoder = SyntheticEncoder(dim=32, seed=0)
        datastore = cluster_datastore(
            encoder.encode_chunks(chunks),
            HermesConfig(n_clusters=6, clusters_to_search=2),
        )
        return vocab, encoder, datastore, ChunkStore(chunks)

    @pytest.fixture()
    def answer(self, stack, serve_at_scale):
        _, encoder, datastore, store = stack

        def answer(texts):
            search, _, generation = serve_at_scale(
                datastore,
                encoder.encode_batch(texts),
                total_tokens=10e9,
                generation=GenerationConfig(output_tokens=64),
            )
            augmented = [
                augment_query(text, store, search.ids[i], top_n=datastore.config.rerank_top)
                for i, text in enumerate(texts)
            ]
            return augmented, generation

        return answer

    def test_serving_text_batch(self, stack, answer):
        vocab = stack[0]
        queries = [
            " ".join(f"tok{t}" for t in vocab.topic_pool(topic)[:5])
            for topic in (0, 1, 2, 3)
        ]
        augmented, generation = answer(queries)
        assert generation.e2e_s > 0
        assert generation.config.batch == 4
        assert [a.prompt().endswith(q) for a, q in zip(augmented, queries)] == [True] * 4

    def test_retrieved_context_topically_relevant(self, stack, answer):
        vocab = stack[0]
        query = " ".join(f"tok{t}" for t in vocab.topic_pool(2)[:6])
        augmented, _ = answer([query] * 2)
        context = augmented[0].context_texts[0]
        topics = [
            vocab.topic_of_token(int(w[3:]))
            for w in context.split()
            if vocab.topic_of_token(int(w[3:])) >= 0
        ]
        assert np.bincount(topics, minlength=6).argmax() == 2


class TestAccuracyEndToEnd:
    def test_hermes_matches_monolithic_on_fresh_corpus(self):
        corpus = make_corpus(2500, n_topics=8, dim=48, seed=77)
        queries = trivia_queries(corpus.topic_model, 32, seed=78)
        mono = MonolithicRetriever(corpus.embeddings)
        _, truth = mono.ground_truth(queries.embeddings, 5)
        datastore = cluster_datastore(
            corpus.embeddings, HermesConfig(n_clusters=8, clusters_to_search=3)
        )
        result = HermesSearcher(datastore).search(queries.embeddings, k=5)
        assert ndcg(result.ids, truth) > 0.9

    def test_graceful_degradation_on_structureless_queries(self):
        """Adversarial: topic-free queries should degrade, not break."""
        corpus = make_corpus(2000, n_topics=8, dim=48, seed=5)
        emb = np.random.default_rng(300).normal(size=(16, 48)).astype(np.float32)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        datastore = cluster_datastore(
            corpus.embeddings, HermesConfig(n_clusters=8, clusters_to_search=3)
        )
        searcher = HermesSearcher(datastore)
        assert (searcher.search(emb, k=5).ids >= 0).all()

        mono = MonolithicRetriever(corpus.embeddings)
        _, truth = mono.ground_truth(emb, 5)
        # Searching all clusters recovers most quality even without structure.
        full = searcher.search(emb, clusters_to_search=8)
        assert ndcg(full.ids, truth) > 0.85


class TestDeploymentVariants:
    def test_small_model_small_fleet(self, serve_at_scale):
        corpus = make_corpus(1200, n_topics=4, dim=32, seed=9)
        datastore = cluster_datastore(
            corpus.embeddings, HermesConfig(n_clusters=4, clusters_to_search=2)
        )
        _, _, generation = serve_at_scale(
            datastore,
            corpus.embeddings[:16],
            total_tokens=1e9,
            inference=InferenceModel(model=PHI_1_5),
            generation=GenerationConfig(output_tokens=32, stride=8),
        )
        assert generation.config.n_strides == 4
        assert generation.e2e_s > 0

    def test_pipelined_cached_serving(self, serve_at_scale):
        corpus = make_corpus(1200, n_topics=4, dim=32, seed=10)
        datastore = cluster_datastore(
            corpus.embeddings, HermesConfig(n_clusters=4, clusters_to_search=2)
        )
        q = corpus.embeddings[:16]
        _, _, base = serve_at_scale(datastore, q, total_tokens=100e9)
        _, _, fast = serve_at_scale(
            datastore,
            q,
            total_tokens=100e9,
            generation=GenerationConfig(pipelined=True, prefix_cached=True),
        )
        assert fast.e2e_s < base.e2e_s
