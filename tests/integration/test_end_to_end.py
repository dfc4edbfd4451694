"""Cross-module integration tests: the full offline + online Hermes flow."""

import numpy as np
import pytest

from repro import (
    GenerationConfig,
    HermesConfig,
    HermesSystem,
    InferenceModel,
    MonolithicRetriever,
    make_corpus,
    ndcg,
)
from repro.core.hierarchical import HermesSearcher
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from repro.datastore.queries import trivia_queries
from repro.llm.models import PHI_1_5


class TestOfflineToOnline:
    """Build everything from tokens upward and serve queries."""

    @pytest.fixture(scope="class")
    def stack(self):
        vocab = TokenVocabulary(n_topics=6, pool_size=150, common_size=80)
        gen = CorpusGenerator(vocab, doc_tokens=96, topical_fraction=0.75, seed=3)
        docs = gen.generate(300)
        chunks = chunk_documents(docs, chunk_tokens=48)
        encoder = SyntheticEncoder(dim=32, seed=0)
        embeddings = encoder.encode_chunks(chunks)
        system = HermesSystem(
            embeddings,
            total_tokens=10e9,
            config=HermesConfig(n_clusters=6, clusters_to_search=2),
            chunk_store=ChunkStore(chunks),
            encoder=encoder,
            generation=GenerationConfig(batch=8, output_tokens=64),
        )
        return vocab, system

    def test_serving_text_batch(self, stack):
        vocab, system = stack
        queries = [
            " ".join(f"tok{t}" for t in vocab.topic_pool(topic)[:5])
            for topic in (0, 1, 2, 3)
        ]
        response = system.serve(queries)
        assert response.generation.e2e_s > 0
        assert len(response.augmented) == 4

    def test_retrieved_context_topically_relevant(self, stack):
        vocab, system = stack
        query = " ".join(f"tok{t}" for t in vocab.topic_pool(2)[:6])
        response = system.serve([query] * 2)
        context = response.augmented[0].context_texts[0]
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
        system = HermesSystem(
            corpus.embeddings,
            total_tokens=1e12,
            config=HermesConfig(n_clusters=8, clusters_to_search=3),
        )
        outcome = system.retrieve(queries.embeddings, k=5)
        assert ndcg(outcome.search.ids, truth) > 0.9

    def test_graceful_degradation_on_structureless_queries(self):
        """Adversarial: topic-free queries should degrade, not break."""
        corpus = make_corpus(2000, n_topics=8, dim=48, seed=5)
        emb = np.random.default_rng(300).normal(size=(16, 48)).astype(np.float32)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        system = HermesSystem(
            corpus.embeddings,
            total_tokens=1e9,
            config=HermesConfig(n_clusters=8, clusters_to_search=3),
        )
        outcome = system.retrieve(emb, k=5)
        assert (outcome.search.ids >= 0).all()

        mono = MonolithicRetriever(corpus.embeddings)
        _, truth = mono.ground_truth(emb, 5)
        # Searching all clusters recovers most quality even without structure.
        searcher = HermesSearcher(system.datastore)
        full = searcher.search(emb, clusters_to_search=8)
        assert ndcg(full.ids, truth) > 0.85


class TestDeploymentVariants:
    def test_small_model_small_fleet(self):
        corpus = make_corpus(1200, n_topics=4, dim=32, seed=9)
        system = HermesSystem(
            corpus.embeddings,
            total_tokens=1e9,
            config=HermesConfig(n_clusters=4, clusters_to_search=2),
            inference=InferenceModel(model=PHI_1_5),
            generation=GenerationConfig(batch=16, output_tokens=32, stride=8),
        )
        response = system.serve(corpus.embeddings[:16])
        assert response.generation.config.n_strides == 4
        assert response.generation.e2e_s > 0

    def test_pipelined_cached_serving(self):
        corpus = make_corpus(1200, n_topics=4, dim=32, seed=10)
        base_cfg = GenerationConfig(batch=16)
        fast_cfg = GenerationConfig(batch=16, pipelined=True, prefix_cached=True)
        base = HermesSystem(
            corpus.embeddings,
            total_tokens=100e9,
            config=HermesConfig(n_clusters=4, clusters_to_search=2),
            generation=base_cfg,
        )
        fast = HermesSystem(
            corpus.embeddings,
            total_tokens=100e9,
            config=HermesConfig(n_clusters=4, clusters_to_search=2),
            generation=fast_cfg,
            datastore=base.datastore,
        )
        q = corpus.embeddings[:16]
        assert fast.serve(q).generation.e2e_s < base.serve(q).generation.e2e_s
