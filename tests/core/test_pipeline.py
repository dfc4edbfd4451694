"""One modelled batch end to end: real retrieval, the routed batch's fleet
cost at nominal scale, and its generation timeline — what the deleted
``HermesSystem`` facade composed, on the calls that replaced it."""

import numpy as np
import pytest

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.datastore.chunkstore import ChunkStore, augment_query
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from repro.llm.generation import GenerationConfig, inference_block_s
from repro.llm.inference import InferenceModel
from repro.perfmodel.aggregate import DVFSPolicy


class TestRetrieve:
    def test_real_ids_with_modelled_cost(self, serve_at_scale, clustered, small_queries):
        search, retrieval, _ = serve_at_scale(
            clustered, small_queries.embeddings[:8], total_tokens=100e9
        )
        assert search.ids.shape == (8, clustered.config.k)
        assert retrieval.latency_s > 0
        assert retrieval.energy_j > 0

    def test_cost_conversion(self, serve_at_scale, clustered, small_queries):
        _, retrieval, generation = serve_at_scale(
            clustered, small_queries.embeddings[:4], total_tokens=100e9
        )
        # every stride of the timeline is charged the fleet model's cost
        assert generation.first_retrieval_s == retrieval.latency_s
        assert generation.cpu_energy_j == pytest.approx(
            retrieval.energy_j * generation.config.n_strides
        )


class TestServe:
    def test_generation_attached(self, serve_at_scale, clustered, small_queries):
        _, _, generation = serve_at_scale(
            clustered, small_queries.embeddings[:8], total_tokens=100e9
        )
        assert generation.e2e_s > generation.ttft_s
        assert generation.config.batch == 8

    def test_retrieval_cost_flows_into_timeline(self, serve_at_scale, clustered, small_queries):
        _, retrieval, generation = serve_at_scale(
            clustered, small_queries.embeddings[:8], total_tokens=100e9
        )
        assert generation.retrieval_s == pytest.approx(
            retrieval.latency_s * generation.config.n_strides
        )


class TestDescribe:
    def test_memory_positive(self, clustered):
        assert clustered.memory_bytes() > 0


class TestTextPath:
    def test_full_text_pipeline(self, serve_at_scale):
        """Raw text in, augmented prompt out — the complete Fig. 3 flow."""
        vocab = TokenVocabulary(n_topics=4, pool_size=150, common_size=60)
        gen = CorpusGenerator(vocab, doc_tokens=96, topical_fraction=0.8, seed=0)
        chunks = chunk_documents(gen.generate(150), chunk_tokens=48)
        encoder = SyntheticEncoder(dim=32, seed=0)
        datastore = cluster_datastore(
            encoder.encode_chunks(chunks), HermesConfig(n_clusters=4, clusters_to_search=2)
        )
        query_text = " ".join(f"tok{t}" for t in vocab.topic_pool(1)[:6])
        search, _, generation = serve_at_scale(
            datastore, encoder.encode_batch([query_text] * 4), total_tokens=1e9
        )
        assert generation.e2e_s > 0
        augmented = augment_query(query_text, ChunkStore(chunks), search.ids[0])
        assert augmented.prompt().endswith(query_text)
        # The retrieved context should be topically aligned: mostly topic-1
        # pool tokens.
        context_topics = [
            vocab.topic_of_token(int(w[3:])) for w in augmented.context_texts[0].split()
        ]
        topical = [t for t in context_topics if t >= 0]
        assert topical and (np.bincount(topical, minlength=4).argmax() == 1)


class TestDVFSIntegration:
    def test_enhanced_dvfs_system(self, serve_at_scale, clustered, small_queries):
        queries = small_queries.embeddings[:8]
        window = inference_block_s(InferenceModel(), GenerationConfig(batch=8))
        _, plain, _ = serve_at_scale(clustered, queries, total_tokens=20e9)
        _, enhanced, _ = serve_at_scale(
            clustered,
            queries,
            total_tokens=20e9,
            dvfs=DVFSPolicy.ENHANCED,
            latency_target_s=window,
        )
        # slowed past the batch's own slowest node, never past the window
        assert plain.deep.latency_s < enhanced.deep.latency_s <= window
