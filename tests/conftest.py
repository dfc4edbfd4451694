"""Shared fixtures: small corpora, clusterings, and fleets built once."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

# Named hypothesis profiles, selected via HYPOTHESIS_PROFILE:
# - dev (default): moderate examples, no deadline — friendly to laptops.
# - ci: few examples with a generous per-example deadline so a pathological
#   slowdown fails fast instead of eating the CI budget.
# - thorough: the nightly setting — many examples, no deadline.
hypothesis_settings.register_profile("dev", max_examples=25, deadline=None)
hypothesis_settings.register_profile(
    "ci",
    max_examples=10,
    deadline=10_000,
    suppress_health_check=(HealthCheck.too_slow,),
)
hypothesis_settings.register_profile("thorough", max_examples=200, deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from dataclasses import replace

from repro.core.clustering import cluster_datastore, split_datastore_evenly
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.embeddings import make_corpus
from repro.datastore.queries import trivia_queries
from repro.hardware.node import NodeCluster
from repro.llm.generation import (
    GenerationConfig,
    RetrievalCost,
    constant_retrieval,
    simulate_generation,
)
from repro.llm.inference import InferenceModel
from repro.perfmodel.aggregate import MultiNodeModel
from repro.perfmodel.measurements import index_memory_bytes
from repro.perfmodel.trace import routing_to_batch


@pytest.fixture(scope="session")
def small_corpus():
    """A 3000-doc, 10-topic corpus shared by retrieval tests."""
    return make_corpus(3000, n_topics=10, dim=32, spread=0.35, seed=42)


@pytest.fixture(scope="session")
def small_queries(small_corpus):
    """32 TriviaQA-like queries over the shared corpus."""
    return trivia_queries(small_corpus.topic_model, 32)


@pytest.fixture(scope="session")
def hermes_config():
    return HermesConfig()


@pytest.fixture(scope="session")
def clustered(small_corpus, hermes_config):
    """Hermes K-means clustering of the shared corpus (built once)."""
    return cluster_datastore(small_corpus.embeddings, hermes_config)


@pytest.fixture(scope="session")
def even_split(small_corpus, hermes_config):
    """Naive random split of the shared corpus (built once)."""
    return split_datastore_evenly(small_corpus.embeddings, hermes_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def ten_node_fleet():
    """Ten Xeon Gold nodes hosting equal 10B-token shards."""
    cluster = NodeCluster.homogeneous(10)
    cluster.host_shards([10e9] * 10, [index_memory_bytes(10e9)] * 10)
    return cluster


@pytest.fixture()
def fleet_model(ten_node_fleet):
    return MultiNodeModel(ten_node_fleet)


@pytest.fixture(scope="session")
def serve_at_scale():
    """``serve(datastore, queries, total_tokens=...)``: retrieve for real, cost
    that routed batch on a fleet hosting the clustering at *total_tokens*, run
    its generation timeline — the calls the examples spell by hand. Returns
    ``(search, retrieval, generation)``; extra keywords go to
    ``MultiNodeModel.hermes``."""

    def serve(
        datastore, queries, *, total_tokens, generation=None, inference=None, **hermes_kwargs
    ):
        search = HermesSearcher(datastore).search(queries)
        retrieval = MultiNodeModel.hosting(datastore.shard_token_sizes(total_tokens)).hermes(
            search.batch_size,
            routing_to_batch(search.routing).node_loads(datastore.n_clusters),
            sample_nprobe=datastore.config.sample_nprobe,
            deep_nprobe=datastore.config.deep_nprobe,
            **hermes_kwargs,
        )
        timeline = simulate_generation(
            constant_retrieval(RetrievalCost(retrieval.latency_s, retrieval.energy_j)),
            inference or InferenceModel(),
            replace(generation or GenerationConfig(), batch=search.batch_size),
        )
        return search, retrieval, timeline

    return serve
