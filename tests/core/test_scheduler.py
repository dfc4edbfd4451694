"""Tests for the Hermes scheduler."""

import numpy as np
import pytest

from repro.core.hierarchical import HermesSearcher
from repro.core.scheduler import HermesScheduler, routing_to_batch
from repro.hardware.node import NodeCluster
from repro.perfmodel.aggregate import DVFSPolicy


@pytest.fixture()
def scheduler(clustered):
    return HermesScheduler(datastore=clustered, total_tokens=100e9)


@pytest.fixture()
def decision(clustered, small_queries):
    return HermesSearcher(clustered).search(small_queries.embeddings).routing


class TestConstruction:
    def test_default_fleet_matches_clusters(self, scheduler, clustered):
        assert len(scheduler.cluster) == clustered.n_clusters

    def test_shards_sized_by_document_share(self, scheduler, clustered):
        sizes = clustered.sizes()
        tokens = np.array([n.shard_tokens for n in scheduler.cluster])
        assert tokens.sum() == pytest.approx(100e9)
        assert tokens[0] / tokens[1] == pytest.approx(sizes[0] / sizes[1], rel=1e-6)

    def test_fleet_size_mismatch_rejected(self, clustered):
        with pytest.raises(ValueError, match="nodes"):
            HermesScheduler(
                datastore=clustered,
                total_tokens=1e9,
                cluster=NodeCluster.homogeneous(3),
            )

    def test_nonpositive_tokens_rejected(self, clustered):
        with pytest.raises(ValueError):
            HermesScheduler(datastore=clustered, total_tokens=0)


class TestDispatch:
    def test_returns_sample_and_deep(self, scheduler, decision):
        result = scheduler.dispatch(decision)
        assert result.sample is not None
        assert result.latency_s > 0
        assert result.energy_j > 0

    def test_records_trace(self, scheduler, decision):
        scheduler.dispatch(decision)
        scheduler.dispatch(decision)
        assert len(scheduler.trace) == 2

    def test_hermes_cheaper_than_naive(self, scheduler, decision):
        hermes = scheduler.dispatch(decision)
        naive = scheduler.naive_dispatch(decision.batch_size)
        assert hermes.energy_j < naive.energy_j

    def test_hermes_faster_than_monolithic(self, scheduler, decision):
        hermes = scheduler.dispatch(decision)
        mono = scheduler.monolithic_dispatch(decision.batch_size)
        assert hermes.latency_s < mono.latency_s

    def test_dvfs_baseline_not_worse(self, scheduler, decision):
        none = scheduler.dispatch(decision)
        base = scheduler.dispatch(decision, dvfs=DVFSPolicy.BASELINE)
        assert base.energy_j <= none.energy_j * 1.001


class TestDiagnostics:
    def test_mean_loads_shape(self, scheduler, decision):
        scheduler.dispatch(decision)
        loads = scheduler.mean_node_loads()
        assert loads.shape == (10,)
        assert loads.sum() == pytest.approx(decision.batch_size * decision.fanout)

    def test_access_imbalance_finite_after_traffic(self, clustered, small_queries):
        scheduler = HermesScheduler(datastore=clustered, total_tokens=100e9)
        searcher = HermesSearcher(clustered)
        for _ in range(4):
            result = searcher.search(small_queries.embeddings, clusters_to_search=5)
            scheduler.dispatch(result.routing)
        assert np.isfinite(scheduler.access_imbalance())


class TestRoutingConversion:
    def test_roundtrip(self, decision):
        batch = routing_to_batch(decision)
        assert batch.batch_size == decision.batch_size
        assert np.array_equal(batch.clusters, decision.clusters)
