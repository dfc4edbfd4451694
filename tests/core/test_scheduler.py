"""A real clustering's routed batch on the fleet model.

What ``core.scheduler.HermesScheduler`` stated, on the surface that replaced
it: :meth:`MultiNodeModel.hosting` provisions one node per shard of a
:class:`ClusteredDatastore` at a nominal token scale, and
``routing_to_batch(decision).node_loads(n)`` is the load a routed batch puts
on it.
"""

import numpy as np
import pytest

from repro.core.hierarchical import HermesSearcher
from repro.hardware.cpu import get_cpu
from repro.perfmodel.aggregate import DVFSPolicy, MultiNodeModel
from repro.perfmodel.measurements import index_memory_bytes
from repro.perfmodel.trace import ClusterAccessTrace, routing_to_batch

TOTAL_TOKENS = 100e9


@pytest.fixture()
def model(clustered):
    return MultiNodeModel.hosting(clustered.shard_token_sizes(TOTAL_TOKENS))


@pytest.fixture()
def decision(clustered, small_queries):
    return HermesSearcher(clustered).search(small_queries.embeddings).routing


def dispatch(model, decision, config, **kwargs):
    return model.hermes(
        decision.batch_size,
        routing_to_batch(decision).node_loads(len(model.cluster)),
        sample_nprobe=config.sample_nprobe,
        deep_nprobe=config.deep_nprobe,
        **kwargs,
    )


class TestConstruction:
    def test_default_fleet_matches_clusters(self, model, clustered):
        assert len(model.cluster) == clustered.n_clusters
        assert all(node.cpu is get_cpu("xeon_gold_6448y") for node in model.cluster)
        arm = MultiNodeModel.hosting([1e9, 2e9], cpu=get_cpu("neoverse_n1"))
        assert all(node.cpu is get_cpu("neoverse_n1") for node in arm.cluster)

    def test_shards_sized_by_document_share(self, model, clustered):
        sizes = clustered.sizes()
        tokens = np.array([n.shard_tokens for n in model.cluster])
        assert tokens.sum() == pytest.approx(TOTAL_TOKENS)
        assert tokens[0] / tokens[1] == pytest.approx(sizes[0] / sizes[1], rel=1e-6)

    def test_nodes_provisioned_to_fit_the_largest_shard(self):
        # 1 TB is the floor; a trillion-token shard needs more, with headroom
        assert {n.memory_gb for n in MultiNodeModel.hosting([1e9, 2e9]).cluster} == {1024.0}
        big = MultiNodeModel.hosting([1e12, 2e9])
        assert all(n.memory_gb == 2 * index_memory_bytes(1e12) / 1e9 for n in big.cluster)
        assert all(n.shard_fits for n in big.cluster)

    def test_fleet_size_mismatch_rejected(self, clustered, decision):
        three_nodes = MultiNodeModel.hosting([1e9] * 3)
        with pytest.raises(ValueError, match="per-node loads"):
            three_nodes.hermes(
                decision.batch_size,
                routing_to_batch(decision).node_loads(clustered.n_clusters),
            )

    def test_nonpositive_tokens_rejected(self, clustered):
        with pytest.raises(ValueError):
            MultiNodeModel.hosting(clustered.shard_token_sizes(0))
        with pytest.raises(ValueError):
            MultiNodeModel.hosting([])
        with pytest.raises(ValueError):
            MultiNodeModel.hosting([1e9, -1e9, 5e9])


class TestDispatch:
    def test_returns_sample_and_deep(self, model, decision, hermes_config):
        result = dispatch(model, decision, hermes_config)
        assert result.sample is not None
        assert result.latency_s > 0
        assert result.energy_j > 0

    def test_records_trace(self, decision):
        # the caller keeps the access trace (Fig. 13's spelling), one entry a batch
        trace = ClusterAccessTrace(n_clusters=10)
        trace.record(routing_to_batch(decision))
        trace.record(routing_to_batch(decision))
        assert len(trace) == 2
        assert trace.access_counts().sum() == 2 * decision.batch_size * decision.fanout

    def test_hermes_cheaper_than_naive(self, model, decision, hermes_config):
        hermes = dispatch(model, decision, hermes_config)
        naive = model.naive_split(decision.batch_size, nprobe=hermes_config.deep_nprobe)
        assert hermes.energy_j < naive.energy_j

    def test_hermes_faster_than_monolithic(self, model, decision, hermes_config):
        hermes = dispatch(model, decision, hermes_config)
        mono = model.monolithic(
            TOTAL_TOKENS, decision.batch_size, nprobe=hermes_config.deep_nprobe
        )
        assert hermes.latency_s < mono.latency_s

    def test_dvfs_baseline_not_worse(self, model, decision, hermes_config):
        none = dispatch(model, decision, hermes_config)
        base = dispatch(model, decision, hermes_config, dvfs=DVFSPolicy.BASELINE)
        assert base.energy_j <= none.energy_j * 1.001


class TestRoutingConversion:
    def test_roundtrip(self, decision):
        batch = routing_to_batch(decision)
        assert batch.batch_size == decision.batch_size
        assert np.array_equal(batch.clusters, decision.clusters)
