"""Tests for the Hermes DVFS policies."""

import pytest

from repro.core.dvfs_policy import evaluate_dvfs
from repro.core.hierarchical import HermesSearcher
from repro.perfmodel.aggregate import MultiNodeModel
from repro.perfmodel.trace import routing_to_batch


@pytest.fixture()
def model(clustered):
    # A scale where the deep search is comparable to inference, as in the
    # paper's DVFS study.
    return MultiNodeModel.hosting(clustered.shard_token_sizes(20e9))


@pytest.fixture()
def decision(clustered, small_queries):
    return HermesSearcher(clustered).search(small_queries.embeddings).routing


def compare(model, decision, *, inference_latency_s):
    """The three policies on a real clustering's fleet, for one routed batch."""
    return evaluate_dvfs(
        model,
        decision.batch_size,
        routing_to_batch(decision).node_loads(len(model.cluster)),
        inference_latency_s=inference_latency_s,
    )


class TestEvaluateDVFS:
    def test_orderings(self, model, decision):
        cmp = compare(model, decision, inference_latency_s=0.72)
        assert cmp.baseline.energy_j <= cmp.none.energy_j * 1.001
        assert cmp.baseline_savings >= -1e-6
        assert cmp.enhanced_savings >= -1e-6

    def test_enhanced_exploits_inference_window(self, model, decision):
        # A looser inference window lets enhanced DVFS slow deeper, saving
        # more dynamic energy in absolute joules (fractional savings can
        # shrink because the longer period accrues more idle energy).
        tight = compare(model, decision, inference_latency_s=0.01)
        loose = compare(model, decision, inference_latency_s=10.0)
        tight_saved_j = tight.none.energy_j - tight.enhanced.energy_j
        loose_saved_j = loose.none.energy_j - loose.enhanced.energy_j
        assert loose_saved_j >= tight_saved_j - 1e-6

    def test_baseline_latency_preserved(self, model, decision):
        cmp = compare(model, decision, inference_latency_s=0.72)
        assert cmp.baseline.latency_s <= cmp.none.latency_s * 1.001

    def test_rejects_bad_window(self, model, decision):
        with pytest.raises(ValueError):
            compare(model, decision, inference_latency_s=0.0)
