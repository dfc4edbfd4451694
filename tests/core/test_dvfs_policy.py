"""Tests for the Hermes DVFS policies."""

import pytest

from repro.core.dvfs_policy import evaluate_dvfs
from repro.core.hierarchical import HermesSearcher
from repro.core.scheduler import HermesScheduler, routing_to_batch


@pytest.fixture()
def scheduler(clustered):
    # A scale where the deep search is comparable to inference, as in the
    # paper's DVFS study.
    return HermesScheduler(datastore=clustered, total_tokens=20e9)


@pytest.fixture()
def decision(clustered, small_queries):
    return HermesSearcher(clustered).search(small_queries.embeddings).routing


def compare(scheduler, decision, *, inference_latency_s):
    """The three policies on a scheduler's fleet model, for one routed batch."""
    return evaluate_dvfs(
        scheduler.model,
        decision.batch_size,
        routing_to_batch(decision).node_loads(scheduler.datastore.n_clusters),
        inference_latency_s=inference_latency_s,
        sample_nprobe=scheduler.config.sample_nprobe,
        deep_nprobe=scheduler.config.deep_nprobe,
    )


class TestEvaluateDVFS:
    def test_orderings(self, scheduler, decision):
        cmp = compare(scheduler, decision, inference_latency_s=0.72)
        assert cmp.baseline.energy_j <= cmp.none.energy_j * 1.001
        assert cmp.baseline_savings >= -1e-6
        assert cmp.enhanced_savings >= -1e-6

    def test_enhanced_exploits_inference_window(self, scheduler, decision):
        # A looser inference window lets enhanced DVFS slow deeper, saving
        # more dynamic energy in absolute joules (fractional savings can
        # shrink because the longer period accrues more idle energy).
        tight = compare(scheduler, decision, inference_latency_s=0.01)
        loose = compare(scheduler, decision, inference_latency_s=10.0)
        tight_saved_j = tight.none.energy_j - tight.enhanced.energy_j
        loose_saved_j = loose.none.energy_j - loose.enhanced.energy_j
        assert loose_saved_j >= tight_saved_j - 1e-6

    def test_baseline_latency_preserved(self, scheduler, decision):
        cmp = compare(scheduler, decision, inference_latency_s=0.72)
        assert cmp.baseline.latency_s <= cmp.none.latency_s * 1.001

    def test_only_one_trace_entry(self, scheduler, decision):
        # Costing a dispatched batch under the three policies re-costs it;
        # it is not three more batches in the access trace.
        scheduler.dispatch(decision)
        compare(scheduler, decision, inference_latency_s=0.72)
        assert len(scheduler.trace) == 1

    def test_rejects_bad_window(self, scheduler, decision):
        with pytest.raises(ValueError):
            compare(scheduler, decision, inference_latency_s=0.0)
