"""Tests for the serving pipeline simulator, cross-validated against the
closed-form analytical model."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.experiments.common import build_fleet
from repro.llm.generation import (
    GenerationConfig,
    RetrievalCost,
    constant_retrieval,
    simulate_generation,
    steady_state_throughput_qps,
)
from repro.llm.inference import InferenceModel
from repro.perfmodel.aggregate import (
    DistributedRetrievalResult,
    DVFSPolicy,
    PhaseResult,
    expected_deep_loads,
)
from repro.serving import PipelineSimulator, StagePlan, plan_from_models


def phases(sample_seconds, deep_seconds) -> DistributedRetrievalResult:
    """A fleet-model result with the given per-node busy seconds."""

    def phase(seconds) -> PhaseResult:
        seconds = np.asarray(seconds, dtype=np.float64)
        return PhaseResult(
            latency_s=float(seconds.max()),
            energy_j=0.0,
            per_node_latency_s=seconds,
            per_node_energy_j=np.zeros_like(seconds),
        )

    sample, deep = phase(sample_seconds), phase(deep_seconds)
    return DistributedRetrievalResult(
        latency_s=sample.latency_s + deep.latency_s, energy_j=0.0, sample=sample, deep=deep
    )


def small_plan(
    sample_seconds=(0.05, 0.05, 0.05), deep_seconds=(0.3, 0.2, 0.0), n_strides=2
):
    return StagePlan(
        encode_s=0.1,
        retrieval=phases(sample_seconds, deep_seconds),
        strides=((0.4, 0.5),) * n_strides,
    )


def modelled_plan(cfg: GenerationConfig, total_tokens: float, **hermes_kwargs):
    """Ten equal shards under the Fig. 13 access skew, three searched deep."""
    fleet = build_fleet(total_tokens, size_skew_exponent=0.0)
    loads = expected_deep_loads(cfg.batch, fleet.access_frequency, 3)
    return plan_from_models(cfg, fleet.model.hermes(cfg.batch, loads, **hermes_kwargs))


class TestStagePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_plan(n_strides=0)
        with pytest.raises(ValueError):
            small_plan(deep_seconds=np.array([0.1]))

    def test_plan_from_models_shapes(self):
        cfg = GenerationConfig(batch=64, output_tokens=40)
        plan = modelled_plan(cfg, 10e9)
        assert plan.n_nodes == 10
        assert len(plan.strides) == cfg.n_strides == 3
        assert (plan.sample_seconds > 0).all()
        assert (plan.deep_seconds >= 0).all()
        # the ragged last stride decodes what is left, not a full stride
        assert plan.strides[2][1] < plan.strides[1][1] == plan.strides[0][1]

    def test_plan_carries_the_fleet_models_dvfs(self):
        cfg = GenerationConfig(batch=64)
        plain = modelled_plan(cfg, 100e9)
        slowed = modelled_plan(cfg, 100e9, dvfs=DVFSPolicy.BASELINE)
        assert slowed.deep_seconds.max() == pytest.approx(plain.deep_seconds.max())
        assert slowed.deep_seconds.sum() > plain.deep_seconds.sum()

    def test_naive_split_plan_has_no_sample_phase(self):
        cfg = GenerationConfig(batch=64)
        naive = build_fleet(10e9).model.naive_split(cfg.batch)
        plan = plan_from_models(cfg, naive)
        assert not plan.sample_seconds.any() and (plan.deep_seconds > 0).all()

    def test_prefix_cached_plan_shrinks_later_prefill(self):
        plan = modelled_plan(GenerationConfig(batch=64, prefix_cached=True), 10e9)
        assert plan.strides[1][0] < plan.strides[0][0]

    def test_mismatched_loads_rejected(self):
        fleet = build_fleet(10e9)
        with pytest.raises(ValueError, match="per-node loads"):
            fleet.model.hermes(64, np.ones(3))


class TestSingleBatch:
    def test_latency_is_sum_of_stages(self):
        plan = small_plan()
        sim = PipelineSimulator(plan, batch_size=8)
        report = sim.run(1)
        per_stride = 0.05 + 0.3 + 0.4 + 0.5  # sample + slowest deep + gpu
        expected = 0.1 + 2 * per_stride
        assert report.batches[0].latency_s == pytest.approx(expected)

    def test_ttft_is_first_stride_prefill_end(self):
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run(1)
        assert report.batches[0].ttft_s == pytest.approx(0.1 + 0.05 + 0.3 + 0.4)

    def test_retrieval_phase_gated_by_slowest_node(self):
        plan = small_plan(deep_seconds=(0.1, 0.9, 0.0))
        report = PipelineSimulator(plan, batch_size=8).run(1)
        assert report.batches[0].latency_s == pytest.approx(
            0.1 + 2 * (0.05 + 0.9 + 0.4 + 0.5)
        )

    def test_empty_deep_phase_skipped(self):
        plan = small_plan(deep_seconds=(0.0, 0.0, 0.0))
        report = PipelineSimulator(plan, batch_size=8).run(1)
        assert report.batches[0].latency_s == pytest.approx(0.1 + 2 * (0.05 + 0.9))


    @given(
        st.builds(
            GenerationConfig,
            batch=st.integers(1, 64),
            input_tokens=st.integers(1, 1024),
            output_tokens=st.integers(1, 96),
            stride=st.integers(1, 32),
            prefix_cached=st.booleans(),
        ),
        st.lists(
            st.tuples(*[st.floats(min_value=0.0, max_value=2.0)] * 2),
            min_size=1, max_size=5,
        ),
    )
    @example(GenerationConfig(batch=32, output_tokens=40, stride=16), [(0.05, 0.3)])
    def test_uncontended_batch_is_the_sequential_timeline(self, cfg, nodes):
        """The DES keeps its event loop for cross-batch contention; with one
        fault-free batch nothing contends, and it must reduce to the pure
        timeline with per-stride retrieval = slowest sample + slowest deep —
        for every config, a ragged last stride (40 / 16) included."""
        retrieval = phases([s for s, _ in nodes], [d for _, d in nodes])
        plan = plan_from_models(cfg, retrieval)
        (batch,) = PipelineSimulator(plan, batch_size=cfg.batch).run(1).batches
        timeline = simulate_generation(
            constant_retrieval(RetrievalCost(retrieval.latency_s, 0.0)),
            InferenceModel(),
            cfg,
        )
        assert batch.ttft_s == pytest.approx(timeline.ttft_s, abs=1e-9)
        assert batch.latency_s == pytest.approx(timeline.e2e_s, abs=1e-9)


class TestPipelining:
    def test_two_batches_overlap(self):
        plan = small_plan()
        solo = PipelineSimulator(plan, batch_size=8).run(1).makespan_s
        duo = PipelineSimulator(plan, batch_size=8).run(2).makespan_s
        assert duo < 2 * solo  # cross-batch overlap buys real time

    def test_steady_state_matches_closed_form_gpu_bound(self):
        # GPU-bound regime: retrieval tiny, GPU block dominates.
        cfg = GenerationConfig(batch=128, output_tokens=64, stride=16)
        plan = modelled_plan(cfg, 1e9)
        sim = PipelineSimulator(plan, batch_size=128)
        report = sim.run(10)
        retrieval = float(plan.sample_seconds.max() + plan.deep_seconds.max())
        per_stride = steady_state_throughput_qps(retrieval, InferenceModel(), cfg)
        # Each request holds the bottleneck for n_strides slots.
        assert report.throughput_qps == pytest.approx(
            per_stride / cfg.n_strides, rel=0.2
        )
        assert report.gpu_utilization > 0.9

    def test_steady_state_matches_closed_form_retrieval_bound(self):
        # Retrieval-bound regime: big shards, GPU mostly idle.
        cfg = GenerationConfig(batch=32, output_tokens=64, stride=16)
        plan = modelled_plan(cfg, 1e12)
        sim = PipelineSimulator(plan, batch_size=32)
        report = sim.run(8)
        assert report.gpu_utilization < 0.5
        # Hot node gates throughput: each request holds it n_strides times.
        hot_busy = float((plan.sample_seconds + plan.deep_seconds).max())
        assert report.throughput_qps == pytest.approx(
            32 / (hot_busy * cfg.n_strides), rel=0.25
        )

    def test_queueing_grows_latency_under_burst(self):
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run(6)
        latencies = [b.latency_s for b in report.batches]
        assert latencies[-1] > latencies[0]  # later batches wait in queue

    def test_open_arrivals_slower_than_service_keep_latency_flat(self):
        plan = small_plan()
        solo = PipelineSimulator(plan, batch_size=8).run(1).batches[0].latency_s
        report = PipelineSimulator(plan, batch_size=8).run(
            4, arrival_interval_s=10.0
        )
        for batch in report.batches:
            assert batch.latency_s == pytest.approx(solo)


class TestReport:
    def test_throughput_definition(self):
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run(3)
        assert report.throughput_qps == pytest.approx(
            3 * 8 / report.makespan_s
        )

    def test_percentiles_ordered(self):
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run(5)
        assert report.latency_percentile(50) <= report.latency_percentile(99)

    def test_invalid_args(self):
        plan = small_plan()
        with pytest.raises(ValueError):
            PipelineSimulator(plan, batch_size=0)
        with pytest.raises(ValueError):
            PipelineSimulator(plan, batch_size=8).run(0)


class TestPoissonArrivals:
    def test_overloaded_system_queues(self):
        # Service takes ~1.9s/batch; offered load every 0.5s -> queueing.
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run_poisson(
            12, mean_interval_s=0.5, seed=1
        )
        assert report.latency_percentile(99) > report.latency_percentile(10)

    def test_underloaded_system_meets_slo(self):
        plan = small_plan()
        solo = PipelineSimulator(plan, batch_size=8).run(1).batches[0].latency_s
        report = PipelineSimulator(plan, batch_size=8).run_poisson(
            10, mean_interval_s=100.0, seed=2
        )
        assert report.slo_attainment(solo * 1.01) == 1.0

    def test_slo_attainment_monotone_in_threshold(self):
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run_poisson(
            10, mean_interval_s=1.0, seed=3
        )
        loose = report.slo_attainment(1000.0)
        tight = report.slo_attainment(0.001)
        assert tight <= report.slo_attainment(report.mean_latency_s) <= loose
        assert loose == 1.0

    def test_ttft_slo(self):
        plan = small_plan()
        report = PipelineSimulator(plan, batch_size=8).run_poisson(
            4, mean_interval_s=50.0, seed=4
        )
        assert report.ttft_slo_attainment(1000.0) == 1.0
        with pytest.raises(ValueError):
            report.ttft_slo_attainment(0.0)

    def test_validation(self):
        plan = small_plan()
        sim = PipelineSimulator(plan, batch_size=8)
        with pytest.raises(ValueError):
            sim.run_poisson(0, mean_interval_s=1.0)
        with pytest.raises(ValueError):
            sim.run_poisson(2, mean_interval_s=0.0)
