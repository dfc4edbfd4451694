"""Tests for the strided-generation timeline."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm.generation import (
    GenerationConfig,
    RetrievalCost,
    StrideTimes,
    constant_retrieval,
    record_timeline,
    simulate_generation,
    stride_costs,
    stride_timeline,
)
from repro.llm.inference import InferenceModel
from repro.obs.trace import Tracer
from repro.obs.validate import validate_span_tree
from repro.perfmodel.measurements import EncoderCostModel


@pytest.fixture()
def inference():
    return InferenceModel()


def run(retrieval_s, inference, **cfg):
    provider = constant_retrieval(RetrievalCost(latency_s=retrieval_s, energy_j=100.0))
    return simulate_generation(provider, inference, GenerationConfig(**cfg))


class TestConfig:
    def test_n_strides(self):
        assert GenerationConfig(output_tokens=256, stride=16).n_strides == 16
        assert GenerationConfig(output_tokens=250, stride=16).n_strides == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(batch=0)
        with pytest.raises(ValueError):
            GenerationConfig(stride=0)

    def test_retrieval_cost_validation(self):
        with pytest.raises(ValueError):
            RetrievalCost(latency_s=-1.0, energy_j=0.0)


class TestSequentialTimeline:
    def test_e2e_is_sum_of_stages(self, inference):
        result = run(1.0, inference)
        assert result.e2e_s == pytest.approx(
            result.encode_s + result.retrieval_s + result.prefill_s + result.decode_s
        )

    def test_retrieval_total_is_per_stride_times_strides(self, inference):
        result = run(1.0, inference)
        assert result.retrieval_s == pytest.approx(result.config.n_strides * 1.0)

    def test_ttft_contains_one_retrieval_and_prefill(self, inference):
        result = run(2.0, inference)
        assert result.ttft_s == pytest.approx(
            result.encode_s + 2.0 + result.first_prefill_s
        )

    def test_paper_e2e_calibration(self, inference):
        # The paper's Fig. 6 anchors, through the full timeline.
        for tokens_latency, expected in ((0.00562, 12.0), (5.62, 101.8), (56.2, 909.1)):
            result = run(tokens_latency, inference)
            assert result.e2e_s == pytest.approx(expected, rel=0.03)

    def test_ttft_retrieval_share_calibration(self, inference):
        # ~61% at 10B (0.562 s retrieval), ~94% at 100B (5.62 s).
        assert run(0.562, inference).retrieval_fraction_of_ttft == pytest.approx(
            0.612, abs=0.02
        )
        assert run(5.62, inference).retrieval_fraction_of_ttft == pytest.approx(
            0.94, abs=0.01
        )


class TestPrefixCaching:
    def test_cached_faster_than_baseline(self, inference):
        base = run(0.5, inference)
        cached = run(0.5, inference, prefix_cached=True)
        assert cached.e2e_s < base.e2e_s

    def test_cache_only_skips_prefill(self, inference):
        base = run(0.5, inference)
        cached = run(0.5, inference, prefix_cached=True)
        assert cached.retrieval_s == base.retrieval_s
        assert cached.decode_s == base.decode_s
        assert cached.prefill_s < base.prefill_s

    def test_ttft_unchanged(self, inference):
        # First stride always prefills in full — caching can't cut TTFT.
        base = run(0.5, inference)
        cached = run(0.5, inference, prefix_cached=True)
        assert cached.ttft_s == pytest.approx(base.ttft_s)


class TestPipelining:
    def test_pipelined_not_slower(self, inference):
        base = run(0.5, inference)
        piped = run(0.5, inference, pipelined=True)
        assert piped.e2e_s <= base.e2e_s

    def test_full_overlap_when_retrieval_small(self, inference):
        result = run(0.001, inference, pipelined=True)
        # E2E ~ encode + first retrieval + all inference.
        inference_only = result.prefill_s + result.decode_s
        assert result.e2e_s == pytest.approx(
            result.encode_s + 0.001 + inference_only, rel=0.01
        )

    def test_retrieval_bound_when_retrieval_large(self, inference):
        result = run(100.0, inference, pipelined=True)
        n = result.config.n_strides
        # All but the last stride are gated by retrieval.
        assert result.e2e_s >= 100.0 * n

    def test_pipelining_helps_most_at_crossover(self, inference):
        # The Fig. 8 shape: speedup peaks where retrieval ~ inference block.
        speedups = []
        for retr in (0.01, 0.7, 100.0):
            base = run(retr, inference)
            piped = run(retr, inference, pipelined=True)
            speedups.append(base.e2e_s / piped.e2e_s)
        assert speedups[1] > speedups[0]
        assert speedups[1] > speedups[2]

    def test_energy_unaffected_by_pipelining(self, inference):
        base = run(0.7, inference)
        piped = run(0.7, inference, pipelined=True)
        assert piped.total_energy_j == pytest.approx(base.total_energy_j)


class TestEnergyAccounting:
    def test_cpu_energy_is_retrieval(self, inference):
        result = run(1.0, inference)
        assert result.cpu_energy_j == pytest.approx(result.config.n_strides * 100.0)

    def test_gpu_energy_positive(self, inference):
        assert run(1.0, inference).gpu_energy_j > 0

    def test_stage_seconds_keys(self, inference):
        stages = run(1.0, inference).stage_seconds
        assert set(stages) == {"encoding", "retrieval", "prefill", "decoding"}


# ---------------------------------------------------------------------------
# The stride-overlap rule itself (property tests)
# ---------------------------------------------------------------------------

_seconds = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@st.composite
def stride_lists(draw):
    """Random strides: each blocks, overlaps, or is a mis-speculation."""
    strides = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        how = draw(st.sampled_from(("blocks", "overlapped", "missed")))
        strides.append(
            StrideTimes(
                encode_s=draw(_seconds),
                retrieval_s=draw(_seconds),
                prefill_s=draw(_seconds),
                decode_s=draw(_seconds),
                verify_s=draw(_seconds) if how != "blocks" else 0.0,
                wasted_s=draw(_seconds) if how == "missed" else 0.0,
                overlapped=how == "overlapped",
            )
        )
    return strides


def _reference_e2e(strides):
    """The rule spelled out stride by stride (the benchmark suite checks the
    live pipeline against the same arithmetic from outside)."""
    t = strides[0].encode_s + strides[0].retrieval_s + strides[0].verify_s
    for prev, nxt in zip(strides, strides[1:]):
        block = prev.prefill_s + prev.decode_s
        window = nxt.encode_s + nxt.retrieval_s
        if nxt.overlapped:
            t += max(block, window) + nxt.verify_s
        else:
            t += block + nxt.verify_s + window
    return t + strides[-1].prefill_s + strides[-1].decode_s


class TestStrideTimeline:
    @given(stride_lists(), st.sampled_from(("cpu", "gpu")))
    def test_intervals_tile_the_request(self, strides, encode_worker):
        if encode_worker == "gpu":
            # the analytic model's shape: one up-front encode on the GPU
            strides = strides[:1] + [
                replace(s, encode_s=0.0, verify_s=0.0) for s in strides[1:]
            ]
        timeline = stride_timeline(strides, encode_worker=encode_worker)
        assert timeline.e2e_s == pytest.approx(_reference_e2e(strides), abs=1e-9)
        assert max(end for _, _, _, end, _ in timeline.intervals) == pytest.approx(
            timeline.e2e_s, abs=1e-9
        )
        # same-worker intervals disjoint, every child inside the root: the
        # span-tree validator at its default eps=0
        tracer = Tracer(enabled=True)
        record_timeline(tracer, "request", timeline)
        (root,) = tracer.finished_roots()
        assert validate_span_tree(root) == len(timeline.intervals) + 1
        assert root.end_s == timeline.e2e_s

    @given(stride_lists())
    def test_ttft_ignores_the_flags(self, strides):
        first = strides[0]
        expected = first.verify_s + first.encode_s + first.retrieval_s + first.prefill_s
        flipped = [replace(s, overlapped=not s.overlapped, wasted_s=0.0) for s in strides]
        assert stride_timeline(strides).ttft_s == pytest.approx(expected, abs=1e-9)
        assert stride_timeline(flipped).ttft_s == pytest.approx(expected, abs=1e-9)

    @given(stride_lists())
    def test_overlap_never_loses_to_sequential(self, strides):
        sequential = [replace(s, overlapped=False) for s in strides]
        assert (
            stride_timeline(sequential).e2e_s >= stride_timeline(strides).e2e_s - 1e-9
        )

    def test_wasted_window_is_clamped_to_its_block(self):
        strides = [
            StrideTimes(0.1, 0.2, 0.3, 0.4),
            StrideTimes(0.0, 0.2, 0.3, 0.4, verify_s=0.05, wasted_s=9.0),
        ]
        timeline = stride_timeline(strides)
        (wasted,) = [iv for iv in timeline.intervals if iv[4].get("wasted")]
        stage, worker, start, end, attrs = wasted
        assert (stage, worker) == ("retrieval", "cpu")
        assert end - start == pytest.approx(0.7)  # the block, not the 9 s window
        assert attrs["measured_window_s"] == 9.0 and attrs["speculative"]
        assert timeline.e2e_s == pytest.approx(0.3 + 0.7 + 0.05 + 0.2 + 0.7)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=24),
        st.booleans(),
        st.booleans(),
        st.lists(_seconds, min_size=1, max_size=8),
    )
    def test_simulate_generation_is_the_timeline(
        self, batch, output_tokens, stride, pipelined, prefix_cached, latencies
    ):
        config = GenerationConfig(
            batch=batch, output_tokens=output_tokens, stride=stride,
            pipelined=pipelined, prefix_cached=prefix_cached,
        )
        inference = InferenceModel()
        result = simulate_generation(
            lambda i: RetrievalCost(latencies[i % len(latencies)], 1.0), inference, config
        )
        strides = []
        for i in range(config.n_strides):
            prefill, decode = stride_costs(inference, config, i)
            strides.append(
                StrideTimes(
                    encode_s=EncoderCostModel().batch_latency(batch) if i == 0 else 0.0,
                    retrieval_s=latencies[i % len(latencies)],
                    prefill_s=prefill.latency_s,
                    decode_s=decode.latency_s,
                    overlapped=pipelined and i > 0,
                )
            )
        timeline = stride_timeline(strides, encode_worker="gpu")
        assert result.ttft_s == pytest.approx(timeline.ttft_s, abs=1e-9)
        assert result.e2e_s == pytest.approx(timeline.e2e_s, abs=1e-9)
        assert result.prefill_s == pytest.approx(sum(s.prefill_s for s in strides))
