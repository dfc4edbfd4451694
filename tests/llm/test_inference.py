"""Tests for the inference cost model."""

import pytest

from repro.hardware.gpu import A6000_ADA, L4
from repro.llm.inference import (
    ANCHOR_PREFILL_LATENCY_S,
    InferenceModel,
)
from repro.llm.models import GEMMA2_9B, OPT_30B, PHI_1_5


@pytest.fixture()
def gemma():
    return InferenceModel()


class TestAnchors:
    def test_prefill_anchor(self, gemma):
        # Paper: 132 QPS prefill at batch 32, 512 input tokens.
        cost = gemma.prefill(32, 512)
        assert cost.latency_s == pytest.approx(ANCHOR_PREFILL_LATENCY_S)
        assert 32 / cost.latency_s == pytest.approx(132.0, rel=0.01)

    def test_prefill_energy_anchor(self, gemma):
        # Paper: 2.2 J per query during prefill.
        cost = gemma.prefill(32, 512)
        assert cost.energy_j / 32 == pytest.approx(2.2, rel=0.05)

    def test_decode_anchor(self, gemma):
        # Paper: 67 QPS per 16-token stride at batch 32.
        cost = gemma.decode(32, 16)
        assert 32 / cost.latency_s == pytest.approx(67.0, rel=0.01)


class TestScaling:
    def test_prefill_linear_in_tokens(self, gemma):
        short = gemma.prefill(32, 256).latency_s
        long = gemma.prefill(32, 1024).latency_s
        assert long == pytest.approx(4 * short, rel=0.05)

    def test_prefill_floor_for_tiny_inputs(self, gemma):
        # Kernel-launch floor: an 8x smaller input is not 8x faster.
        tiny = gemma.prefill(1, 16).latency_s
        assert tiny > ANCHOR_PREFILL_LATENCY_S * 0.1

    def test_decode_linear_in_tokens(self, gemma):
        one = gemma.decode(32, 16).latency_s
        two = gemma.decode(32, 32).latency_s
        assert two == pytest.approx(2 * one, rel=0.05)

    def test_decode_nearly_batch_independent(self, gemma):
        # Memory-bound decode: 4x batch costs far less than 4x latency.
        small = gemma.decode(32, 16).latency_s
        large = gemma.decode(128, 16).latency_s
        assert large < 2 * small

    def test_bigger_model_slower(self):
        phi = InferenceModel(model=PHI_1_5)
        opt = InferenceModel(model=OPT_30B)
        assert phi.prefill(32, 512).latency_s < opt.prefill(32, 512).latency_s
        assert phi.decode(32, 16).latency_s < opt.decode(32, 16).latency_s

    def test_l4_slower_than_a6000(self):
        a = InferenceModel(model=GEMMA2_9B, gpu=A6000_ADA)
        l = InferenceModel(model=GEMMA2_9B, gpu=L4)
        assert l.prefill(32, 512).latency_s > a.prefill(32, 512).latency_s


class TestTensorParallel:
    def test_opt_defaults_to_two_a6000(self):
        # Fig. 17's configuration rule.
        assert InferenceModel(model=OPT_30B, gpu=A6000_ADA).n_gpus == 2

    def test_gemma_defaults_to_two_l4(self):
        assert InferenceModel(model=GEMMA2_9B, gpu=L4).n_gpus == 2

    def test_underprovisioned_rejected(self):
        with pytest.raises(ValueError, match="needs >="):
            InferenceModel(model=OPT_30B, gpu=A6000_ADA, n_gpus=1)

    def test_extra_gpus_cut_latency_but_raise_power(self):
        one = InferenceModel(model=GEMMA2_9B, gpu=A6000_ADA, n_gpus=1)
        two = InferenceModel(model=GEMMA2_9B, gpu=A6000_ADA, n_gpus=2)
        assert two.prefill(32, 512).latency_s < one.prefill(32, 512).latency_s
        power = [c.energy_j / c.latency_s for c in (one.prefill(32, 512), two.prefill(32, 512))]
        assert power[1] > power[0]

    def test_tensor_parallel_energy_inefficient_for_small_models(self):
        # The paper: adding GPUs to small models raises energy for little gain.
        one = InferenceModel(model=GEMMA2_9B, gpu=A6000_ADA, n_gpus=1)
        two = InferenceModel(model=GEMMA2_9B, gpu=A6000_ADA, n_gpus=2)
        assert two.prefill(32, 512).energy_j > one.prefill(32, 512).energy_j


class TestValidationAndHelpers:
    def test_rejects_bad_args(self, gemma):
        with pytest.raises(ValueError):
            gemma.prefill(0, 512)
        with pytest.raises(ValueError):
            gemma.decode(32, 0)

    def test_generation_latency_sums_stages(self, gemma):
        total = gemma.generation_latency(32, 512, 256)
        assert total == pytest.approx(
            gemma.prefill(32, 512).latency_s + gemma.decode(32, 256).latency_s
        )
