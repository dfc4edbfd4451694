"""Tests for the modelled scale experiments (Figs. 4-10, 14, 16-21)."""

import pytest

from repro.experiments import (
    common,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig10,
    fig14,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
)


class TestCommonHelpers:
    def test_fleet_shards_sum_to_total(self):
        fleet = common.build_fleet(100e9)
        assert fleet.total_tokens == pytest.approx(100e9)
        assert fleet.n_clusters == 10

    def test_fleet_size_imbalance(self):
        fleet = common.build_fleet(100e9)
        assert max(fleet.shard_tokens) / min(fleet.shard_tokens) == pytest.approx(
            2.0, rel=0.01
        )

    def test_strategy_set_complete(self):
        from repro.llm.generation import GenerationConfig

        outcomes = common.compare_strategies(10e9, GenerationConfig())
        assert set(outcomes) == {
            "baseline", "ragcache", "piperag", "hermes", "hermes_combined"
        }


class TestFig04:
    def test_paper_ratios(self):
        comp = fig04.at_scale(128)
        assert comp.latency_advantage > 2.4
        assert comp.memory_overhead == pytest.approx(2.3, abs=0.1)

    def test_in_vivo_tradeoff(self):
        comp = fig04.in_vivo(n_docs=800, n_queries=16)
        # Matched recall, HNSW pays the memory.
        assert comp.memory_overhead > 1.0
        assert comp.hnsw_recall > 0.7 and comp.ivf_recall > 0.7


class TestFig05:
    def test_perplexity_panel_series(self):
        fig = fig05.perplexity_panel()
        assert len(fig.series) == 3
        for s in fig.series:
            assert all(b >= a for a, b in zip(s.y, s.y[1:]))  # PPL grows with stride

    def test_retrieval_latency_inverse_in_stride(self):
        fig = fig05.retrieval_latency_panel()
        for s in fig.series:
            assert all(b < a for a, b in zip(s.y, s.y[1:]))

    def test_stride_cost_ratio_near_paper(self):
        # Paper: stride 4 vs 64 at 100B costs ~12.12x end to end.
        ratio = fig05.e2e_stride_cost_ratio()
        assert 8 < ratio < 16


class TestFig06:
    def test_e2e_matches_paper_within_3pct(self):
        for tokens, expected in fig06.PAPER_E2E.items():
            point = fig06.measure(tokens)
            assert point.e2e_s == pytest.approx(expected, rel=0.03)

    def test_ttft_retrieval_share_matches_paper(self):
        for tokens, expected in fig06.PAPER_TTFT_RETRIEVAL_SHARE.items():
            point = fig06.measure(tokens)
            assert point.retrieval_share_of_ttft == pytest.approx(expected, abs=0.02)

    def test_latency_monotone_in_size(self):
        points = fig06.run()
        e2e = [p.e2e_s for p in points]
        assert e2e == sorted(e2e)


class TestFig07:
    def test_linear_scaling_decades(self):
        points = fig07.run()
        for a, b in zip(points, points[1:]):
            assert b.throughput_qps == pytest.approx(a.throughput_qps / 10, rel=0.05)
            assert b.energy_per_query_j == pytest.approx(
                a.energy_per_query_j * 10, rel=0.05
            )
            assert b.memory_gb == pytest.approx(a.memory_gb * 10, rel=0.05)

    def test_paper_anchor_100b(self):
        point = fig07.measure(100e9)
        assert point.throughput_qps == pytest.approx(5.69, rel=0.05)

    def test_gpu_contrast(self):
        contrast = fig07.gpu_contrast()
        assert contrast["gpu_prefill_qps"] == pytest.approx(132, rel=0.02)
        assert contrast["gpu_prefill_j_per_query"] == pytest.approx(2.2, rel=0.1)


class TestFig08:
    def test_prior_work_decays_at_scale(self):
        points = [fig08.measure(s) for s in (1e9, 1e12)]
        assert points[0].ragcache_speedup > points[1].ragcache_speedup
        assert points[1].piperag_speedup < 1.1  # nearly useless at 1T

    def test_piperag_peaks_at_crossover(self):
        cross = fig08.crossover_size()
        below = fig08.measure(cross / 100)
        at = fig08.measure(cross)
        above = fig08.measure(cross * 100)
        assert at.piperag_speedup > below.piperag_speedup
        assert at.piperag_speedup > above.piperag_speedup

    def test_crossover_near_13b_tokens(self):
        # With the calibrated models the retrieval/inference crossover sits
        # at ~1e10 tokens (the basis for the paper's 10B cluster sizing).
        assert 5e9 < fig08.crossover_size() < 5e10


class TestFig10:
    def test_pipeline_gap_sign_flips(self):
        points = fig10.run()
        assert points[0].hidden            # tiny clusters hide easily
        assert not points[-1].hidden       # 100B clusters do not

    def test_recommended_clusters_for_100b(self):
        # The paper splits 100B into ~10 clusters.
        n = fig10.recommended_clusters(100e9)
        assert 5 <= n <= 15


class TestFig14:
    @pytest.fixture(scope="class")
    def size_panel(self):
        return fig14.sweep_datastore((1e9, 1e12))

    def test_hermes_combined_dominates(self, size_panel):
        for point in size_panel:
            latencies = point.normalized_latency()
            assert latencies["hermes_combined"] <= min(
                latencies["baseline"], latencies["ragcache"], latencies["piperag"]
            )

    def test_gains_grow_with_datastore(self, size_panel):
        assert size_panel[1].hermes_speedup() > size_panel[0].hermes_speedup()

    def test_1t_headline_numbers(self, size_panel):
        at_1t = size_panel[1]
        # Paper: up to 9.33x latency and 2.10x energy at the trillion scale.
        assert at_1t.hermes_speedup() > 8.0
        assert at_1t.hermes_energy_saving() > 1.8

    def test_stride_sweep_gains_grow_with_frequency(self):
        points = fig14.sweep_stride((4, 64))
        assert points[0].hermes_speedup() > points[1].hermes_speedup()

    def test_render(self, size_panel):
        text = fig14.render(size_panel)
        assert "hermes_combined" in text


class TestFig16:
    @pytest.fixture(scope="class")
    def points(self):
        return fig16.run()

    def test_ttft_speedup_grows_with_scale(self, points):
        speedups = [p.hermes_ttft_speedup() for p in points]
        assert speedups == sorted(speedups)

    def test_1t_near_paper_9x(self, points):
        assert points[-1].hermes_ttft_speedup() == pytest.approx(9.1, rel=0.25)

    def test_prior_work_cannot_cut_ttft(self, points):
        assert not any(p.pipelining_helps_ttft() for p in points)


class TestFig17:
    @pytest.fixture(scope="class")
    def results(self):
        return fig17.run()

    def test_speedup_decreases_with_model_size(self, results):
        speedups = [p.hermes_speedup() for p in results["models"]]
        assert speedups == sorted(speedups, reverse=True)

    def test_all_models_still_gain(self, results):
        assert all(p.hermes_speedup() > 1.5 for p in results["models"])

    def test_gpu_counts_match_paper(self, results):
        by_label = {p.label: p for p in results["models"]}
        assert by_label["OPT (30B)"].n_gpus == 2
        hw = {p.label: p for p in results["hardware"]}
        assert hw["L4"].n_gpus == 2
        assert hw["A6000"].n_gpus == 1

    def test_l4_gains_persist(self, results):
        hw = {p.label: p for p in results["hardware"]}
        assert hw["L4"].hermes_speedup() > 1.5


class TestFig18:
    @pytest.fixture(scope="class")
    def points(self):
        return fig18.run()

    def test_throughput_decreases_with_fanout(self, points):
        tput = [p.throughput_qps for p in points]
        assert all(b <= a + 1e-9 for a, b in zip(tput, tput[1:]))

    def test_energy_increases_with_fanout(self, points):
        energy = [p.energy_per_batch_j for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(energy, energy[1:]))

    def test_paper_headline_ratios(self, points):
        ratios = fig18.hermes_vs_naive(points)
        assert ratios["throughput_gain"] == pytest.approx(1.81, rel=0.25)
        assert ratios["energy_saving"] == pytest.approx(1.77, rel=0.25)


class TestFig19:
    def test_inference_grid_monotone_in_batch(self):
        cells = fig19.inference_latency_grid(batches=(32, 128))
        by_shape = {}
        for c in cells:
            by_shape.setdefault((c.input_tokens, c.output_tokens), []).append(c)
        for group in by_shape.values():
            ordered = sorted(group, key=lambda c: c.batch)
            assert ordered[0].latency_s <= ordered[-1].latency_s

    def test_optimal_cluster_grows_with_input(self):
        cells = fig19.optimal_cluster_sizes()
        sizes = [c.optimal_cluster_tokens for c in cells]
        assert sizes == sorted(sizes)
        # Tens-of-billions scale, as in the paper's 34B-114B example.
        assert sizes[0] > 1e9
        assert sizes[-1] < 1e12


class TestFig20:
    @pytest.fixture(scope="class")
    def points(self):
        return fig20.run(clusters=(1, 3, 10))

    def test_platinum_best(self, points):
        assert "Platinum" in fig20.best_platform(points)

    def test_arm_large_batch_tput_beats_small_batch(self, points):
        arm32 = [p for p in points if p.label.endswith("(BS=32)")]
        arm128 = [p for p in points if p.label.endswith("(BS=128)")]
        at3 = lambda pts: next(p for p in pts if p.clusters_searched == 3)
        assert at3(arm128).throughput_qps > at3(arm32).throughput_qps

    def test_inference_line_positive(self):
        assert fig20.inference_latency_line() > 0


class TestFig21:
    @pytest.fixture(scope="class")
    def points(self):
        return fig21.run()

    def test_savings_near_paper_averages(self, points):
        avg = fig21.average_savings(points)
        assert avg["baseline"] == pytest.approx(0.1224, abs=0.05)
        assert avg["enhanced"] == pytest.approx(0.2044, abs=0.06)

    def test_enhanced_at_least_baseline_everywhere(self, points):
        for p in points:
            assert p.enhanced_savings >= p.baseline_savings - 1e-6

    def test_energy_ordering(self, points):
        for p in points:
            assert p.energy_enhanced_j <= p.energy_baseline_j <= p.energy_none_j

