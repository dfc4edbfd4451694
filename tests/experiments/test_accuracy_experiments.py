"""Tests for the real-search experiments (Table 1, Figs. 11-13)."""

import numpy as np
import pytest

from repro.experiments import fig11, fig12, fig13, table1


@pytest.fixture(scope="module")
def table1_rows():
    # A reduced but structurally identical Table 1 run: all seven rows with
    # the shipped quantizers. The PQ / OPQ rows are 4,480 sub-codebook k-means
    # runs that cost their 255 sequential seeding steps each, nearly flat in
    # corpus size — so the corpus is only as large as keeps every 256-word
    # sub-codebook lossy (more rows than codewords) and the recall gaps the
    # assertions below read well clear.
    return table1.run(n_docs=350, n_queries=24, dim=768)


class TestTable1:
    def test_all_schemes_present(self, table1_rows):
        assert [r.scheme for r in table1_rows] == list(table1.SCHEMES)

    def test_code_sizes_match_paper_exactly(self, table1_rows):
        for row in table1_rows:
            assert row.vector_bytes == row.paper_vector_bytes

    def test_sq8_matches_flat(self, table1_rows):
        by = {r.scheme: r for r in table1_rows}
        assert by["flat"].recall - by["sq8"].recall <= 0.05

    def test_aggressive_quantization_loses_recall(self, table1_rows):
        by = {r.scheme: r for r in table1_rows}
        assert by["pq256"].recall < by["flat"].recall
        assert by["sq4"].recall < by["sq8"].recall

    def test_render_mentions_all_schemes(self, table1_rows):
        text = table1.render(table1_rows)
        for scheme in table1.SCHEMES:
            assert scheme.upper() in text


@pytest.fixture(scope="module")
def fig11_sweep():
    return fig11.run(clusters=(1, 2, 3, 5, 10))


class TestFig11:
    def test_hermes_iso_accuracy_by_three(self, fig11_sweep):
        assert fig11_sweep.hermes_iso_accuracy_clusters() <= 3

    def test_hermes_beats_split_at_small_fanout(self, fig11_sweep):
        for h, s in zip(fig11_sweep.hermes[:3], fig11_sweep.split[:3]):
            assert h > s

    def test_hermes_at_least_centroid(self, fig11_sweep):
        idx = fig11_sweep.clusters.index(3)
        assert fig11_sweep.hermes[idx] >= fig11_sweep.centroid[idx] - 0.01

    def test_all_converge_at_full_fanout(self, fig11_sweep):
        assert fig11_sweep.hermes[-1] == pytest.approx(fig11_sweep.split[-1], abs=0.02)

    def test_figure_rendering(self, fig11_sweep):
        fig = fig11.to_figure(fig11_sweep)
        assert {s.name for s in fig.series} == {
            "Monolithic", "Split", "Centroid-Based", "Hermes"
        }


class TestFig12:
    @pytest.fixture(scope="class")
    def sweeps(self):
        return {
            "small": fig12.small_nprobe_sweep(
                nprobes=(1, 8), clusters=(1, 3, 10)
            ),
            "large": fig12.large_nprobe_sweep(
                nprobes=(16, 128), clusters=(1, 3, 10)
            ),
        }

    def test_deeper_sampling_not_worse(self, sweeps):
        at = lambda pts, np_, m: next(
            p for p in pts if p.sample_nprobe == np_ and p.clusters_searched == m
        )
        small = sweeps["small"]
        assert at(small, 8, 3).ndcg >= at(small, 1, 3).ndcg - 0.02

    def test_deeper_deep_search_not_worse(self, sweeps):
        at = lambda pts, np_, m: next(
            p for p in pts if p.deep_nprobe == np_ and p.clusters_searched == m
        )
        large = sweeps["large"]
        assert at(large, 128, 3).ndcg >= at(large, 16, 3).ndcg - 0.02

    def test_large_nprobe_latency_dominates(self, sweeps):
        # Fig. 12's cost asymmetry: the deep knob is much more expensive.
        small_delta = (
            sweeps["small"][-1].latency_s - sweeps["small"][0].latency_s
        )
        large_delta = (
            sweeps["large"][-1].latency_s - sweeps["large"][0].latency_s
        )
        assert abs(large_delta) > abs(small_delta)

    def test_optimal_config_prefers_accuracy(self, sweeps):
        best = fig12.optimal_config(sweeps["small"] + sweeps["large"])
        all_points = sweeps["small"] + sweeps["large"]
        assert best.ndcg >= max(p.ndcg for p in all_points) - 0.01

    def test_optimal_config_empty_rejected(self):
        with pytest.raises(ValueError):
            fig12.optimal_config([])


class TestFig13:
    @pytest.fixture(scope="class")
    def report(self):
        return fig13.run()

    def test_size_imbalance_near_2x(self, report):
        assert 1.2 < report.size_imbalance < 3.0

    def test_access_imbalance_skewed(self, report):
        assert report.access_imbalance > 1.5

    def test_counts_cover_all_clusters(self, report):
        assert len(report.cluster_sizes) == 10
        assert (report.access_counts > 0).all()

    def test_access_imbalance_is_hottest_over_coldest(self):
        report = fig13.ImbalanceReport(np.array([4, 2]), np.array([3, 1]))
        assert report.access_imbalance == 3.0

    def test_unaccessed_cluster_infinite_imbalance(self):
        report = fig13.ImbalanceReport(np.array([4, 2, 1]), np.array([1, 1, 0]))
        assert report.access_imbalance == float("inf")
