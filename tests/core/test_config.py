"""Tests for HermesConfig (Table 2)."""

import pytest

from repro.core.config import HermesConfig


class TestDefaults:
    def test_paper_operating_point(self):
        cfg = HermesConfig()
        assert cfg.n_clusters == 10
        assert cfg.sample_nprobe == 8
        assert cfg.deep_nprobe == 128
        assert cfg.clusters_to_search == 3
        assert cfg.k == 5
        assert cfg.rerank_top == 1
        assert cfg.quantization == "sq8"

    def test_hashable_for_memoisation(self):
        assert hash(HermesConfig()) == hash(HermesConfig())


class TestValidation:
    def test_clusters_to_search_bounded(self):
        with pytest.raises(ValueError):
            HermesConfig(n_clusters=4, clusters_to_search=5)
        with pytest.raises(ValueError):
            HermesConfig(clusters_to_search=0)

    def test_nprobe_positive(self):
        with pytest.raises(ValueError):
            HermesConfig(sample_nprobe=0)
        with pytest.raises(ValueError):
            HermesConfig(deep_nprobe=-1)

    def test_rerank_top_within_k(self):
        with pytest.raises(ValueError):
            HermesConfig(k=5, rerank_top=6)
        with pytest.raises(ValueError):
            HermesConfig(rerank_top=0)

    def test_seed_sweep_nonempty(self):
        with pytest.raises(ValueError):
            HermesConfig(kmeans_seeds=())

    def test_subset_fraction_range(self):
        with pytest.raises(ValueError):
            HermesConfig(kmeans_subset_fraction=0.0)
        with pytest.raises(ValueError):
            HermesConfig(kmeans_subset_fraction=1.5)

    def test_custom_values_accepted(self):
        cfg = HermesConfig(n_clusters=4, clusters_to_search=2, k=10, rerank_top=3)
        assert cfg.n_clusters == 4
