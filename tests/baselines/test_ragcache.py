"""Tests for the RAGCache baseline helpers."""

import numpy as np
import pytest

from repro.baselines.ragcache import simulate_cache_hit_rate, stride_overlap_fraction


class TestStrideOverlap:
    def test_identical_strides_full_overlap(self):
        strides = [np.array([1, 2, 3])] * 3
        assert stride_overlap_fraction(strides) == 1.0

    def test_disjoint_strides_zero_overlap(self):
        strides = [np.array([1, 2]), np.array([3, 4]), np.array([5, 6])]
        assert stride_overlap_fraction(strides) == 0.0

    def test_partial_overlap(self):
        strides = [np.array([1, 2]), np.array([2, 3])]
        assert stride_overlap_fraction(strides) == 0.5

    def test_padding_ignored(self):
        strides = [np.array([1, -1]), np.array([1, -1])]
        assert stride_overlap_fraction(strides) == 1.0

    def test_needs_two_strides(self):
        with pytest.raises(ValueError):
            stride_overlap_fraction([np.array([1])])


class TestSimulatedHitRate:
    def test_repeated_docs_hit(self):
        strides = [np.array([1, 2, 3])] * 4
        rate = simulate_cache_hit_rate(strides)
        # 3 cold misses, 9 hits.
        assert rate == pytest.approx(9 / 12)

    def test_capacity_limits_hits(self):
        strides = [np.arange(100), np.arange(100)]
        unlimited = simulate_cache_hit_rate(strides, capacity=200)
        tiny = simulate_cache_hit_rate(strides, capacity=10)
        assert unlimited > tiny

    def test_fresh_docs_never_hit(self):
        strides = [np.arange(10), np.arange(10, 20)]
        assert simulate_cache_hit_rate(strides) == 0.0


def _reference_overlap(stride_results):
    """The pre-vectorization per-pair set implementation."""
    overlaps = []
    for prev, cur in zip(stride_results, stride_results[1:]):
        prev_set = {int(d) for d in np.asarray(prev).ravel() if d >= 0}
        cur_ids = [int(d) for d in np.asarray(cur).ravel() if d >= 0]
        if not cur_ids:
            continue
        overlaps.append(sum(d in prev_set for d in cur_ids) / len(cur_ids))
    if not overlaps:
        raise ValueError("no valid documents in stride results")
    return float(np.mean(overlaps))


class TestStrideOverlapVectorization:
    def test_ragged_strides_supported(self):
        strides = [
            np.array([1, 2, 3]),
            np.array([2, 3]),
            np.array([3, 4, 5, 6]),
        ]
        assert stride_overlap_fraction(strides) == pytest.approx(
            _reference_overlap(strides)
        )

    def test_uniform_matches_reference_randomized(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n_strides = int(rng.integers(2, 6))
            k = int(rng.integers(1, 8))
            strides = [rng.integers(0, 12, size=k) for _ in range(n_strides)]
            # Sprinkle -1 padding, keeping at least one valid id per stride.
            for s in strides:
                if k > 1:
                    s[rng.random(k) < 0.25] = -1
                    s[0] = abs(s[0])
            assert stride_overlap_fraction(strides) == pytest.approx(
                _reference_overlap(strides)
            ), trial

    def test_all_padding_rejected(self):
        with pytest.raises(ValueError):
            stride_overlap_fraction([np.array([-1, -1]), np.array([-1, -1])])
