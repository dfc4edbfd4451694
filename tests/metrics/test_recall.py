"""Tests for recall@k."""

import numpy as np
import pytest

from repro.metrics.recall import recall_at_k


class TestRecallAtK:
    def test_perfect(self):
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(truth, truth) == 1.0

    def test_order_insensitive(self):
        truth = np.array([[1, 2, 3]])
        shuffled = np.array([[3, 1, 2]])
        assert recall_at_k(shuffled, truth) == 1.0

    def test_partial(self):
        truth = np.array([[1, 2, 3, 4]])
        retrieved = np.array([[1, 2, 9, 9]])
        assert recall_at_k(retrieved, truth) == 0.5

    def test_padding_never_matches(self):
        truth = np.array([[1, 2]])
        retrieved = np.array([[-1, -1]])
        assert recall_at_k(retrieved, truth) == 0.0

    def test_padded_truth_ignored(self):
        truth = np.array([[1, -1]])
        retrieved = np.array([[1, 5]])
        assert recall_at_k(retrieved, truth) == 1.0

    def test_batch_average(self):
        truth = np.array([[1, 2], [3, 4]])
        retrieved = np.array([[1, 2], [9, 9]])
        assert recall_at_k(retrieved, truth) == 0.5

    def test_mismatched_batch_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.zeros((1, 2)), np.zeros((2, 2)))

    def test_all_padded_truth_rejected(self):
        with pytest.raises(ValueError, match="no valid ids"):
            recall_at_k(np.array([[1]]), np.array([[-1]]))

