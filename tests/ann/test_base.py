"""Tests for the index interface."""

import numpy as np
import pytest

from repro.ann.flat import FlatIndex


class TestInterfaceContracts:
    def test_metric_validated_at_construction(self):
        with pytest.raises(ValueError):
            FlatIndex(8, metric="manhattan")

    def test_dim_validated_at_construction(self):
        with pytest.raises(ValueError):
            FlatIndex(-1)

    def test_search_empty_returns_padding(self):
        index = FlatIndex(4)
        dists, ids = index.search(np.zeros((3, 4), dtype=np.float32), 2)
        assert dists.shape == (3, 2)
        assert (ids == -1).all()

    def test_repr_mentions_state(self):
        index = FlatIndex(4)
        text = repr(index)
        assert "dim=4" in text and "ntotal=0" in text
