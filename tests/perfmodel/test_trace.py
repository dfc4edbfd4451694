"""Tests for load generation and access traces."""

import numpy as np
import pytest

from repro.perfmodel.trace import BatchRouting, ClusterAccessTrace


class TestBatchRouting:
    def test_node_loads(self):
        routing = BatchRouting(clusters=np.array([[0, 1], [1, 2], [1, 1]]))
        loads = routing.node_loads(4)
        assert list(loads) == [1, 4, 1, 0]

    def test_padding_ignored(self):
        routing = BatchRouting(clusters=np.array([[0, -1]]))
        assert list(routing.node_loads(2)) == [1, 0]

    def test_out_of_range_cluster_rejected(self):
        routing = BatchRouting(clusters=np.array([[5]]))
        with pytest.raises(ValueError, match="references cluster"):
            routing.node_loads(3)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            BatchRouting(clusters=np.array([1, 2]))

    def test_batch_size(self):
        assert BatchRouting(clusters=np.zeros((7, 3), dtype=int)).batch_size == 7


class TestAccessTrace:
    def test_accumulates_counts(self):
        trace = ClusterAccessTrace(n_clusters=3)
        trace.record(BatchRouting(clusters=np.array([[0, 1]])))
        trace.record(BatchRouting(clusters=np.array([[1, 2]])))
        assert list(trace.access_counts()) == [1, 2, 1]
        assert len(trace) == 2

