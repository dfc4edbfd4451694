"""The scratch-buffer arena: reuse, growth, and stats draining."""

import numpy as np

from repro.ann.workspace import Workspace


class TestTake:
    def test_same_key_reuses_backing_buffer(self):
        ws = Workspace()
        a = ws.take("x", (4, 8))
        b = ws.take("x", (4, 8))
        assert a.base is b.base or a.base is b  # same backing allocation
        assert ws.hits == 1 and ws.misses == 1

    def test_smaller_request_is_a_view_not_a_realloc(self):
        ws = Workspace()
        ws.take("x", (100,))
        ws.take("x", (10,))
        assert ws.misses == 1 and ws.hits == 1

    def test_growth_is_geometric(self):
        ws = Workspace()
        ws.take("x", (100,))
        ws.take("x", (101,))  # grows to >= 200, not 101
        assert ws._buffers["x"].size >= 200
        ws.take("x", (150,))
        assert ws.misses == 2 and ws.hits == 1

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.take("x", (8,), dtype=np.float32)
        out = ws.take("x", (8,), dtype=np.int64)
        assert out.dtype == np.int64
        assert ws.misses == 2

    def test_fill_initialises_view(self):
        ws = Workspace()
        ws.take("x", (4,))[...] = 7.0
        out = ws.take("x", (4,), fill=np.inf)
        assert np.isinf(out).all()

    def test_shapes_and_scalar(self):
        ws = Workspace()
        assert ws.take("m", (2, 3, 4)).shape == (2, 3, 4)
        assert ws.take("s", ()).shape == ()


class TestLease:
    def test_a_lease_holds_until_the_next_lease_of_its_key(self):
        ws = Workspace()
        view, first = ws.lease("kept", (4, 8))
        view[...] = 1.0
        ws.take("other", (4, 8), fill=2.0)
        assert ws.holds("kept", first) and (view == 1.0).all()
        again, second = ws.lease("kept", (4, 8))
        assert again.base is view.base or again.base is view
        assert not ws.holds("kept", first) and ws.holds("kept", second)
        assert not ws.holds("never leased", 1)


class TestHousekeeping:
    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.take("a", (256,), dtype=np.float32)
        assert ws.nbytes() >= 1024
        ws.clear()
        assert ws.nbytes() == 0

    def test_flush_stats_drains_into_registry(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        hits = registry.counter("workspace_hits_total", "test")
        misses = registry.counter("workspace_misses_total", "test")
        h0, m0 = hits.total(), misses.total()
        ws = Workspace()
        ws.take("x", (4,))
        ws.take("x", (4,))
        ws.flush_stats()
        assert hits.total() == h0 + 1
        assert misses.total() == m0 + 1
        assert ws.hits == 0 and ws.misses == 0
        ws.flush_stats()  # nothing accumulated: no-op
        assert hits.total() == h0 + 1


class TestSearchIntegration:
    def test_steady_state_searches_allocate_nothing_new(self):
        from repro.ann.ivf import IVFIndex
        from repro.ann.quantization import make_quantizer

        rng = np.random.default_rng(0)
        data = rng.normal(size=(600, 16)).astype(np.float32)
        q = rng.normal(size=(8, 16)).astype(np.float32)
        index = IVFIndex(16, nlist=8, nprobe=4, quantizer=make_quantizer("pq4", 16))
        index.train(data)
        index.add(data)
        index.search(q, 5)
        index.search(q, 5)  # shapes seen: arena fully grown
        # search() drains the arena stats into the registry each call, so
        # steady state shows up there as hits without new misses.
        from repro.obs.metrics import get_registry

        registry = get_registry()
        hits = registry.counter("workspace_hits_total", "test")
        misses = registry.counter("workspace_misses_total", "test")
        h0, m0 = hits.total(), misses.total()
        index.search(q, 5)
        assert misses.total() == m0  # zero new allocations steady-state
        assert hits.total() > h0
