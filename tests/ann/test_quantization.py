"""Tests for the SQ/PQ/OPQ codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.quantization import (
    IdentityQuantizer,
    OPQQuantizer,
    ProductQuantizer,
    ScalarQuantizer,
    make_quantizer,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(500, 16)).astype(np.float32)


def rel_error(quantizer, data):
    rec = quantizer.decode(quantizer.encode(data))
    return np.linalg.norm(rec - data) / np.linalg.norm(data)


class TestIdentity:
    def test_lossless(self, data):
        q = IdentityQuantizer(16)
        q.train(data)
        assert np.array_equal(q.decode(q.encode(data)), data)

    def test_code_size_fp32(self):
        assert IdentityQuantizer(16).code_size() == 64


class TestScalar:
    def test_sq8_code_size(self):
        assert ScalarQuantizer(16, bits=8).code_size() == 16

    def test_sq4_code_size_packs_nibbles(self):
        assert ScalarQuantizer(16, bits=4).code_size() == 8

    def test_sq4_odd_dim_rounds_up(self):
        assert ScalarQuantizer(7, bits=4).code_size() == 4

    def test_sq8_error_small(self, data):
        q = ScalarQuantizer(16, bits=8)
        q.train(data)
        assert rel_error(q, data) < 0.02

    def test_sq4_error_larger_than_sq8(self, data):
        q8 = ScalarQuantizer(16, bits=8)
        q4 = ScalarQuantizer(16, bits=4)
        q8.train(data)
        q4.train(data)
        assert rel_error(q4, data) > rel_error(q8, data)

    def test_decoded_within_trained_range(self, data):
        q = ScalarQuantizer(16, bits=8)
        q.train(data)
        rec = q.decode(q.encode(data * 10))  # out-of-range inputs clamp
        assert rec.min() >= data.min() - 1e-3
        assert rec.max() <= data.max() + 1e-3

    def test_rejects_weird_bits(self):
        with pytest.raises(ValueError, match="bits"):
            ScalarQuantizer(8, bits=6)

    def test_encode_before_train_raises(self, data):
        with pytest.raises(RuntimeError, match="train"):
            ScalarQuantizer(16).encode(data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sq8_roundtrip_error_bounded_by_step(self, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.uniform(-5, 5, size=(50, 8)).astype(np.float32)
        q = ScalarQuantizer(8, bits=8)
        q.train(vecs)
        rec = q.decode(q.encode(vecs))
        span = vecs.max(axis=0) - vecs.min(axis=0)
        step = span / 255
        assert (np.abs(rec - vecs) <= step * 0.51 + 1e-6).all()


class TestProduct:
    def test_code_size_is_m(self, data):
        assert ProductQuantizer(16, m=4).code_size() == 4

    def test_rejects_nondividing_m(self):
        with pytest.raises(ValueError, match="divide"):
            ProductQuantizer(16, m=5)

    def test_roundtrip_reduces_with_more_subquantizers(self, data):
        coarse = ProductQuantizer(16, m=2)
        fine = ProductQuantizer(16, m=8)
        coarse.train(data)
        fine.train(data)
        assert rel_error(fine, data) < rel_error(coarse, data)

    def test_codes_are_bytes(self, data):
        q = ProductQuantizer(16, m=4)
        q.train(data)
        assert q.encode(data[:10]).dtype == np.uint8

    def test_handles_fewer_points_than_codewords(self):
        rng = np.random.default_rng(1)
        tiny = rng.normal(size=(40, 8)).astype(np.float32)
        q = ProductQuantizer(8, m=2)
        q.train(tiny)
        rec = q.decode(q.encode(tiny))
        assert rec.shape == tiny.shape


class TestOPQ:
    def test_rotation_is_orthogonal(self, data):
        q = OPQQuantizer(16, m=4, opq_iters=2)
        q.train(data)
        r = q._rotation
        assert np.allclose(r @ r.T, np.eye(16), atol=1e-4)

    def test_not_worse_than_pq_on_correlated_data(self):
        # Correlated dims are where the learned rotation pays off.
        rng = np.random.default_rng(2)
        base = rng.normal(size=(400, 4)).astype(np.float32)
        mix = rng.normal(size=(4, 16)).astype(np.float32)
        data = base @ mix
        pq = ProductQuantizer(16, m=4)
        opq = OPQQuantizer(16, m=4, opq_iters=4)
        pq.train(data)
        opq.train(data)
        assert rel_error(opq, data) <= rel_error(pq, data) * 1.05


class TestFactory:
    @pytest.mark.parametrize(
        "scheme,expected_bytes",
        [("flat", 64), ("sq8", 16), ("sq4", 8), ("pq4", 4), ("opq4", 4)],
    )
    def test_code_sizes(self, scheme, expected_bytes):
        assert make_quantizer(scheme, 16).code_size() == expected_bytes

    def test_table1_code_sizes_at_768(self):
        # The exact Table 1 byte counts for BGE-dim vectors.
        expected = {"flat": 3072, "sq8": 768, "sq4": 384, "pq256": 256, "pq384": 384}
        for scheme, size in expected.items():
            assert make_quantizer(scheme, 768).code_size() == size

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown quantization"):
            make_quantizer("dct", 16)


class TestTileKernel:
    """``adc_cell_tiles`` is ``adc_distances(rows=..., shifted=True)``: bit
    for bit for a group evaluated alone — including the GEMM codecs' sign /
    scale folded into the query weights and their dimension-major operand —
    and up to float32 reassociation when groups share one batched call."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize("scheme", ["flat", "sq8", "sq4", "pq4", "opq4"])
    def test_tiles_match_adc_distances_exactly(self, data, scheme, metric):
        quantizer = make_quantizer(scheme, 16)
        quantizer.train(data)
        codes = quantizer.encode(data)
        operand = quantizer.scan_operand(codes, 300)
        assert (operand is not None) == quantizer.has_scan_operand
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(9, 16)).astype(np.float32)
        table = quantizer.adc_table(queries, metric)
        norms = (
            quantizer.code_sqnorms(codes)
            if quantizer.needs_code_sqnorms(metric)
            else None
        )
        # three groups of 1, 4 and 7 queries against cells of 33, 1 and 300
        groups = [[3], [0, 2, 5, 8], [1, 2, 3, 4, 6, 7, 8]]
        cells = [(0, 33), (33, 34), (200, 500)]
        want = []
        for queries_of, (lo, hi) in zip(groups, cells):
            cell_norms = None if norms is None else norms[lo:hi]
            want.append(quantizer.adc_distances(
                table, codes[lo:hi], rows=np.array(queries_of),
                code_sqnorms=cell_norms, shifted=True,
            ))
            alone = quantizer.adc_cell_tiles(
                table, np.array([queries_of]), np.array([len(queries_of)]),
                np.array([lo]), np.array([hi - lo]), hi - lo,
                codes=codes, operand=operand, code_sqnorms=norms,
            )
            np.testing.assert_array_equal(alone[0], want[-1])

        rows = np.zeros((3, 7), dtype=np.intp)
        for g, queries_of in enumerate(groups):
            rows[g, : len(queries_of)] = queries_of
        counts = np.array([len(g) for g in groups])
        lo = np.array([c[0] for c in cells])
        sizes = np.array([c[1] - c[0] for c in cells])
        together = quantizer.adc_cell_tiles(
            table, rows, counts, lo, sizes, int(sizes.max()),
            codes=codes, operand=operand, code_sqnorms=norms,
        )
        assert together.shape == (3, 7, 300)
        for g, expected in enumerate(want):
            np.testing.assert_allclose(
                together[g, : counts[g], : sizes[g]], expected, rtol=1e-5, atol=1e-4
            )


class TestSampledTraining:
    """PQ/OPQ codebooks train on a bounded deterministic sample; the sample
    size must not change the API contract and must stay reproducible."""

    def _rows(self, n=6000, dim=16, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=3.0, size=(16, dim))
        return (
            centers[rng.integers(0, 16, size=n)] + rng.normal(size=(n, dim))
        ).astype(np.float32)

    def test_sampled_training_deterministic(self):
        from repro.ann.quantization import ProductQuantizer

        rows = self._rows()
        a = ProductQuantizer(16, m=4, train_seed=5, train_sample=2000)
        b = ProductQuantizer(16, m=4, train_seed=5, train_sample=2000)
        a.train(rows)
        b.train(rows)
        assert np.array_equal(a._codebooks, b._codebooks)

    def test_sampled_quality_close_to_full(self):
        from repro.ann.quantization import ProductQuantizer

        rows = self._rows()
        full = ProductQuantizer(16, m=4, train_seed=0)
        sampled = ProductQuantizer(16, m=4, train_seed=0, train_sample=3000)
        full.train(rows)
        sampled.train(rows)
        probe = rows[:1024]

        def err(pq):
            return float(np.mean((pq.decode(pq.encode(probe)) - probe) ** 2))

        assert err(sampled) <= err(full) * 1.25

    def test_sample_larger_than_data_is_noop(self):
        from repro.ann.quantization import ProductQuantizer

        rows = self._rows(n=1000)
        capped = ProductQuantizer(16, m=4, train_seed=0, train_sample=50_000)
        full = ProductQuantizer(16, m=4, train_seed=0)
        capped.train(rows)
        full.train(rows)
        assert np.array_equal(capped._codebooks, full._codebooks)

    def test_opq_sampled_training(self):
        from repro.ann.quantization import OPQQuantizer

        rows = self._rows(n=3000)
        opq = OPQQuantizer(16, m=4, train_seed=0, train_sample=1500)
        opq.train(rows)
        codes = opq.encode(rows[:64])
        assert opq.decode(codes).shape == (64, 16)

    def test_invalid_train_sample_rejected(self):
        from repro.ann.quantization import ProductQuantizer

        with pytest.raises(ValueError, match="train_sample"):
            ProductQuantizer(16, m=4, train_sample=0)
