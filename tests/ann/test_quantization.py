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
    """``adc_gathered`` evaluates the gather kernel's tile — each table
    query against its own block of gathered row-major codes — as
    ``adc_distances(rows=[q], shifted=True)`` evaluates that block. The
    lookup codecs (PQ / OPQ) sum the same lookups in the same order, so
    they match bit for bit; the GEMM codecs multiply row-major float32
    levels where ``adc_distances`` multiplies the dimension-major operand,
    so they may sum in another order: they match to float32
    reassociation. Tiles of one query and of many are checked."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize("scheme", ["flat", "sq8", "sq4", "pq4", "opq4"])
    def test_tiles_match_adc_distances_exactly(self, data, scheme, metric):
        quantizer = make_quantizer(scheme, 16)
        quantizer.train(data)
        codes = quantizer.encode(data)
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(9, 16)).astype(np.float32)
        norms = (
            quantizer.code_sqnorms(codes)
            if quantizer.needs_code_sqnorms(metric)
            else None
        )
        # Ascending runs of rows, as the kernel gathers them, repeats included.
        rows = np.sort(rng.integers(0, len(codes), size=(9, 37)), axis=1)
        exact = not quantizer.has_scan_operand
        for nq in (1, 9):
            table = quantizer.adc_table(queries[:nq], metric)
            got = quantizer.adc_gathered(
                table, codes[rows[:nq]],
                code_sqnorms=None if norms is None else norms[rows[:nq]],
            )
            assert got.shape == (nq, 37) and got.dtype == np.float32
            for q in range(nq):
                want = quantizer.adc_distances(
                    table, codes[rows[q]], rows=np.array([q]),
                    code_sqnorms=None if norms is None else norms[rows[q]],
                    shifted=True,
                )[0]
                if exact:
                    np.testing.assert_array_equal(got[q], want)
                else:
                    scale = float(np.abs(want).max())
                    np.testing.assert_allclose(got[q], want, rtol=1e-5, atol=1e-6 * scale)

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("scheme", ["flat", "sq8", "sq4", "pq4"])
    def test_equal_codes_get_equal_distances(self, scheme, dim):
        """A distance depends on its code alone, not on where the row sits
        in the tile: the gather kernel's storage-order tie-break rests on
        it. Hundreds of copies of one code, among other codes, at batch 1
        and 8 (a BLAS product over such a block rounds some copies apart)."""
        rng = np.random.default_rng(dim)
        data = rng.normal(size=(600, dim)).astype(np.float32)
        quantizer = make_quantizer(scheme, dim)
        quantizer.train(data)
        codes = quantizer.encode(data)
        norms = quantizer.code_sqnorms(codes)
        rows = rng.integers(0, 3, size=(8, 467))  # codes 0, 1, 2, repeated
        for nq in (1, 8):
            table = quantizer.adc_table(data[100 : 100 + nq], "l2")
            got = quantizer.adc_gathered(
                table, codes[rows[:nq]], code_sqnorms=norms[rows[:nq]]
            )
            for q in range(nq):
                for code in range(3):
                    assert len(np.unique(got[q][rows[q] == code])) == 1


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
