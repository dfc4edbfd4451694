"""Vector quantization codecs: scalar (SQ8/SQ4), product (PQ), and OPQ.

Table 1 of the paper compares IVF quantization schemes by recall and encoded
vector size; the production configuration throughout the paper is IVF with
8-bit scalar quantization (SQ8). Each codec here implements the
train / encode / decode triple used by :class:`repro.ann.ivf.IVFIndex` to
store compressed vectors in its inverted lists.

Code sizes follow the paper's Table 1 accounting for 768-dimensional BGE
embeddings: Flat = 3072 B (fp32), SQ8 = 768 B, SQ4 = 384 B, PQ with 256
subquantizers = 256 B, PQ/OPQ with 384 subquantizers = 384 B.
"""

from __future__ import annotations

import abc
import json

import numpy as np

from .distances import VALID_METRICS, as_matrix, validate_metric
from .kmeans import train_kmeans


class Quantizer(abc.ABC):
    """Lossy codec mapping float32 vectors to compact codes and back.

    Besides the ``train`` / ``encode`` / ``decode`` triple, every codec
    implements **asymmetric distance computation** (ADC) for both metrics:
    distances are evaluated directly between a float query and stored codes,
    without materialising the decoded vectors.  ``adc_table`` precomputes
    per-query state (for PQ/OPQ a genuine ``(nq, m, ksub)`` lookup table; for
    scalar quantizers the closed-form affine equivalent of the per-dimension
    table) and ``adc_distances`` evaluates it against a block of codes. ADC
    is the only kernel the IVF scan runs, delta rows included, so a codec
    that cannot do it cannot be stored in an IVF index.
    """

    #: short name used in reports (e.g. the rows of Table 1)
    name: str = "quantizer"

    #: ``(row, pair)``: what the IVF scan's dense kernel costs per stored row
    #: (read once per batch) and per (query, row) pair, in units of one
    #: (query, row) pair of the gather kernel. ``repro.ann.ivf.dense_wins``
    #: goes dense once ``probed_pairs >= rows * (row + batch * pair)``.
    #: Lookup-table ADC (PQ/OPQ) costs the same per pair either way, so the
    #: dense scan only pays off at full probe coverage.
    dense_costs: "tuple[float, float]" = (0.0, 1.0)

    #: whether the codec's ADC is a GEMM against a dimension-major scan
    #: operand (:meth:`scan_operand`), which an IVF index derives once per
    #: sealed record.
    has_scan_operand: bool = False

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.is_trained = False

    def train(self, vectors: np.ndarray) -> None:
        self._train(as_matrix(vectors))
        self.is_trained = True

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before encode()")
        return self._encode(as_matrix(vectors))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before decode()")
        return self._decode(np.asarray(codes))

    def export_state(self) -> tuple[str, dict[str, np.ndarray]]:
        """The trained codec as ``(JSON spec, named arrays)``.

        :func:`restore_quantizer` is the inverse; index persistence carries
        codecs in this form.
        """
        raise TypeError(f"cannot serialize quantizer type {type(self).__name__}")

    # -- asymmetric distance computation ----------------------------------
    def needs_code_sqnorms(self, metric: str) -> bool:
        """Whether ADC for *metric* wants precomputed ``|decode(code)|^2``.

        Callers that store codes long-term (e.g. the IVF index) can compute
        these once via :meth:`code_sqnorms` and pass slices back into
        :meth:`adc_distances`, amortising the reconstruction norm term.
        """
        del metric
        return False

    @abc.abstractmethod
    def adc_table(self, queries: np.ndarray, metric: str, *, ws=None):
        """Precompute per-query ADC state for a batch of float queries.

        The returned mapping may carry a ``"bias"`` vector: a per-query
        constant that does not affect per-query top-k ordering. Scan loops
        can request ``shifted=True`` distances (bias omitted) from
        :meth:`adc_distances` and add the bias back once after selection,
        keeping the per-cell inner loop minimal.

        ``ws`` is an optional :class:`repro.ann.workspace.Workspace`: bulky
        table state (the PQ ``(nq, m, ksub)`` lookup tables) is carved from
        the arena instead of freshly allocated, and stays valid until the
        next ``adc_table`` call against the same workspace.
        """

    @abc.abstractmethod
    def adc_distances(
        self,
        table,
        codes: np.ndarray,
        *,
        rows: np.ndarray | None = None,
        code_sqnorms: np.ndarray | None = None,
        shifted: bool = False,
        ws=None,
        operand: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Distance matrix between table queries and *codes* (smaller=closer).

        ``rows`` restricts evaluation to a subset of the table's queries.
        With ``shifted=True`` the per-query ``table["bias"]`` term is left out
        (and L2 results are not clamped at zero); callers must add it back
        after top-k selection. ``operand`` is :meth:`scan_operand` of *codes*
        (with any padding), which a GEMM codec multiplies against instead of
        re-deriving it; other codecs ignore it.

        With ``ws`` the result (and intermediates) live in arena buffers: the
        returned array is only valid until the next ``adc_distances`` call on
        the same workspace. ``out`` is a caller's ``(queries, len(codes))``
        float32 array (a column range of a wider buffer is fine) the result
        is written into and returned as; the values are the same.
        """

    def scan_operand(self, codes: np.ndarray) -> np.ndarray | None:
        """The array a GEMM scan multiplies query weights against, or ``None``.

        GEMM codecs (:attr:`has_scan_operand`) return their levels
        *dimension-major* as float32: a ``(dim, len(codes))`` array (SQ
        levels converted exactly, flat rows as stored) whose column ``j`` is
        code ``j``. That is the array BLAS multiplies in a ``(queries, dim)
        @ (dim, codes)`` product, as is: the dense scan converts no levels.
        Gather codecs have no operand.
        """
        del codes
        return None

    @abc.abstractmethod
    def adc_gathered(
        self, table, codes: np.ndarray, *, code_sqnorms: np.ndarray | None = None
    ) -> np.ndarray:
        """Shifted distances of each table query to its own block of codes.

        *codes* is an ``(nq, P, code)`` block of row-major codes gathered
        for the ``nq`` table queries (pad rows hold any code; the caller
        masks them) and *code_sqnorms* their ``(nq, P)`` ``|decode(code)|²``
        when the metric needs them. Returns a fresh ``(nq, P)`` float32
        matrix whose ``[q, p]`` is what ``adc_distances(table, codes[q],
        rows=[q], shifted=True)`` computes, up to float32 reassociation.
        A distance depends only on its code and its query, never on where
        the row sits in the block, so equal codes get equal distances. The
        GEMM codecs decode the block to float32 levels and multiply them by
        the query weights in one ``einsum``; PQ / OPQ sum lookups in
        ``adc_distances``' order.
        """

    def code_sqnorms(self, codes: np.ndarray) -> np.ndarray:
        """``|decode(code)|^2`` per code, chunked to bound peak memory."""
        codes = np.asarray(codes)
        out = np.empty(len(codes), dtype=np.float32)
        step = 16384
        for s in range(0, len(codes), step):
            dec = self.decode(codes[s : s + step])
            out[s : s + step] = np.einsum("ij,ij->i", dec, dec)
        return out

    @abc.abstractmethod
    def code_size(self) -> int:
        """Bytes per encoded vector."""

    @abc.abstractmethod
    def _train(self, vectors: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _encode(self, vectors: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _decode(self, codes: np.ndarray) -> np.ndarray: ...


def _fold_weights(w: np.ndarray, metric: str) -> np.ndarray:
    """The GEMM codecs' query weights with the distance's sign and scale
    folded in: ``-w`` for inner product, ``-2 w`` for L2. Negating or doubling
    one operand negates or doubles every partial sum exactly, so a scan needs
    no per-tile sign/scale pass."""
    return np.negative(w) if metric == "ip" else np.multiply(w, -2.0)


def _dim_major(levels: np.ndarray) -> np.ndarray:
    """``(n, dim)`` rows as a fresh ``(dim, n)`` float32 array (integer
    levels convert exactly)."""
    out = np.empty(levels.shape[::-1], dtype=np.float32)
    out[...] = levels.T
    return out


def _gemm_distances(wf, levels, code_sqnorms, ws, out=None):
    """Shifted GEMM-codec distances: ``wf @ levels`` (+ ``|code|²`` for L2).

    *levels* is a float32 ``(dim, n)`` dimension-major operand and *out*,
    when given, an ``(nq, n)`` float32 result (strided views of wider arrays
    are fine for both: BLAS takes the leading dimension)."""
    if out is None and ws is not None:
        out = ws.take("adc_dists", (len(wf), levels.shape[1]))
    dists = np.matmul(wf, levels, out=out)
    if code_sqnorms is not None:
        dists += code_sqnorms
    return dists


class _GemmQuantizer(Quantizer):
    """A codec whose ADC is one GEMM against its levels (flat, SQ8, SQ4).

    The table carries the query weights ``wf`` with the distance's sign and
    scale folded in (:func:`_fold_weights`), so shifted distances are ``wf @
    levels`` plus, for L2, the precomputed ``|decode(code)|²``. Subclasses
    supply :meth:`scan_operand` (the dimension-major levels the dense scan
    multiplies), ``_gathered_levels`` (a gathered ``(nq, P, code)`` block
    as the ``(nq, P, dim)`` float32 levels :meth:`adc_gathered` multiplies)
    and ``adc_table``.
    """

    has_scan_operand = True

    #: Fit by ``benchmarks/scan_crossover.py`` (40 k x 64 shards, one BLAS
    #: thread, batch 1 / 8 / 32 x nprobe 1..64 x k 1 / 10) for flat and SQ8:
    #: the gather kernel wins up to a probed share of about 0.13-0.26 at
    #: batch 1 and 0.033-0.064 at batch 8; at batch 32 the share of 0.032
    #: goes dense at k 1 and gathers at k 10, which the rule does not read.
    #: These constants put the crossover at 0.22 / 0.052 / 0.034. The
    #: fitted optimum is flat (nine runs fit 0.12-0.25 and 0.019-0.048);
    #: each codec's grid total is within 0.5 % of its least here.
    dense_costs = (0.19, 0.028)

    def needs_code_sqnorms(self, metric: str) -> bool:
        return metric == "l2"

    def adc_distances(
        self, table, codes, *, rows=None, code_sqnorms=None, shifted=False, ws=None,
        operand=None, out=None,
    ):
        codes = np.asarray(codes)
        wf = table["wf"] if rows is None else table["wf"][rows]
        if operand is None:
            operand = self.scan_operand(codes)
        levels = operand[:, : len(codes)]
        l2 = table["metric"] == "l2"
        if l2 and code_sqnorms is None:
            code_sqnorms = self.code_sqnorms(codes)
        dists = _gemm_distances(wf, levels, code_sqnorms if l2 else None, ws, out)
        if not shifted:
            bias = table.get("bias")
            if bias is not None:
                dists += (bias if rows is None else bias[rows])[:, np.newaxis]
            if l2:
                np.maximum(dists, 0.0, out=dists)
        return dists

    def adc_gathered(self, table, codes, *, code_sqnorms=None):
        # einsum, not a BLAS product: BLAS blocks its rows, so two equal
        # rows of one call can round apart by their position in it, where
        # einsum runs every row through the same inner loop.
        dists = np.einsum("qpd,qd->qp", self._gathered_levels(codes), table["wf"])
        if code_sqnorms is not None:
            dists += code_sqnorms
        return dists


class IdentityQuantizer(_GemmQuantizer):
    """No-op codec storing raw float32 — the ``Flat`` row of Table 1."""

    name = "flat"

    def code_size(self) -> int:
        return self.dim * 4

    def export_state(self):
        return json.dumps({"kind": "identity", "dim": self.dim}), {}

    @classmethod
    def _restore(cls, spec, arrays):
        del arrays
        return cls(spec["dim"])

    def _train(self, vectors: np.ndarray) -> None:
        del vectors

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return vectors.astype(np.float32, copy=True)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return codes.astype(np.float32, copy=True)

    # Identity "ADC" degenerates to the plain kernel on the raw payload; it
    # exists so IVF's fast path is uniform across quantizers. Precomputed
    # code norms plus the shifted form still save the per-cell norm terms.
    def scan_operand(self, codes):
        return _dim_major(as_matrix(codes))

    def _gathered_levels(self, codes):
        return codes  # gathered float32 rows are the levels

    def adc_table(self, queries: np.ndarray, metric: str, *, ws=None):
        del ws  # raw-payload tables carry only references; nothing bulky
        validate_metric(metric)
        q = as_matrix(queries)
        table = {"metric": metric, "wf": _fold_weights(q, metric)}
        if metric == "l2":
            table["bias"] = np.einsum("ij,ij->i", q, q).astype(np.float32)
        return table


class ScalarQuantizer(_GemmQuantizer):
    """Uniform per-dimension scalar quantization to *bits* bits (SQ8 / SQ4).

    Training learns per-dimension ``(vmin, vmax)`` ranges; encoding maps each
    component to an integer level in ``[0, 2^bits - 1]``. 4-bit codes are
    packed two-per-byte, so code sizes match Table 1 (SQ8 = d bytes,
    SQ4 = d/2 bytes).
    """

    def __init__(self, dim: int, bits: int = 8) -> None:
        super().__init__(dim)
        if bits not in (4, 8):
            raise ValueError(f"bits must be 4 or 8, got {bits}")
        self.bits = bits
        self.name = f"sq{bits}"
        if bits == 4:
            # Unpacking nibbles makes SQ4's gather dearer: the same fit puts
            # its crossover at 0.11 / 0.03 / 0.02 of the rows probed.
            self.dense_costs = (0.09, 0.02)
        self._levels = (1 << bits) - 1
        self._vmin: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        # metric -> (scale, vmin) with the table's sign and factor folded in;
        # empty until trained (see _set_range).
        self._folded: dict = {}

    def code_size(self) -> int:
        if self.bits == 8:
            return self.dim
        return (self.dim + 1) // 2

    def export_state(self):
        spec = {"kind": "scalar", "dim": self.dim, "bits": self.bits}
        return json.dumps(spec), {"sq_vmin": self._vmin, "sq_scale": self._scale}

    @classmethod
    def _restore(cls, spec, arrays):
        quantizer = cls(spec["dim"], bits=spec["bits"])
        quantizer._set_range(arrays["sq_vmin"], arrays["sq_scale"])
        return quantizer

    def _train(self, vectors: np.ndarray) -> None:
        vmin = vectors.min(axis=0)
        span = np.maximum(vectors.max(axis=0) - vmin, 1e-12)
        self._set_range(vmin, span / self._levels)

    def _set_range(self, vmin: np.ndarray, scale: np.ndarray) -> None:
        """Adopt the trained ``(vmin, scale)``, deriving what the ADC table
        multiplies queries by: ``scale`` and ``vmin`` through
        :func:`_fold_weights`, per metric. Negating or doubling a factor
        negates or doubles a product (and a dot product) exactly, so the
        table is the unfolded one folded afterwards, bit for bit, with no
        folding pass per call."""
        self._vmin, self._scale = vmin, scale
        self._folded = {
            m: (_fold_weights(scale, m), _fold_weights(vmin, m)) for m in VALID_METRICS
        }

    def _quantize_levels(self, vectors: np.ndarray) -> np.ndarray:
        levels = np.rint((vectors - self._vmin) / self._scale)
        return np.clip(levels, 0, self._levels).astype(np.uint8)

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        levels = self._quantize_levels(vectors)
        if self.bits == 8:
            return levels
        # Pack pairs of 4-bit levels into single bytes (low nibble first).
        if levels.shape[1] % 2:
            levels = np.concatenate(
                [levels, np.zeros((len(levels), 1), dtype=np.uint8)], axis=1
            )
        low = levels[:, 0::2]
        high = levels[:, 1::2]
        return (low | (high << 4)).astype(np.uint8)

    def _unpack_levels(self, codes: np.ndarray) -> np.ndarray:
        """Integer levels as uint8 ``(n, dim)`` (unpacking nibbles for SQ4)."""
        if self.bits == 8:
            return codes
        levels = np.empty((len(codes), codes.shape[1] * 2), dtype=np.uint8)
        levels[:, 0::2] = codes & 0x0F
        levels[:, 1::2] = codes >> 4
        return levels[:, : self.dim]

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return self._unpack_levels(codes).astype(np.float32) * self._scale + self._vmin

    # -- ADC ----------------------------------------------------------------
    # decode(code) = L * scale + vmin is affine in the integer levels L, so
    # the per-dimension lookup table T[d, v] collapses to a closed form:
    #   q . decode = (q * scale) . L + q . vmin
    # One GEMM against the raw levels replaces reconstruct-then-GEMM; for L2
    # the ``|decode|^2`` term is the caller-precomputed ``code_sqnorms``.
    def scan_operand(self, codes):
        return _dim_major(self._unpack_levels(np.asarray(codes)))

    def _gathered_levels(self, codes):
        if self.bits == 8:
            return codes.astype(np.float32)
        levels = self._unpack_levels(codes.reshape(-1, codes.shape[2]))
        return levels.astype(np.float32).reshape(codes.shape[:2] + (self.dim,))

    def adc_table(self, queries: np.ndarray, metric: str, *, ws=None):
        del ws  # the affine table (w, bias) is batch-sized, not corpus-sized
        folded = self._folded.get(metric)
        if folded is None:
            validate_metric(metric)
            raise RuntimeError(f"{type(self).__name__} must be trained before adc_table()")
        scale, vmin = folded
        q = as_matrix(queries)
        # With w = q * scale and b = q . vmin, shifted distances are wf . L
        # (+ |dec|^2 for L2), wf = -w or -2 w; fb = -b or -2 b.
        wf = (q * scale).astype(np.float32, copy=False)
        fb = (q @ vmin).astype(np.float32, copy=False)
        if metric == "ip":
            # dist = -(q . dec) = -(w . L) - b
            return {"metric": metric, "wf": wf, "bias": fb}
        # dist = |q|^2 - 2 (w . L + b) + |dec|^2
        #      = (|dec|^2 - 2 w . L) + (|q|^2 - 2 b)
        qnorm = np.einsum("ij,ij->i", q, q).astype(np.float32, copy=False)
        return {"metric": metric, "wf": wf, "bias": qnorm + fb}


class ProductQuantizer(Quantizer):
    """Product quantization [Jegou et al. 2010].

    The vector is split into *m* subspaces, each quantized against its own
    codebook of 256 centroids; codes are ``m`` bytes.
    The paper's PQ256 / PQ384 rows correspond to ``m=256`` / ``m=384`` on
    768-dim vectors.
    """

    def __init__(
        self,
        dim: int,
        m: int = 8,
        *,
        train_seed: int = 0,
        train_sample: "int | None" = None,
    ) -> None:
        super().__init__(dim)
        if m <= 0 or dim % m:
            raise ValueError(f"m={m} must evenly divide dim={dim}")
        if train_sample is not None and train_sample <= 0:
            raise ValueError(f"train_sample must be positive, got {train_sample}")
        self.m = m
        self.ksub = 256
        self.dsub = dim // m
        self.name = f"pq{m}"
        self.train_seed = train_seed
        #: cap on training rows; codebook k-means sees a deterministic random
        #: sample of this size instead of the full corpus (None = all rows)
        self.train_sample = train_sample
        self._codebooks: np.ndarray | None = None  # (m, ksub, dsub)

    def code_size(self) -> int:
        return self.m

    def export_state(self):
        spec = {"kind": "pq", "dim": self.dim, "m": self.m}
        return json.dumps(spec), {"pq_codebooks": self._codebooks}

    @classmethod
    def _restore(cls, spec, arrays):
        quantizer = cls(spec["dim"], m=spec["m"])
        quantizer._codebooks = arrays["pq_codebooks"]
        return quantizer

    def _sample_rows(self, vectors: np.ndarray) -> np.ndarray:
        if self.train_sample is None or len(vectors) <= self.train_sample:
            return vectors
        rng = np.random.default_rng(self.train_seed)
        idx = rng.choice(len(vectors), size=self.train_sample, replace=False)
        return vectors[idx]

    def _train(self, vectors: np.ndarray) -> None:
        vectors = self._sample_rows(vectors)
        ksub = min(self.ksub, len(vectors))
        codebooks = np.zeros((self.m, self.ksub, self.dsub), dtype=np.float32)
        for j in range(self.m):
            sub = vectors[:, j * self.dsub : (j + 1) * self.dsub]
            result = train_kmeans(sub, ksub, seed=self.train_seed + j, max_iter=12)
            codebooks[j, :ksub] = result.centroids
            if ksub < self.ksub:
                codebooks[j, ksub:] = result.centroids[0]
        self._codebooks = codebooks

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        codes = np.empty((len(vectors), self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = vectors[:, j * self.dsub : (j + 1) * self.dsub]
            book = self._codebooks[j]
            # Assign each subvector to its nearest codeword.
            d = (
                np.einsum("ij,ij->i", sub, sub)[:, np.newaxis]
                - 2.0 * sub @ book.T
                + np.einsum("ij,ij->i", book, book)[np.newaxis, :]
            )
            codes[:, j] = d.argmin(axis=1)
        return codes

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        out = np.empty((len(codes), self.dim), dtype=np.float32)
        for j in range(self.m):
            out[:, j * self.dsub : (j + 1) * self.dsub] = self._codebooks[j][codes[:, j]]
        return out

    # -- ADC ----------------------------------------------------------------
    # The classic PQ trick [Jegou et al. 2010]: per query, precompute the
    # distance from each query subvector to every codeword — an
    # ``(nq, m, ksub)`` table — then the distance to a stored code is m table
    # lookups summed, never touching the reconstructed vector.
    def adc_table(self, queries: np.ndarray, metric: str, *, ws=None):
        validate_metric(metric)
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before adc_table()")
        q = as_matrix(queries)
        shape = (len(q), self.m, self.ksub)
        tables = np.empty(shape, dtype=np.float32) if ws is None else ws.take("pq_tables", shape)
        table = {"metric": metric, "tables": tables}
        for j in range(self.m):
            sub = q[:, j * self.dsub : (j + 1) * self.dsub]
            book = self._codebooks[j]
            if metric == "ip":
                tables[:, j, :] = -(sub @ book.T)
            else:
                # The per-subspace |q_sub|^2 terms are query constants: keep
                # them out of the lookup tables so each code lookup only sums
                # |book|^2 - 2 q_sub . book, and fold them into the bias.
                tables[:, j, :] = (
                    np.einsum("ij,ij->i", book, book)[np.newaxis, :]
                    - 2.0 * sub @ book.T
                )
        if metric == "l2":
            table["bias"] = np.einsum("ij,ij->i", q, q).astype(np.float32)
        return table

    def adc_distances(
        self, table, codes, *, rows=None, code_sqnorms=None, shifted=False, ws=None,
        operand=None, out=None,
    ):
        del code_sqnorms, operand
        tables = table["tables"]
        if rows is not None:
            tables = tables[rows]
        codes = np.asarray(codes)
        shape = (len(tables), len(codes))
        if ws is None and out is None:
            acc = np.zeros(shape, dtype=np.float32)
            for j in range(self.m):
                acc += tables[:, j, codes[:, j]]
        else:
            # Fused gather + accumulate over arena tiles: each subquantizer's
            # lookup lands directly in a scratch tile (``np.take(..., out=)``)
            # and is summed in place — no per-subspace temporary allocations.
            acc = ws.take("pq_acc", shape) if out is None else out
            tile = np.empty(shape, np.float32) if ws is None else ws.take("pq_tile", shape)
            np.take(tables[:, 0, :], codes[:, 0], axis=1, out=acc)
            for j in range(1, self.m):
                np.take(tables[:, j, :], codes[:, j], axis=1, out=tile)
                acc += tile
        if not shifted and table["metric"] == "l2":
            bias = table["bias"] if rows is None else table["bias"][rows]
            acc += bias[:, np.newaxis]
            np.maximum(acc, 0.0, out=acc)
        return acc

    def adc_gathered(self, table, codes, *, code_sqnorms=None):
        del code_sqnorms
        # Query q's subquantizer j table starts at flat (q * m + j) * ksub.
        flat = table["tables"].reshape(-1)
        base = (np.arange(len(codes)) * (self.m * self.ksub))[:, np.newaxis]
        acc = flat[base + codes[:, :, 0]]
        for j in range(1, self.m):
            acc += flat[base + (j * self.ksub) + codes[:, :, j]]
        return acc


class OPQQuantizer(Quantizer):
    """Optimized Product Quantization: learned rotation + PQ.

    Alternates between (a) fitting a PQ on rotated data and (b) solving the
    orthogonal Procrustes problem aligning the data with its reconstruction,
    as in Ge et al. 2013. Matches the paper's OPQ256 / OPQ384 rows.
    """

    def __init__(
        self,
        dim: int,
        m: int = 8,
        *,
        opq_iters: int = 5,
        train_seed: int = 0,
        train_sample: "int | None" = None,
    ) -> None:
        super().__init__(dim)
        # OPQ samples its own training rows once (the rotation and the PQ must
        # see the same subset), so the inner PQ keeps train_sample=None.
        self.pq = ProductQuantizer(dim, m=m, train_seed=train_seed)
        if train_sample is not None and train_sample <= 0:
            raise ValueError(f"train_sample must be positive, got {train_sample}")
        self.m = m
        self.opq_iters = opq_iters
        self.name = f"opq{m}"
        self.train_seed = train_seed
        self.train_sample = train_sample
        self._rotation: np.ndarray | None = None

    def code_size(self) -> int:
        return self.pq.code_size()

    def export_state(self):
        spec = {"kind": "opq", "dim": self.dim, "m": self.m}
        return json.dumps(spec), {
            "opq_rotation": self._rotation,
            "pq_codebooks": self.pq._codebooks,
        }

    @classmethod
    def _restore(cls, spec, arrays):
        quantizer = cls(spec["dim"], m=spec["m"])
        quantizer._rotation = arrays["opq_rotation"]
        quantizer.pq._codebooks = arrays["pq_codebooks"]
        quantizer.pq.is_trained = True
        return quantizer

    def _train(self, vectors: np.ndarray) -> None:
        if self.train_sample is not None and len(vectors) > self.train_sample:
            rng = np.random.default_rng(self.train_seed)
            vectors = vectors[rng.choice(len(vectors), size=self.train_sample, replace=False)]
        rotation = np.eye(self.dim, dtype=np.float32)
        for _ in range(self.opq_iters):
            rotated = vectors @ rotation
            self.pq._train(rotated)
            self.pq.is_trained = True
            recon = self.pq._decode(self.pq._encode(rotated))
            # Procrustes: R = U V^T for X^T Xhat = U S V^T.
            u, _, vt = np.linalg.svd(vectors.T @ recon)
            rotation = (u @ vt).astype(np.float32)
        self._rotation = rotation
        rotated = vectors @ rotation
        self.pq._train(rotated)
        self.pq.is_trained = True

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return self.pq._encode(vectors @ self._rotation)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return self.pq._decode(codes) @ self._rotation.T

    # The rotation is orthogonal, so |q - dec R^T|^2 = |q R - dec|^2 and
    # q . (dec R^T) = (q R) . dec: rotating the query reduces OPQ ADC to PQ
    # ADC on the rotated query — the asymmetry does all the work.
    def adc_table(self, queries: np.ndarray, metric: str, *, ws=None):
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before adc_table()")
        return self.pq.adc_table(as_matrix(queries) @ self._rotation, metric, ws=ws)

    def adc_distances(
        self, table, codes, *, rows=None, code_sqnorms=None, shifted=False, ws=None,
        operand=None, out=None,
    ):
        del operand
        return self.pq.adc_distances(
            table, codes, rows=rows, code_sqnorms=code_sqnorms, shifted=shifted, ws=ws,
            out=out,
        )

    def adc_gathered(self, table, codes, *, code_sqnorms=None):
        return self.pq.adc_gathered(table, codes, code_sqnorms=code_sqnorms)


def restore_quantizer(spec_json: str, arrays) -> Quantizer:
    """Rebuild a trained codec from :meth:`Quantizer.export_state` output
    (*arrays* may hold other entries too, e.g. a whole index ``.npz``)."""
    spec = json.loads(spec_json)
    kinds = {
        "identity": IdentityQuantizer,
        "scalar": ScalarQuantizer,
        "pq": ProductQuantizer,
        "opq": OPQQuantizer,
    }
    if spec["kind"] not in kinds:
        raise ValueError(f"unknown quantizer kind {spec['kind']!r}")
    quantizer = kinds[spec["kind"]]._restore(spec, arrays)
    quantizer.is_trained = True
    return quantizer


def make_quantizer(
    scheme: str,
    dim: int,
    *,
    train_seed: int = 0,
    train_sample: "int | None" = None,
) -> Quantizer:
    """Build a codec from a Table 1 row name.

    Recognised schemes: ``flat``, ``sq8``, ``sq4``, ``pqM``, ``opqM`` where
    ``M`` is the subquantizer count (must divide *dim*). The ``train_*``
    knobs apply to the codebook-learning codecs (PQ/OPQ): the k-means seed
    and a deterministic training-row sample. Scalar codecs ignore them —
    their min/max training must see every row.
    """
    key = scheme.lower()
    if key == "flat":
        return IdentityQuantizer(dim)
    if key == "sq8":
        return ScalarQuantizer(dim, bits=8)
    if key == "sq4":
        return ScalarQuantizer(dim, bits=4)
    if key.startswith("opq"):
        return OPQQuantizer(
            dim, m=int(key[3:]), train_seed=train_seed, train_sample=train_sample
        )
    if key.startswith("pq"):
        return ProductQuantizer(
            dim, m=int(key[2:]), train_seed=train_seed, train_sample=train_sample
        )
    raise ValueError(f"unknown quantization scheme {scheme!r}")
