"""RAGCache baseline [Jin et al. 2024]: cache document prefill state.

RAGCache observes that successive retrieval strides often return overlapping
documents, so the KV tensors of already-prefilled chunks can be reused. The
paper grants it an *ideal 100% hit rate* (§3 Takeaway 3) — after the first
stride only newly generated tokens are prefilled — implemented by the
``prefix_cached=True`` generation flag. This module adds the non-ideal
analysis: measuring the real cross-stride document overlap of a retrieval
trace, which determines how much of the ideal saving a real deployment gets.
"""

from __future__ import annotations

import numpy as np

from ..llm.kvcache import PrefixCache


def stride_overlap_fraction(stride_results: list[np.ndarray]) -> float:
    """Mean fraction of stride *i*'s documents already seen at stride *i-1*.

    ``stride_results`` is one query's retrieved-id matrix per stride (each
    ``(k,)``). This is the quantity RAGCache's real hit rate tracks.

    Vectorized: uniform-``k`` traces stack into ``(n-1, k)`` previous/current
    matrices and a single broadcasted membership test replaces the per-row
    Python sets (``-1`` padding never matches because current ids are masked
    to valid entries first). Ragged traces fall back to per-pair ``np.isin``.
    """
    if len(stride_results) < 2:
        raise ValueError("need at least two strides to measure overlap")
    strides = [np.asarray(s).ravel() for s in stride_results]
    lengths = {len(s) for s in strides}
    if len(lengths) == 1 and lengths != {0}:
        prev = np.stack(strides[:-1])
        cur = np.stack(strides[1:])
        valid = cur >= 0
        # (n-1, k, k) membership: does cur[r, i] appear anywhere in prev[r]?
        seen = (cur[:, :, np.newaxis] == prev[:, np.newaxis, :]).any(axis=2)
        counts = valid.sum(axis=1)
        rows = counts > 0
        if not rows.any():
            raise ValueError("no valid documents in stride results")
        hits = (seen & valid).sum(axis=1)
        return float(np.mean(hits[rows] / counts[rows]))
    overlaps = []
    for prev, cur in zip(strides, strides[1:]):
        cur = cur[cur >= 0]
        if not len(cur):
            continue
        overlaps.append(float(np.isin(cur, prev[prev >= 0]).mean()))
    if not overlaps:
        raise ValueError("no valid documents in stride results")
    return float(np.mean(overlaps))


def simulate_cache_hit_rate(
    stride_results: list[np.ndarray], *, capacity: int = 4096, chunk_tokens: int = 100
) -> float:
    """Replay a stride trace through a real LRU prefix cache.

    Returns the measured hit rate — the non-ideal counterpart of the paper's
    100% assumption, useful for sensitivity studies.
    """
    cache = PrefixCache(capacity=capacity)
    for stride in stride_results:
        for doc in np.asarray(stride).ravel():
            doc = int(doc)
            if doc < 0:
                continue
            if not cache.lookup(doc):
                cache.insert(doc, chunk_tokens)
    return cache.stats.hit_rate
