"""Recall@k against brute-force ground truth (the Table 1 metric)."""

from __future__ import annotations

import numpy as np


def recall_at_k(retrieved_ids: np.ndarray, truth_ids: np.ndarray) -> float:
    """Fraction of true top-k ids present anywhere in the retrieved top-k.

    Both arguments are ``(nq, k)`` id matrices; ``-1`` entries in the
    retrieved matrix (padding for short result lists) never match.
    """
    retrieved = np.atleast_2d(np.asarray(retrieved_ids))
    truth = np.atleast_2d(np.asarray(truth_ids))
    if retrieved.shape[0] != truth.shape[0]:
        raise ValueError(
            f"batch sizes differ: retrieved {retrieved.shape[0]} vs truth {truth.shape[0]}"
        )
    hits = 0
    total = 0
    for r_row, t_row in zip(retrieved, truth):
        valid = t_row[t_row >= 0]
        found = set(int(x) for x in r_row if x >= 0)
        hits += sum(1 for doc in valid if int(doc) in found)
        total += len(valid)
    if total == 0:
        raise ValueError("ground truth contains no valid ids")
    return hits / total

