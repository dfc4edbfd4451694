"""Evaluation metrics: NDCG, recall, and report formatting."""

from .ndcg import dcg, ndcg, ndcg_single
from .recall import recall_at_k
from .reporting import FigureResult, Series, format_table, speedup

__all__ = [
    "dcg",
    "ndcg",
    "ndcg_single",
    "recall_at_k",
    "FigureResult",
    "Series",
    "format_table",
    "speedup",
]
