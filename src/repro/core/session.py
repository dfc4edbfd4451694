"""Deterministic stand-in for one stride of RAG generation.

The live stride scheduler (:mod:`repro.serving.pipeline`) runs the actual
§2.2 loop — encode the current context, retrieve, "generate" a stride of
tokens grounded in the retrieved chunks, fold them into the context, and
retrieve again — without a language model: :func:`grounded_decode` emits
each stride's tokens sampled from the top retrieved chunk mixed with the
query's own tokens (a grounded "copy mechanism"), which preserves the
topical drift real RAG generation exhibits.
"""

from __future__ import annotations

import numpy as np

from ..datastore.chunkstore import ChunkStore


def grounded_decode(
    rng: np.random.Generator,
    context: np.ndarray,
    retrieved_ids,
    chunk_store: ChunkStore,
    *,
    stride_tokens: int,
    grounding: float,
) -> np.ndarray:
    """One stride of grounded pseudo-generation.

    ``grounding`` of the stride's tokens are sampled from the top retrieved
    chunk, the rest from the running *context*. Returns an empty array when
    there is nothing to sample from (no valid top id and no context share).
    """
    top_id = int(retrieved_ids[0]) if len(retrieved_ids) else -1
    top_tokens = chunk_store.get(top_id).tokens if top_id >= 0 else ()
    n_grounded = int(round(stride_tokens * grounding))
    n_context = stride_tokens - n_grounded
    parts = []
    if n_grounded and len(top_tokens):
        parts.append(rng.choice(top_tokens, size=n_grounded))
    if n_context and len(context):
        parts.append(rng.choice(context, size=n_context))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts).astype(np.int64)

