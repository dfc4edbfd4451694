"""Tests for the grounded pseudo-decode the live stride loop generates with."""

import numpy as np

from repro.core.session import grounded_decode
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import Chunk

CHUNK = np.arange(100, 148)
CONTEXT = np.arange(16)


def decode(ids, *, context=CONTEXT, grounding=0.5, seed=0):
    store = ChunkStore([Chunk(chunk_id=0, doc_id=0, topic=0, tokens=CHUNK)])
    return grounded_decode(
        np.random.default_rng(seed),
        context,
        np.asarray(ids),
        store,
        stride_tokens=16,
        grounding=grounding,
    )


class TestGroundedDecode:
    def test_tokens_split_between_top_chunk_and_context(self):
        tokens = decode([0], grounding=0.75)
        assert tokens.dtype == np.int64 and len(tokens) == 16
        assert np.isin(tokens[:12], CHUNK).all()
        assert np.isin(tokens[12:], CONTEXT).all()

    def test_deterministic_for_seed(self):
        assert np.array_equal(decode([0], seed=3), decode([0], seed=3))
        assert not np.array_equal(decode([0], seed=3), decode([0], seed=4))

    def test_padded_result_falls_back_to_context_share(self):
        # no valid top id: only the context share of the stride is emitted
        tokens = decode([-1], grounding=0.75)
        assert len(tokens) == 4 and np.isin(tokens, CONTEXT).all()

    def test_nothing_to_sample_from_is_empty(self):
        assert len(decode([-1], grounding=1.0)) == 0
        assert len(decode([], context=np.empty(0, dtype=np.int64), grounding=0.0)) == 0
