"""Tests for the token corpus generator and chunking."""

import numpy as np
import pytest

from repro.datastore.corpus import (
    Chunk,
    CorpusGenerator,
    TokenVocabulary,
    chunk_documents,
    datastore_tokens,
)
from repro.datastore.encoder import OOV_TOKEN_OFFSET, SyntheticEncoder


@pytest.fixture(scope="module")
def vocab():
    return TokenVocabulary(n_topics=4, pool_size=100, common_size=50)


@pytest.fixture(scope="module")
def docs(vocab):
    gen = CorpusGenerator(vocab, doc_tokens=130, topical_fraction=0.7, seed=0)
    return gen.generate(20)


class TestVocabulary:
    def test_size(self, vocab):
        assert vocab.size == 50 + 4 * 100

    def test_pools_disjoint(self, vocab):
        pools = [set(vocab.topic_pool(t)) for t in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not pools[i] & pools[j]

    def test_topic_of_token_roundtrip(self, vocab):
        for topic in range(4):
            for token in vocab.topic_pool(topic)[:3]:
                assert vocab.topic_of_token(int(token)) == topic

    def test_common_tokens_have_no_topic(self, vocab):
        assert vocab.topic_of_token(10) == -1

    def test_out_of_range_topic_rejected(self, vocab):
        with pytest.raises(ValueError):
            vocab.topic_pool(4)

    @pytest.mark.parametrize("token", [-1, 450, 10_000, int(OOV_TOKEN_OFFSET) + 5])
    def test_out_of_range_token_rejected(self, vocab, token):
        # 450 is vocab.size; an OOV id from tokenize is far past it and used
        # to report a topic far past n_topics
        with pytest.raises(ValueError, match="out of range"):
            vocab.topic_of_token(token)

    def test_hashed_word_has_no_topic(self, vocab):
        (token,) = SyntheticEncoder.tokenize("hello")
        with pytest.raises(ValueError, match="out of range"):
            vocab.topic_of_token(int(token))

    def test_last_token_has_last_topic(self, vocab):
        assert vocab.topic_of_token(vocab.size - 1) == vocab.n_topics - 1


class TestGenerator:
    def test_document_length(self, docs):
        assert all(len(d) == 130 for d in docs)

    def test_topical_tokens_match_document_topic(self, docs, vocab):
        for doc in docs:
            topical = [
                vocab.topic_of_token(int(t)) for t in doc.tokens
                if vocab.topic_of_token(int(t)) >= 0
            ]
            # All topical tokens come from the document's own pool.
            assert set(topical) == {doc.topic}

    def test_topical_fraction_respected(self, docs, vocab):
        fractions = [
            sum(1 for t in d.tokens if vocab.topic_of_token(int(t)) >= 0) / len(d)
            for d in docs
        ]
        assert abs(np.mean(fractions) - 0.7) < 0.05

    def test_deterministic(self, vocab):
        a = CorpusGenerator(vocab, seed=5).generate(5)
        b = CorpusGenerator(vocab, seed=5).generate(5)
        for da, db in zip(a, b):
            assert np.array_equal(da.tokens, db.tokens)

    def test_bad_fraction_rejected(self, vocab):
        with pytest.raises(ValueError, match="topical_fraction"):
            CorpusGenerator(vocab, topical_fraction=1.5)

    def test_no_common_tokens_needs_all_topical(self):
        # with no common ids, a "common" draw was id 0 — topic 0's first
        # token — in every document of every topic
        vocab = TokenVocabulary(n_topics=3, pool_size=10, common_size=0)
        with pytest.raises(ValueError, match="common tokens"):
            CorpusGenerator(vocab, topical_fraction=0.7)
        docs = CorpusGenerator(vocab, doc_tokens=40, topical_fraction=1.0, seed=1).generate(30)
        for doc in docs:
            assert {vocab.topic_of_token(int(t)) for t in doc.tokens} == {doc.topic}

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.5], [0.6, 0.6, -0.2, 0.0], [0.3, 0.3, 0.3, 0.3]]
    )
    def test_bad_topic_weights_rejected(self, vocab, weights):
        with pytest.raises(ValueError, match="topic_weights"):
            CorpusGenerator(vocab, topic_weights=np.array(weights))


class TestChunking:
    def test_chunk_ids_contiguous(self, docs):
        chunks = chunk_documents(docs, chunk_tokens=64)
        assert [c.chunk_id for c in chunks] == list(range(len(chunks)))

    def test_tokens_preserved(self, docs):
        chunks = chunk_documents(docs, chunk_tokens=64)
        assert datastore_tokens(chunks) == sum(len(d) for d in docs)

    def test_final_partial_chunk_kept(self, docs):
        chunks = chunk_documents(docs, chunk_tokens=64)
        # 130-token docs -> 64 + 64 + 2.
        per_doc = {}
        for c in chunks:
            per_doc.setdefault(c.doc_id, []).append(len(c))
        for lengths in per_doc.values():
            assert lengths == [64, 64, 2]

    def test_chunks_inherit_topic(self, docs):
        chunks = chunk_documents(docs, chunk_tokens=64)
        by_doc = {d.doc_id: d.topic for d in docs}
        assert all(c.topic == by_doc[c.doc_id] for c in chunks)

    def test_rejects_nonpositive_chunk(self, docs):
        with pytest.raises(ValueError):
            chunk_documents(docs, chunk_tokens=0)


class TestTextRendering:
    def test_text_roundtrips_token_ids(self):
        chunk = Chunk(chunk_id=0, doc_id=0, topic=0, tokens=np.array([5, 9, 11]))
        assert chunk.text() == "tok5 tok9 tok11"
