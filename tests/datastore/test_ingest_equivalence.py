"""The offline ingest path against its loop-at-a-time oracles.

``SyntheticEncoder`` sums token vectors with ordered gathers over a token
table; ``tests/oracles.reference_encode_tokens`` is the per-token
``acc += token_vector(t)`` loop it replaced. The float32 additions must be
the same ones in the same order, so every comparison here is on the bytes,
not within a tolerance. ``CorpusGenerator.generate`` draws its topics and
topical tokens without ``Generator.choice``; ``reference_generate`` still
calls it, and the documents must be the same.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datastore import encoder as encoder_module
from repro.datastore.corpus import Chunk, CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.encoder import SyntheticEncoder
from tests.oracles import reference_encode_tokens, reference_generate

SEEDS = (0, 11)
DIMS = (3, 64)

#: ids a hashed free-form word gets from ``tokenize`` (at or above
#: ``OOV_TOKEN_OFFSET``)
OOV_IDS = SyntheticEncoder.tokenize("alpha beta gamma delta").tolist()

token_ids = st.one_of(
    st.integers(0, 40),  # a small vocabulary: repeated ids within and across chunks
    st.integers(0, 40),
    st.sampled_from(OOV_IDS),
    st.integers(1_000, 1 << 40),  # ids past a gap in the table's dense prefix
)


def sequences_of(length):
    return st.lists(token_ids, min_size=length, max_size=length)


#: chunk lists over one to three lengths, so a length is revisited and a
#: length group can reach the many-rows path; 1 is a single-token chunk,
#: 5 and 31 are uneven final chunks next to full 32-token ones
sequence_lists = st.lists(
    st.sampled_from([1, 2, 5, 31, 32]), min_size=1, max_size=3, unique=True
).flatmap(
    lambda lengths: st.lists(
        st.sampled_from(lengths).flatmap(sequences_of), min_size=1, max_size=40
    )
)


def as_chunks(sequences):
    return [
        Chunk(chunk_id=i, doc_id=i, topic=0, tokens=np.asarray(s, dtype=np.int64))
        for i, s in enumerate(sequences)
    ]


def as_text(sequence):
    """Text that ``tokenize`` maps back to *sequence*'s ids, with a hashed
    word wherever the id is one of ``OOV_IDS``."""
    words = dict(zip(OOV_IDS, "alpha beta gamma delta".split()))
    return " ".join(words.get(t, f"tok{t}") for t in sequence)


def reference(sequences, *, dim, seed):
    expected = np.empty((len(sequences), dim), dtype=np.float32)
    for i, s in enumerate(sequences):
        expected[i] = reference_encode_tokens(s, dim=dim, seed=seed)
    return expected


def assert_same_bytes(actual, expected):
    assert actual.dtype == np.float32 and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
class TestEncoderMatchesLoop:
    @given(sequences=sequence_lists)
    def test_encode_chunks(self, seed, dim, sequences):
        encoder = SyntheticEncoder(dim, seed=seed)
        actual = encoder.encode_chunks(as_chunks(sequences))
        assert_same_bytes(actual, reference(sequences, dim=dim, seed=seed))

    @given(sequences=sequence_lists)
    def test_encode_tokens(self, seed, dim, sequences):
        encoder = SyntheticEncoder(dim, seed=seed)
        expected = reference(sequences, dim=dim, seed=seed)
        for s, row in zip(sequences, expected):
            assert_same_bytes(encoder.encode_tokens(np.asarray(s)), row)

    @given(sequences=sequence_lists)
    def test_encode_text_and_batch(self, seed, dim, sequences):
        texts = [as_text(s) for s in sequences]
        assert [SyntheticEncoder.tokenize(t).tolist() for t in texts] == sequences
        expected = reference(sequences, dim=dim, seed=seed)
        encoder = SyntheticEncoder(dim, seed=seed)
        assert_same_bytes(encoder.encode_batch(texts), expected)
        for text, row in zip(texts, expected):
            assert_same_bytes(encoder.encode_text(text), row)

    @given(first=sequence_lists, second=sequence_lists)
    def test_second_batch_after_the_table_grew(self, seed, dim, first, second):
        encoder = SyntheticEncoder(dim, seed=seed)
        encoder.encode_chunks(as_chunks(first))
        published = encoder._table
        ids, vectors = published.ids.copy(), published.vectors.copy()
        held = encoder.token_vector(first[0][0])
        actual = encoder.encode_chunks(as_chunks(second + first))
        assert_same_bytes(actual, reference(second + first, dim=dim, seed=seed))
        # growing published a new table; the old one was never written
        assert np.array_equal(published.ids, ids)
        assert published.vectors.tobytes() == vectors.tobytes()
        assert not published.vectors.flags.writeable and not held.flags.writeable
        assert_same_bytes(encoder.token_vector(first[0][0]), held)

    def test_blocks_and_windows_split(self, seed, dim):
        # a 13-float block: a few rows per block at dim 3, one at dim 64,
        # and accumulation windows shorter than a chunk
        vocab = TokenVocabulary(n_topics=3, pool_size=20, common_size=10)
        docs = CorpusGenerator(vocab, doc_tokens=45, seed=seed).generate(40)
        sequences = [c.tokens.tolist() for c in chunk_documents(docs, chunk_tokens=16)]
        expected = reference(sequences, dim=dim, seed=seed)
        with mock.patch.object(encoder_module, "_BLOCK_FLOATS", 13):
            actual = SyntheticEncoder(dim, seed=seed).encode_chunks(as_chunks(sequences))
        assert_same_bytes(actual, expected)


def test_corpus_encode_matches_loop():
    """A corpus in the shape the benchmark encodes (uneven final chunks,
    thousands of rows per length, every vocabulary id)."""
    vocab = TokenVocabulary(n_topics=10, pool_size=200, common_size=100)
    docs = CorpusGenerator(vocab, doc_tokens=100, topical_fraction=0.8, seed=3).generate(600)
    chunks = chunk_documents(docs, chunk_tokens=32)
    sequences = [c.tokens for c in chunks]
    actual = SyntheticEncoder(64, seed=0).encode_chunks(chunks)
    assert_same_bytes(actual, reference(sequences, dim=64, seed=0))


def test_concurrent_encoders_agree_with_the_loop():
    """Eight threads grow one encoder's table at once, switching every few
    microseconds: a batch that read a table another thread then replaced, or
    a growth lost to a concurrent one, would encode a wrong row."""
    encoder = SyntheticEncoder(16, seed=0)
    rng = np.random.default_rng(0)
    batches = [
        [rng.integers(0, 400, size=int(rng.integers(1, 40))) for _ in range(30)]
        for _ in range(8)
    ]
    results = [None] * len(batches)

    def encode(i):
        for _ in range(3):
            results[i] = encoder.encode_chunks(as_chunks(batches[i]))

    threads = [threading.Thread(target=encode, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for batch, actual in zip(batches, results):
        assert_same_bytes(actual, reference(batch, dim=16, seed=0))


class TestEdgeCases:
    def test_empty_chunk_rejected(self):
        encoder = SyntheticEncoder(8, seed=0)
        chunks = as_chunks([[1, 2], []])
        with pytest.raises(ValueError, match="empty"):
            encoder.encode_chunks(chunks)
        with pytest.raises(ValueError, match="empty"):
            encoder.encode_tokens(np.array([], dtype=np.int64))

    def test_empty_lists_encode_to_no_rows(self):
        encoder = SyntheticEncoder(8, seed=0)
        for out in (encoder.encode_chunks([]), encoder.encode_batch([])):
            assert out.shape == (0, 8) and out.dtype == np.float32


GENERATOR_SHAPES = [
    # (n_topics, pool_size, common_size, doc_tokens, topical_fraction, zipf)
    (4, 100, 50, 130, 0.7, False),
    (10, 200, 100, 128, 0.8, True),
    (3, 7, 5, 33, 0.0, True),
    (6, 50, 20, 64, 1.0, False),
    (6, 50, 0, 64, 1.0, True),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", GENERATOR_SHAPES)
def test_generate_matches_choice_draws(seed, shape):
    n_topics, pool_size, common_size, doc_tokens, fraction, zipf = shape
    vocab = TokenVocabulary(n_topics, pool_size=pool_size, common_size=common_size)
    weights = None
    if zipf:
        weights = 1.0 / np.arange(1, n_topics + 1) ** 1.1
        weights /= weights.sum()
    kwargs = dict(
        topic_weights=weights, doc_tokens=doc_tokens, topical_fraction=fraction, seed=seed
    )
    generator = CorpusGenerator(vocab, **kwargs)
    # two calls continue one random stream; doc ids restart per call
    actual = generator.generate(60) + generator.generate(40)
    expected = reference_generate(vocab, 100, **kwargs)
    assert [d.topic for d in actual] == [d.topic for d in expected]
    for a, e in zip(actual, expected):
        assert a.tokens.dtype == np.int64
        assert np.array_equal(a.tokens, e.tokens)
    assert [d.doc_id for d in actual] == list(range(60)) + list(range(40))
