"""Tests for the synthetic query workloads."""

import numpy as np
import pytest

from repro.datastore.embeddings import TopicModel
from repro.datastore.queries import natural_questions_queries, trivia_queries


@pytest.fixture(scope="module")
def model():
    return TopicModel.create(n_topics=10, dim=32, seed=0)


class TestTrivia:
    def test_shape_and_name(self, model):
        qs = trivia_queries(model, 64)
        assert qs.embeddings.shape == (64, 32)
        assert len(qs) == 64
        assert qs.name == "triviaqa-like"

    def test_topics_roughly_uniform(self, model):
        qs = trivia_queries(model, 2000)
        counts = np.bincount(qs.topics, minlength=10)
        assert counts.max() / counts.min() < 1.6

    def test_queries_align_with_their_topic(self, model):
        qs = trivia_queries(model, 200)
        sims = qs.embeddings @ model.centers.T
        assert (sims.argmax(axis=1) == qs.topics).mean() > 0.9

    def test_deterministic(self, model):
        a = trivia_queries(model, 16, seed=3)
        b = trivia_queries(model, 16, seed=3)
        assert np.array_equal(a.embeddings, b.embeddings)


class TestNaturalQuestions:
    def test_popularity_skew(self, model):
        qs = natural_questions_queries(model, 4000)
        counts = np.bincount(qs.topics, minlength=10).astype(float)
        assert counts.max() / max(counts.min(), 1.0) > 2.0

    def test_popularity_independent_of_topic_index(self, model):
        # The hot topic should not always be topic 0 (it's shuffled).
        qs = natural_questions_queries(model, 4000, seed=11)
        counts = np.bincount(qs.topics, minlength=10)
        assert counts.argmax() != 0 or counts.argsort()[-2] != 1


class TestBatching:
    def test_batches_cover_all(self, model):
        qs = trivia_queries(model, 70)
        batches = qs.batches(32)
        assert [len(b) for b in batches] == [32, 32, 6]

    def test_rejects_bad_batch_size(self, model):
        qs = trivia_queries(model, 8)
        with pytest.raises(ValueError):
            qs.batches(0)
