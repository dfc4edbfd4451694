"""Non-parametric datastore substrate: corpora, embeddings, encoder, queries.

Replaces the paper's SPHERE/Common-Crawl embeddings, BGE-Large encoder, and
TriviaQA / Natural Questions query sets with deterministic synthetic
equivalents that preserve the topical cluster structure Hermes exploits (see
DESIGN.md, "Substitutions").
"""

from .chunkstore import AugmentedQuery, ChunkStore, augment_query
from .corpus import (
    DEFAULT_CHUNK_TOKENS,
    Chunk,
    CorpusGenerator,
    Document,
    TokenVocabulary,
    chunk_documents,
    datastore_tokens,
)
from .embeddings import (
    DEFAULT_DIM,
    SyntheticCorpus,
    TopicModel,
    make_corpus,
    zipf_weights,
)
from .encoder import SyntheticEncoder
from .queries import (
    QuerySet,
    natural_questions_queries,
    trivia_queries,
)

__all__ = [
    "AugmentedQuery",
    "ChunkStore",
    "augment_query",
    "DEFAULT_CHUNK_TOKENS",
    "Chunk",
    "CorpusGenerator",
    "Document",
    "TokenVocabulary",
    "chunk_documents",
    "datastore_tokens",
    "DEFAULT_DIM",
    "SyntheticCorpus",
    "TopicModel",
    "make_corpus",
    "zipf_weights",
    "SyntheticEncoder",
    "QuerySet",
    "natural_questions_queries",
    "trivia_queries",
]
