"""Deterministic text encoder standing in for BGE-Large.

The paper encodes queries and document chunks with the BGE-Large embedding
model. Offline we replace it with a *hash-projection bag-of-tokens* encoder:
every token id maps to a fixed pseudo-random unit vector (seeded by the token
id, so the mapping is global and deterministic), and a text's embedding is
the L2-normalised mean of its token vectors.

Because :class:`repro.datastore.corpus.CorpusGenerator` gives documents
topic-specific token pools, documents about the same topic share many token
vectors and therefore land close together — topical cluster structure emerges
from the encode path itself rather than being injected directly, which is the
property Hermes's clustering exploits.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..ann.distances import normalize
from .corpus import Chunk
from .embeddings import DEFAULT_DIM

#: Unknown (non-``tok<i>``) words hash into token ids at or above this
#: offset, far outside any corpus vocabulary's ``tok<i>`` id range, so a
#: free-form word can never collide with (or shadow) a real vocabulary token.
OOV_TOKEN_OFFSET = 1 << 61


def _stable_word_id(word: str) -> int:
    """Process-stable token id for an out-of-vocabulary word.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), which
    would make free-form query embeddings differ across restarts — breaking
    exact-cache digest replay and thread/process parity. blake2b is keyed by
    nothing, so the mapping is a pure function of the word.
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return OOV_TOKEN_OFFSET | int.from_bytes(digest, "big") % OOV_TOKEN_OFFSET


class SyntheticEncoder:
    """Hash-projection bag-of-tokens encoder.

    Parameters
    ----------
    dim:
        Output embedding dimensionality.
    seed:
        Global seed mixed into every token hash; two encoders with the same
        ``(dim, seed)`` are bit-identical functions.
    """

    def __init__(self, dim: int = DEFAULT_DIM, *, seed: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.seed = seed
        self._cache: dict[int, np.ndarray] = {}

    # -- token-level --------------------------------------------------------
    def token_vector(self, token: int) -> np.ndarray:
        """Fixed unit vector for a token id (memoised)."""
        vec = self._cache.get(token)
        if vec is None:
            rng = np.random.default_rng((self.seed << 32) ^ (int(token) + 1))
            vec = normalize(rng.normal(size=self.dim))[0].astype(np.float32)
            self._cache[token] = vec
        return vec

    def encode_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Embed one token sequence as the normalised mean token vector."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if len(tokens) == 0:
            raise ValueError("cannot encode an empty token sequence")
        acc = np.zeros(self.dim, dtype=np.float32)
        for token in tokens:
            acc += self.token_vector(int(token))
        return normalize(acc / len(tokens))[0]

    # -- text-level -----------------------------------------------------------
    @staticmethod
    def tokenize(text: str) -> np.ndarray:
        """Inverse of :meth:`Chunk.text`: parse ``tok<i>`` words to token ids.

        Unknown words hash into a *process-stable* token id (blake2b, offset
        above :data:`OOV_TOKEN_OFFSET` to stay clear of the ``tok<i>`` id
        namespace) so free-form query text is also encodable and encodes
        bit-identically across processes and hash seeds.
        """
        ids = []
        for word in text.split():
            if word.startswith("tok") and word[3:].isdigit():
                ids.append(int(word[3:]))
            else:
                ids.append(_stable_word_id(word))
        if not ids:
            raise ValueError("cannot tokenize empty text")
        return np.asarray(ids, dtype=np.int64)

    def encode_text(self, text: str) -> np.ndarray:
        """Embed free-form text."""
        return self.encode_tokens(self.tokenize(text))

    def encode_chunks(self, chunks: list[Chunk]) -> np.ndarray:
        """Embed a chunk list into an ``(n, dim)`` matrix."""
        if not chunks:
            return np.empty((0, self.dim), dtype=np.float32)
        return np.stack([self.encode_tokens(c.tokens) for c in chunks])

    def encode_batch(self, texts: list[str]) -> np.ndarray:
        """Embed a batch of texts into an ``(n, dim)`` matrix."""
        if not texts:
            return np.empty((0, self.dim), dtype=np.float32)
        return np.stack([self.encode_text(t) for t in texts])
