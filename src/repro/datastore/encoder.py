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
import threading

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


#: Floats one accumulation block may hold: a block of chunks is at most this
#: many floats of running sums (1024 rows at dim 64), so encoding never holds
#: an ``(n, length, dim)`` gather of a whole corpus.
_BLOCK_FLOATS = 1 << 16

#: Below this many sequences per block, one ordered scan (``add.accumulate``)
#: over the gathered block beats a Python step per token position.
_SCAN_MAX_ROWS = 8


def _ordered_sums(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``0 + table[rows[i, 0]] + table[rows[i, 1]] + ...`` per row *i*.

    Every row's float32 additions run in token order starting from ``+0``,
    exactly as a per-token ``acc += vector`` loop makes them, so the sums
    are bit-identical to that loop. Many rows: one vectorised add per token
    position. Few rows: ``add.accumulate`` over windows of positions, each
    window's scan seeded with the running sum (accumulate is defined as
    that left-to-right recurrence, so the order is the same).
    """
    n, length = rows.shape
    acc = np.zeros((n, table.shape[1]), dtype=np.float32)
    if n >= _SCAN_MAX_ROWS:
        for j in range(length):
            acc += table[rows[:, j]]
        return acc
    window = max(1, _BLOCK_FLOATS // (n * table.shape[1]))
    for start in range(0, length, window):
        part = rows[:, start : start + window]
        scan = np.empty((n, part.shape[1] + 1, table.shape[1]), dtype=np.float32)
        scan[:, 0] = acc
        scan[:, 1:] = table[part]
        acc = np.add.accumulate(scan, axis=1)[:, -1]
    return acc


def _distinct(tokens: np.ndarray) -> np.ndarray:
    """Sorted distinct values of *tokens*: ids in ``[0, len(tokens))`` are
    marked in a bitmap of that size (one pass, where ``np.unique`` sorts a
    corpus' millions of tokens), the rest go through ``np.unique``."""
    small = (tokens >= 0) & (tokens < len(tokens))
    seen = np.zeros(len(tokens), dtype=bool)
    seen[tokens[small]] = True
    return np.union1d(np.flatnonzero(seen), tokens[~small])


class _TokenTable:
    """One published token table: ``ids`` ascending, ``vectors[i]`` the
    vector of ``ids[i]``, and ``dense`` the length of the prefix where
    ``ids[i] == i``. Both arrays are read-only once built."""

    def __init__(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        ids.flags.writeable = False
        vectors.flags.writeable = False
        self.ids = ids
        self.vectors = vectors
        gaps = np.flatnonzero(ids != np.arange(len(ids)))
        self.dense = int(gaps[0]) if len(gaps) else len(ids)

    def find(self, tokens: np.ndarray) -> np.ndarray | None:
        """Rows of *tokens*, or ``None`` if one of them has none."""
        sparse = (tokens < 0) | (tokens >= self.dense)
        if not sparse.any():
            return tokens
        if not len(self.ids):
            return None
        found = np.searchsorted(self.ids, tokens[sparse])
        if (self.ids[np.minimum(found, len(self.ids) - 1)] != tokens[sparse]).any():
            return None
        rows = tokens.copy()
        rows[sparse] = found
        return rows

    def extended(self, new: np.ndarray, vectors: np.ndarray) -> "_TokenTable":
        """A new table with the ids *new* (absent here) and their vectors."""
        ids = np.concatenate([self.ids, new])
        order = np.argsort(ids, kind="stable")
        return _TokenTable(ids[order], np.concatenate([self.vectors, vectors])[order])


class SyntheticEncoder:
    """Hash-projection bag-of-tokens encoder.

    Token vectors live in one contiguous table whose rows are sorted by
    token id; a batch maps its ids to rows at once and sums them with
    ordered gathers (:func:`_ordered_sums`). While the table holds every id
    ``0 .. dense - 1`` (a corpus vocabulary, once seen), such an id is its
    own row; any other id is found by ``searchsorted``. A batch's unseen ids
    are drawn together and published as a new table: a published table is
    never written, so concurrent encoders read a consistent one without a
    lock.

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
        self._table = _TokenTable(np.empty(0, dtype=np.int64), np.empty((0, dim), np.float32))
        self._grow_lock = threading.Lock()

    # -- token-level --------------------------------------------------------
    def _draw(self, tokens: np.ndarray) -> np.ndarray:
        """Unit vectors of *tokens*: one generator per id, seeded by
        ``(seed, token)`` — the mapping every encoder of this seed shares."""
        raw = [
            np.random.default_rng((self.seed << 32) ^ (int(token) + 1)).normal(size=self.dim)
            for token in tokens
        ]
        return normalize(np.stack(raw))

    def _rows(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Table rows of *tokens* and the table they index, first drawing
        the vectors of ids the table lacks."""
        table = self._table
        rows = table.find(tokens)
        if rows is None:
            with self._grow_lock:
                table = self._table
                new = np.setdiff1d(_distinct(tokens), table.ids, assume_unique=True)
                if len(new):
                    table = table.extended(new, self._draw(new))
                    self._table = table
            rows = table.find(tokens)
        return rows, table.vectors

    def token_vector(self, token: int) -> np.ndarray:
        """Fixed unit vector for a token id (a read-only row of the table)."""
        rows, vectors = self._rows(np.array([token], dtype=np.int64))
        return vectors[rows[0]]

    def _encode(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Embed token sequences into an ``(n, dim)`` matrix: each row the
        normalised mean of its token vectors, summed in token order.

        Sequences are grouped by length and encoded a block of at most
        ``_BLOCK_FLOATS // dim`` of them at a time.
        """
        out = np.empty((len(sequences), self.dim), dtype=np.float32)
        if not sequences:
            return out
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        if not lengths.all():
            raise ValueError("cannot encode an empty token sequence")
        rows, vectors = self._rows(np.concatenate(sequences).astype(np.int64, copy=False))
        starts = np.cumsum(lengths) - lengths
        block = max(1, _BLOCK_FLOATS // self.dim)
        # Python ints: an np.int64 divisor would promote the mean to float64
        for length in sorted(set(lengths.tolist())):
            group = np.flatnonzero(lengths == length)
            for b in range(0, len(group), block):
                members = group[b : b + block]
                block_rows = rows[starts[members, None] + np.arange(length)]
                out[members] = normalize(_ordered_sums(vectors, block_rows) / length)
        return out

    def encode_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Embed one token sequence as the normalised mean token vector."""
        return self._encode([np.asarray(tokens, dtype=np.int64)])[0]

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
        return self._encode([c.tokens for c in chunks])

    def encode_batch(self, texts: list[str]) -> np.ndarray:
        """Embed a batch of texts into an ``(n, dim)`` matrix."""
        return self._encode([self.tokenize(t) for t in texts])
