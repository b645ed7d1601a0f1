"""Deterministic text encoders used by the mock retrieval and rerank stages.

The default encoder is a hashed bag-of-tokens embedding: every token is
mapped to a fixed dimension (and sign) through sha1, counts are accumulated
and the vector is L2-normalized. No model weights, fully reproducible across
processes, which is what the search-index and reranker contracts need. Real
encoders can be plugged in behind the same ``encode`` surface.

Encoding is split in two so hashing can be paid once and reused: a token's
code is its slot, plus ``dim`` when its sign is negative, and ``count_rows``
turns the codes of many rows into their signed slot counts and squared norms
with one weighted bincount, the one counting rule every path shares:
``embed`` divides the counts by the norms, and a web query is ranked by its
counts themselves. Every count is a sum of +-1 and every squared norm a sum
of squared counts, all exact integers in float64 (below 2^53, so for texts
of fewer than ~9.4e7 tokens), so the result has the same bits whatever order
the sums run in.

Codes come from ``row_codes``, which hashes each distinct token once per call
(once per corpus partition when the web index is built, once per doc in the
chunk store) through a dict local to the call, so they equal the codes of
hashing every occurrence. Nothing outlives the call: the encoder keeps no
memo, and a second build hashes again.

Evidence chunks are embedded once per doc, by the reranker's chunk store,
the first time the doc reaches the reranker: one ``embed`` call, of which the
store keeps each row's non-zero slots and values. Coarse scoring reads those
and embeds only the query.
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import Iterable, Sequence

import numpy as np

DEFAULT_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")

# The first four digest bytes pick the slot, the low bit of the fifth the sign.
_DIGEST_HEAD = struct.Struct(">IB")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens; apostrophes kept inside words."""
    return _TOKEN_RE.findall(text.lower())


def normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return vec
    return vec / norm


class HashedTextEncoder:
    """Hashed bag-of-tokens text embedding, unit-norm (zero for empty text)."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("encoder dimension must be positive")
        self.dim = dim
        # Codes lie in [0, 2 * dim): the smallest unsigned type that holds them
        # (uint16 at the default dim).
        self.code_dtype = np.min_scalar_type(2 * dim - 1)
        codes = np.arange(2 * dim)
        self._slot = codes % dim
        self._sign = np.where(codes < dim, 1.0, -1.0)

    def row_codes(self, rows: Iterable[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated codes of the token rows (one code per token: its
        slot, plus ``dim`` when its sign is -1) and each row's length (int32).

        A dict local to the call hashes each distinct token once.
        """
        dim, sha1, unpack = self.dim, hashlib.sha1, _DIGEST_HEAD.unpack_from
        memo: dict[str, int] = {}
        codes: list[int] = []
        lengths: list[int] = []
        for tokens in rows:
            for token in tokens:
                code = memo.get(token)
                if code is None:
                    word, flag = unpack(sha1(token.encode("utf-8")).digest())
                    code = memo[token] = word % dim if flag & 1 else word % dim + dim
                codes.append(code)
            lengths.append(len(tokens))
        return (np.array(codes, dtype=self.code_dtype),
                np.array(lengths, dtype=np.int32))

    def count_rows(self, codes: np.ndarray,
                   lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each row's signed slot counts and its squared norm, one row per
        entry of ``lengths``, from the concatenated codes of the rows (zeros
        for rows without codes): exact integers in float64."""
        dim, rows = self.dim, len(lengths)
        if not len(codes):  # an empty weighted bincount would come back int64
            return np.zeros((rows, dim)), np.zeros(rows)
        codes = codes.astype(np.intp, copy=False)  # intp gathers run fastest
        index = self._slot[codes] + np.repeat(np.arange(0, rows * dim, dim), lengths)
        counts = np.bincount(index, weights=self._sign[codes],
                             minlength=rows * dim).reshape(rows, dim)
        return counts, np.einsum("ij,ij->i", counts, counts)

    def embed(self, codes: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
        """Unit rows: ``count_rows`` divided by their norms (zero rows stay zero)."""
        out, squares = self.count_rows(codes, lengths)
        norms = np.sqrt(squares)
        norms[norms == 0.0] = 1.0
        out /= norms[:, None]
        return out

    def encode(self, text: str) -> np.ndarray:
        return self.encode_tokens(tokenize(text))

    def encode_tokens(self, tokens: list[str]) -> np.ndarray:
        """``embed`` of one row (the benchmark's tracer wraps it by name)."""
        return self.embed(*self.row_codes([tokens]))[0]


class MultiVectorQueryEncoder:
    """Encode a (question, image) pair into ``n`` query-token vectors.

    Vector 0 embeds the whole question, blended with the image embedding when
    one is available; the remaining slots embed round-robin token groups so
    different facets of the question land in different vectors. Slots with no
    tokens fall back to the whole-question vector, keeping all ``n`` defined.
    """

    def __init__(self, text_encoder: HashedTextEncoder | None = None):
        self.text_encoder = text_encoder or HashedTextEncoder()

    def encode(
        self,
        question: str,
        image_embedding: np.ndarray | None = None,
        n: int = 8,
    ) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        encoder = self.text_encoder
        tokens = tokenize(question)
        codes = encoder.row_codes([tokens])[0]
        # The whole question and every non-empty group, hashed once, one embed.
        groups = n - 1
        rows = [codes] + [codes[j::groups] for j in range(min(groups, len(tokens)))]
        embedded = encoder.embed(np.concatenate(rows), [len(r) for r in rows])

        whole = embedded[0]
        if image_embedding is not None and image_embedding.shape == whole.shape:
            whole = normalize(whole + np.asarray(image_embedding, dtype=np.float64))
        vectors = np.tile(whole, (n, 1))
        vectors[1:len(rows)] = embedded[1:]
        return vectors
