"""Deterministic text encoders used by the mock retrieval and rerank stages.

The default encoder is a hashed bag-of-tokens embedding: every token is
mapped to a fixed dimension (and sign) through sha1, counts are accumulated
and the vector is L2-normalized. No model weights, fully reproducible across
processes, which is what the search-index and reranker contracts need. Real
encoders can be plugged in behind the same ``encode`` surface.

Encoding is split in two so hashing can be paid once and reused: a token's
code is its slot, plus ``dim`` when its sign is negative, and ``count_rows``
turns the codes of many rows into their signed slot counts and squared norms
with one weighted bincount: ``embed`` divides the counts by the norms, and a
web query is ranked by its counts themselves. The web corpus is counted
apart, by the per-block sort and run-reduce of ``search.WebSearchIndex.build``:
a dense docs x dim float64 matrix would take about 20 MB for a 10k-doc
corpus, while for the few rows of a query or of one doc's chunks the dense
bincount is the faster rule. Every count is a sum of +-1 and every squared
norm a sum of squared counts, all exact integers in float64 (below 2^53, so
for texts of fewer than ~9.4e7 tokens), so both rules give the same bits
whatever order the sums run in.

Codes come from ``row_codes``, which hashes each distinct token once per call
(once when the web index is built, once per doc in the chunk store) through
a dict local to the call, so they equal the codes of hashing every
occurrence. Nothing outlives the call: the encoder keeps no memo, and a
second build hashes again. The codes gather in a typed ``array.array`` of
the code dtype (2 bytes a code at the default dim, where a list slot takes
an 8-byte pointer) that the returned numpy array reads without a copy.
SHA-1 comes from CPython's own ``_sha1`` module, the implementation
``hashlib`` falls back to without OpenSSL, with the same digests; loading it
maps no OpenSSL libcrypto. Only a build without that module (some
FIPS-configured ones) takes ``hashlib.sha1``.

Evidence chunks are embedded once per doc, by the reranker's chunk store,
the first time the doc reaches the reranker: one ``embed`` call, of which the
store keeps each row's non-zero slots and values. Coarse scoring reads those
and embeds only the query, whose rows ``MultiVectorQueryEncoder.encode``
lays out: the whole question (with the image blended in) first, then one row
per non-empty token group.
"""

from __future__ import annotations

import re
import struct
from array import array
from typing import Iterable, Sequence

import numpy as np

try:
    from _sha1 import sha1
except ImportError:  # a build without CPython's own SHA-1 module
    from hashlib import sha1

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
        slot, plus ``dim`` when its sign is -1, in ``code_dtype``) and each
        row's length (int32).

        A dict local to the call hashes each distinct token once, with the
        module's ``sha1``. The codes are appended to a typed buffer, which
        the returned array shares.
        """
        dim, digest_of, unpack = self.dim, sha1, _DIGEST_HEAD.unpack_from
        memo: dict[str, int] = {}
        codes, lengths = array(self.code_dtype.char), array("i")
        append = codes.append
        for tokens in rows:
            for token in tokens:
                code = memo.get(token)
                if code is None:
                    word, flag = unpack(digest_of(token.encode("utf-8")).digest())
                    code = memo[token] = word % dim if flag & 1 else word % dim + dim
                append(code)
            lengths.append(len(tokens))
        return np.frombuffer(codes, self.code_dtype), np.frombuffer(lengths, np.int32)

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
    """Encode a (question, image) pair into at most ``n`` query vectors.

    Row 0 embeds the whole question, blended with the image embedding when
    one is given; an image of another dimension than the text encoder's
    raises ValueError. The rows after it embed round-robin token groups, one
    per group that has a token (``min(n - 1, tokens)`` of them), so different
    facets of the question land in different vectors.
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
        vectors = encoder.embed(np.concatenate(rows), [len(r) for r in rows])
        if image_embedding is not None:
            if image_embedding.shape != (encoder.dim,):
                raise ValueError(f"image embedding has shape {image_embedding.shape}, "
                                 f"not the encoder's ({encoder.dim},)")
            vectors[0] = normalize(vectors[0] + np.asarray(image_embedding, dtype=np.float64))
        return vectors
