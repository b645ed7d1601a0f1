"""Deterministic mock retrieval backends: web-text search and image-KG search.

Both indexes are immutable after ingest and rank the full corpus exactly (desk
scale; the brute-force scan is the implementation, not an approximation). A
new index holds the empty corpus, which finds no hits, until ``build``
replaces it. Each holds its corpus sorted by url, so ties by position are ties
by url, and one ``top_k`` (a partial selection of the k-th largest score, then
an exact sort of the candidates at or above it) ranks every list, the
reranker's two stages included, as a full sort by (-score, position) would. A
KG score is a per-row reduction (``np.einsum``, no BLAS call), so it depends
on the query and the entry alone. The KG search scores only the rows that can
reach the top k: a float32 BLAS product with a rigorous error bound filters
the rows (see ``_error_scale``), and the einsum scores the survivors, the
refine step of FAISS's ``IndexRefineFlat`` (Johnson, Douze and Jegou,
arXiv:1702.08734). The bound holds for any summation order, so the kept set,
and with it every hit and score bit, is independent of the BLAS kernel and
its thread count. The web index can interleave corpus items flagged as hard
negatives at a configurable rate to mimic retrieval noise.

The web index keeps each doc's signed hashed-token counts as integer slot
postings (an inverted file, Zobel & Moffat, ACM Computing Surveys 2006) and
ranks by the exact cosine: a query with slot counts ``q`` (sparse, read from
its token codes) scores a doc with counts ``d`` by ``dot * |dot| / nn``, where
``dot = q . d`` and ``nn = d . d`` are exact integers, so the key is one
correctly rounded division. Only docs with ``dot > 0`` are ranked when there
are at least k of them: no other key can pass theirs. Docs with
equal exact cosines get equal keys and fall in url order. The reported score
is ``sign * sqrt(|key| / nq)`` with ``nq = q . q``, so tied docs carry equal
scores. Exactness bound: two different ratios ``dot**2 / nn`` differ by at
least ``1 / nn_max**2`` and are at most ``nq`` (Cauchy-Schwarz), and one
rounding moves a value by at most ``nq * 2**-53``, so ``nq * nn_max**2 <
2**52`` keeps different keys apart; ``2**50`` also leaves room for the score's
three roundings, so different cosines keep different scores, in key order. A
doc beyond the bound at build, or a query beyond it at search, raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .encoders import HashedTextEncoder, tokenize
from .errors import NUMBER, DimensionMismatch, read_jsonl, typed

WEB_RESULT_CAP = 50  # the web API returns at most 50 pages per query
# The exactness bound on nq * nn_max**2 (see the module docstring).
EXACT_LIMIT = 2 ** 50


class Source(str, Enum):
    IMAGE_KG = "image_kg"
    WEB = "web"


@dataclass(frozen=True)
class WebDoc:
    url: str
    title: str
    snippet: str
    html: str = ""
    timestamp: str = ""
    is_hard_negative: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "WebDoc":
        doc = cls(
            url=raw["url"],
            title=raw.get("title", ""),
            snippet=raw["snippet"],
            html=raw.get("html", ""),
            timestamp=raw.get("timestamp", ""),
            is_hard_negative=typed(raw.get("is_hard_negative", False), bool,
                                   "is_hard_negative"),
        )
        for name in ("url", "title", "snippet", "html", "timestamp"):
            typed(getattr(doc, name), str, name)
        if not doc.snippet:
            raise ValueError("snippet must be non-empty")
        return doc

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "title": self.title,
            "snippet": self.snippet,
            "html": self.html,
            "timestamp": self.timestamp,
            "is_hard_negative": self.is_hard_negative,
        }


@dataclass(frozen=True)
class KgEntry:
    """The image embedding must be finite and of unit norm within 1e-9
    (ValueError otherwise), however the entry is built."""

    entity_name: str
    url: str
    image_embedding: np.ndarray
    attributes: dict[str, str]  # insertion-ordered, lowercase keys

    def __post_init__(self):
        embedding = _finite(self.image_embedding)
        norm = float(np.linalg.norm(embedding))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"embedding norm {norm} is not 1 within 1e-9")
        object.__setattr__(self, "image_embedding", embedding)

    @classmethod
    def from_dict(cls, raw: dict) -> "KgEntry":
        attributes = typed(raw.get("attributes", {}), dict, "attributes")
        return cls(
            entity_name=typed(raw["entity_name"], str, "entity_name"),
            url=typed(raw["url"], str, "url"),
            image_embedding=raw["image_embedding"],
            attributes={str(k).lower(): str(typed(v, (str, *NUMBER, bool), f"attributes.{k}"))
                        for k, v in attributes.items()},
        )

    def to_dict(self) -> dict:
        return {
            "entity_name": self.entity_name,
            "url": self.url,
            "image_embedding": [float(x) for x in self.image_embedding],
            "attributes": dict(self.attributes),
        }


@dataclass(frozen=True)
class SearchHit:
    source: Source
    score: float
    payload: WebDoc | KgEntry

    @property
    def url(self) -> str:
        return self.payload.url


def fuse_hits(result_lists, k: int) -> list[SearchHit]:
    """Merge several searches into one list: each url once, with its best
    score, ordered as the indexes order hits (score desc, url asc), cut to k."""
    best: dict[str, SearchHit] = {}
    for hits in result_lists:
        for hit in hits:
            current = best.get(hit.url)
            if current is None or hit.score > current.score:
                best[hit.url] = hit
    return sorted(best.values(), key=lambda h: (-h.score, h.url))[:k]


def _finite(values) -> np.ndarray:
    """Embedding as a float64 vector; anything but a flat sequence of finite
    numbers raises ValueError."""
    try:
        array = np.asarray(values, dtype=np.float64)
    except TypeError:
        raise ValueError("embedding is not a list of numbers") from None
    if array.ndim != 1:
        raise ValueError("embedding is not a flat list of numbers")
    if not np.isfinite(array).all():
        raise ValueError("embedding has non-finite values")
    return array


def _bbox(values) -> tuple:
    """A region's (x, y, w, h): exactly four numbers, else ValueError."""
    if len(typed(values, list, "bbox")) != 4 or not all(isinstance(v, NUMBER) for v in values):
        raise ValueError("bbox: expected four numbers")
    return tuple(values)


def _side(value, name: str) -> int:
    """An image side in pixels: a whole number > 0, else ValueError."""
    if not (typed(value, NUMBER, name) > 0 and int(value) == value):  # int(inf) raises
        raise ValueError(f"{name} must be a whole number > 0, got {value}")
    return int(value)


def _url_ordered(items: list) -> list:
    """``items`` sorted by url, so ties by position are ties by url. Results
    are fused by url, so two corpus items sharing one would hide one of them:
    a duplicate url raises ValueError."""
    ordered = sorted(items, key=lambda item: item.url)
    for a, b in zip(ordered, ordered[1:]):
        if a.url == b.url:
            raise ValueError(f"duplicate url in corpus: {a.url}")
    return ordered


def top_k(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The k >= 1 best positions by (-score, position), each with its score.

    Exact: the candidates are every position scoring above the k-th largest
    (finite) score plus, among the positions tied with it, the lowest ones,
    as many as the top k has room for. One pass finds every position at or
    above the k-th score; the split into the two happens inside that set.
    Only the candidates are sorted, so a query that ties most of the corpus
    (an all-zero query vector scores 0.0 everywhere) costs a bounded
    selection, not a full sort.
    """
    n = len(scores)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        candidates = np.flatnonzero(scores >= kth)
        if len(candidates) > k:  # ties at the k-th score: the lowest positions
            above = scores[candidates] > kth
            candidates = np.concatenate(
                [candidates[above], candidates[~above][: k - np.count_nonzero(above)]])
    else:
        candidates = np.arange(n)
    order = candidates[np.lexsort((candidates, -scores[candidates]))]
    return list(zip(order.tolist(), scores[order].tolist()))


@dataclass(frozen=True)
class SlotPostings:
    """One partition of the web corpus as signed slot counts, by slot (CSC).

    Slot ``s`` holds the docs ``ids[indptr[s]:indptr[s + 1]]``, ascending,
    with their non-zero counts ``counts[indptr[s]:indptr[s + 1]]``. ``nn`` is
    each doc's squared norm, the exact integer sum of its squared counts (1
    for a doc without tokens, whose dot products are all 0). Every count obeys
    ``count**2 <= nn < 2**25``, so it fits an int16. ``docs`` come in url
    order, so docs with equal keys fall by url in ``top``.
    """

    docs: list[WebDoc]
    indptr: list[int]
    ids: np.ndarray     # int32
    counts: np.ndarray  # int16
    nn: np.ndarray      # float64 holding exact integers
    max_nq: int         # the largest query squared norm ranked exactly

    @classmethod
    def build(cls, docs: list[WebDoc], encoder: HashedTextEncoder) -> "SlotPostings":
        dim, n = encoder.dim, len(docs)
        codes, lengths = encoder.row_codes(tokenize(f"{d.title} {d.snippet}") for d in docs)
        # The codes come doc by doc, so a stable sort by slot keeps each slot's
        # docs ascending: every (slot, doc) pair is one run of tokens, and the
        # runs in order are the CSC entries.
        order = np.argsort(codes % dim, kind="stable")
        codes, ids = codes[order], np.repeat(np.arange(n, dtype=np.int32), lengths)[order]
        slots = codes % dim
        run = np.ones(len(codes), dtype=bool)
        run[1:] = (slots[1:] != slots[:-1]) | (ids[1:] != ids[:-1])
        starts = np.flatnonzero(run)
        counts = np.add.reduceat(np.where(codes < dim, np.int32(1), np.int32(-1)), starts)
        starts, counts = starts[counts != 0], counts[counts != 0].astype(np.float64)
        slots, ids = slots[starts], ids[starts]
        nn = np.bincount(ids, weights=counts * counts, minlength=n)
        nn_max = int(nn.max()) if n else 0
        if nn_max * nn_max >= EXACT_LIMIT:
            raise ValueError(f"a doc's squared norm {nn_max} is too large for exact "
                             f"ranking (at most {math.isqrt(EXACT_LIMIT - 1)})")
        nn[nn == 0] = 1.0
        return cls(docs=docs, indptr=np.searchsorted(slots, np.arange(dim + 1)).tolist(),
                   ids=ids, counts=counts.astype(np.int16), nn=nn,
                   max_nq=(EXACT_LIMIT - 1) // max(nn_max, 1) ** 2)

    def top(self, query: dict[int, int], nq: int, k: int) -> list[tuple[WebDoc, float]]:
        """The k >= 1 best docs for a query's non-zero slot counts ``query``
        (squared norm ``nq``), by exact cosine, ties by url, with their scores."""
        if nq > self.max_nq:
            raise ValueError(f"a query of squared norm {nq} is too long for exact "
                             f"ranking (at most {self.max_nq})")
        ids, counts, indptr = self.ids, self.counts, self.indptr
        hit, weights = [], []
        for slot, count in query.items():
            lo, hi = indptr[slot], indptr[slot + 1]
            hit.append(ids[lo:hi])
            weights.append(counts[lo:hi] if count == 1 else counts[lo:hi] * float(count))
        # Every partial sum is at most sqrt(nq * nn) < 2**25: exact in float64.
        dot = np.bincount(np.concatenate(hit), np.concatenate(weights),
                          minlength=len(self.docs)) if hit else np.zeros(len(self.docs))
        nn, rows = self.nn, range(len(self.docs))
        # A doc with dot <= 0 has a key <= 0 and cannot pass a positive one:
        # with k positive dot products, the top k is among them. The subset
        # keeps ascending positions, so ties still fall in url order.
        positive = np.flatnonzero(dot > 0)
        if len(positive) >= k:
            dot, nn, rows = dot[positive], nn[positive], positive
        keys = dot * np.abs(dot) / nn
        return [(self.docs[rows[i]],
                 math.copysign(math.sqrt(abs(key) / nq), key) if nq else 0.0)
                for i, key in top_k(keys, k)]


class WebSearchIndex:
    """Exact cosine top-k over web docs' title + snippet token counts."""

    def __init__(self, encoder: HashedTextEncoder | None = None,
                 hard_negative_rate: float = 0.0):
        self.encoder = encoder or HashedTextEncoder()
        self.hard_negative_rate = hard_negative_rate
        # Positives and hard negatives are ranked apart, each over its own
        # postings.
        self._positives: SlotPostings
        self._negatives: SlotPostings
        self.build([])

    @classmethod
    def ingest(cls, corpus_path: str | Path, encoder: HashedTextEncoder | None = None,
               hard_negative_rate: float = 0.0) -> "WebSearchIndex":
        index = cls(encoder, hard_negative_rate)
        index.build(read_jsonl(corpus_path, WebDoc.from_dict))
        return index

    def build(self, docs: list[WebDoc]) -> "WebSearchIndex":
        docs = _url_ordered(docs)
        self._positives = SlotPostings.build(
            [d for d in docs if not d.is_hard_negative], self.encoder)
        self._negatives = SlotPostings.build(
            [d for d in docs if d.is_hard_negative], self.encoder)
        return self

    def __len__(self) -> int:
        return len(self._positives.docs) + len(self._negatives.docs)

    def search(self, query: str, k: int) -> list[SearchHit]:
        if k < 0:
            raise ValueError("k must be non-negative")
        k = min(k, WEB_RESULT_CAP)
        if k == 0 or not len(self):
            return []
        counts, nq = _slot_counts(self.encoder.row_codes([tokenize(query)])[0],
                                  self.encoder.dim)
        # merged[:k] never holds more than k of either partition, so the top k
        # of each is enough.
        positives = self._positives.top(counts, nq, k)
        negatives = (self._negatives.top(counts, nq, k)
                     if self.hard_negative_rate > 0 else [])
        merged = _interleave(positives, negatives, self.hard_negative_rate)
        return [SearchHit(Source.WEB, score, d) for d, score in merged[:k]]


def _slot_counts(codes: np.ndarray, dim: int) -> tuple[dict[int, int], int]:
    """A query's non-zero signed slot counts, ``{slot: count}``, and its
    squared norm, from its token codes (a code is its slot, plus ``dim`` for
    sign -1)."""
    counts: dict[int, int] = {}
    for code in codes.tolist():
        if code < dim:
            counts[code] = counts.get(code, 0) + 1
        else:
            counts[code - dim] = counts.get(code - dim, 0) - 1
    counts = {slot: count for slot, count in counts.items() if count}
    return counts, sum(count * count for count in counts.values())


def _interleave(positives: list, negatives: list, rate: float) -> list:
    """Inject one negative after every 1/rate positives (credit accumulator).

    Once the negatives run out, the remaining positives follow uninterrupted,
    so the loop ends even at a rate where ``credit -= 1.0`` changes nothing.
    """
    if rate <= 0 or not negatives:
        return list(positives)
    out = []
    pool = iter(negatives)
    credit = 0.0
    for i, item in enumerate(positives):
        out.append(item)
        credit += rate
        while credit >= 1.0:
            credit -= 1.0
            nxt = next(pool, None)
            if nxt is None:
                return out + positives[i + 1:]
            out.append(nxt)
    return out


class ImageKgIndex:
    """Cosine top-k over knowledge-graph entries keyed by image embedding."""

    def __init__(self):
        self._entries: list[KgEntry]
        self._matrix: np.ndarray    # float64, read-only: the scores' source
        self._matrix32: np.ndarray  # float32 copy: the filter's
        self._norms: np.ndarray     # each row's norm
        self.build([])

    @classmethod
    def ingest(cls, corpus_path: str | Path) -> "ImageKgIndex":
        index = cls().build(read_jsonl(corpus_path, KgEntry.from_dict))
        # The entries are the index's own: each holds its row of the matrix,
        # not a second copy of it.
        for entry, row in zip(index._entries, index._matrix):
            object.__setattr__(entry, "image_embedding", row)
        return index

    def build(self, entries: list[KgEntry]) -> "ImageKgIndex":
        """Every entry's image embedding must have the first entry's dimension
        (ValueError naming the first url, in url order, that differs)."""
        entries = _url_ordered(entries)
        vectors = [e.image_embedding for e in entries]
        dim = vectors[0].shape[0] if vectors else 0
        for entry, vector in zip(entries, vectors):
            if vector.shape[0] != dim:
                raise ValueError(f"kg entry {entry.url}: image_embedding has dim "
                                 f"{vector.shape[0]}, not the KG's {dim}")
        matrix = np.vstack(vectors) if vectors else np.zeros((0, dim))
        matrix.flags.writeable = False
        self._entries, self._matrix = entries, matrix
        self._matrix32 = matrix.astype(np.float32)
        self._norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        return self

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        """The entries in url order."""
        return iter(self._entries)

    def search(self, image_embedding: np.ndarray, k: int) -> list[SearchHit]:
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0 or not self._entries:
            return []
        query = _finite(image_embedding)
        if query.shape[0] != self._matrix.shape[1]:
            raise DimensionMismatch(
                f"query dim {query.shape[0]} != index dim {self._matrix.shape[1]}"
            )
        rows = self._candidates(query, k)
        if rows is None:
            matrix, rows = self._matrix, range(len(self._entries))
        else:
            matrix = self._matrix[rows]
        return [
            SearchHit(Source.IMAGE_KG, score, self._entries[rows[i]])
            for i, score in top_k(np.einsum("ij,j->i", matrix, query), k)
        ]

    def _candidates(self, query: np.ndarray, k: int) -> np.ndarray | None:
        """The ascending rows that can reach the query's top k, from a float32
        filter (see ``_error_scale``), or None for every row: when k covers
        the corpus, or when the query is too large for float32 to hold its
        products (a component above 2**64)."""
        n, dim = self._matrix.shape
        if k >= n or np.abs(query).max() > 2.0 ** 64:
            return None
        q_norm = math.sqrt(np.einsum("i,i->", query, query))
        scale = _error_scale(dim) * q_norm
        if not math.isfinite(scale):
            return None
        approx = self._matrix32 @ query.astype(np.float32)
        # The absolute term covers float32 underflow (see ``_error_scale``).
        bound = self._norms * scale + 2.0 ** -122 * dim * (1 + self._norms.max() + q_norm)
        lower = approx - bound
        floor = np.partition(lower, n - k)[n - k]
        return np.flatnonzero(approx + bound >= floor)


def _error_scale(dim: int) -> float:
    """``c`` such that ``c * |m| * |q|`` (plus an absolute underflow term)
    bounds how far a float32 dot product of a KG row ``m`` and a query ``q``
    lies from their float64 ``einsum`` score, whatever the summation order.

    Rounding both vectors to float32 and summing ``dim`` float32 products
    errs by at most ``gamma(dim + 2) * |m| * |q|``, ``gamma(j) = j*u / (1 -
    j*u)`` with ``u = 2**-24`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3.1), for any order of the sum, so for
    any BLAS kernel and thread count. The ``(dim + 8) * 2**-50`` term covers
    the float64 einsum's own rounding (``gamma(dim)`` with ``u = 2**-53``)
    and the float64 arithmetic of the norms and the bounds. Underflow breaks
    the relative model: each float32 conversion, product or sum below
    ``2**-126`` may be flushed to zero, an absolute error of at most
    ``2**-126`` apiece, which the search's ``2**-122 * dim * (1 + |m| + |q|)``
    covers. Past ``(dim + 2) * u >= 1/2`` there is no bound (inf).
    """
    g = (dim + 2) * 2.0 ** -24
    return g / (1 - g) + (dim + 8) * 2.0 ** -50 if g < 0.5 else math.inf


@dataclass
class ImageRecord:
    """Fixture entry for one image: whole embedding plus annotated regions.

    Every embedding, whole and per region, must be finite (ValueError)."""

    image_id: str
    whole_embedding: np.ndarray
    regions: list[dict] = field(default_factory=list)
    width: int = 640
    height: int = 480

    def __post_init__(self):
        self.whole_embedding = _finite(self.whole_embedding)
        self.regions = [{**r, "embedding": _finite(r["embedding"])} for r in self.regions]

    @classmethod
    def from_dict(cls, raw: dict) -> "ImageRecord":
        regions = typed(raw.get("regions", []), list, "regions")
        return cls(
            image_id=typed(raw["image_id"], str, "image_id"),
            whole_embedding=raw["whole_embedding"],
            regions=[
                {
                    "label": typed(r["label"], str, "label"),
                    "bbox": _bbox(r["bbox"]),
                    "embedding": r["embedding"],
                    "confidence": float(typed(r.get("confidence", 1.0), NUMBER, "confidence")),
                }
                for r in (typed(r, dict, "region") for r in regions)
            ],
            width=_side(raw.get("width", 640), "width"),
            height=_side(raw.get("height", 480), "height"),
        )

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "whole_embedding": [float(x) for x in self.whole_embedding],
            "regions": [
                {
                    "label": r["label"],
                    "bbox": list(r["bbox"]),
                    "embedding": [float(x) for x in r["embedding"]],
                    "confidence": r.get("confidence", 1.0),
                }
                for r in self.regions
            ],
            "width": self.width,
            "height": self.height,
        }


class ImageStore:
    """In-memory lookup of image fixtures by image_id. Two records sharing
    an id would hide one of them: a duplicate id raises ValueError."""

    def __init__(self, records: list[ImageRecord] | None = None):
        self._records: dict[str, ImageRecord] = {}
        for record in records or []:
            if record.image_id in self._records:
                raise ValueError(f"duplicate image_id in image fixtures: {record.image_id}")
            self._records[record.image_id] = record

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ImageStore":
        return cls(read_jsonl(path, ImageRecord.from_dict))

    def get(self, image_id: str) -> ImageRecord | None:
        return self._records.get(image_id)

    def embedding(self, image_id: str) -> np.ndarray | None:
        record = self._records.get(image_id)
        return record.whole_embedding if record is not None else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())


def unit_embedding_for(text: str, dim: int = 256) -> np.ndarray:
    """Convenience for fixtures: deterministic unit vector from a seed string."""
    return HashedTextEncoder(dim).encode(text)
