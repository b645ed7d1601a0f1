"""Deterministic mock retrieval backends: web-text search and image-KG search.

Both indexes are immutable after ingest and score by exact cosine similarity
over the full corpus (desk scale; the brute-force scan is the implementation,
not an approximation). A partial selection of the k-th largest score, then an
exact sort of the candidates at or above it, orders the top k as a full sort
would: by score, ties by url ascending. The web index can interleave corpus
items flagged as hard negatives at a configurable rate to mimic retrieval
noise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .encoders import HashedTextEncoder, tokenize
from .errors import NUMBER, DimensionMismatch, IndexNotBuilt, read_jsonl, typed

WEB_RESULT_CAP = 50  # the web API returns at most 50 pages per query


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
            is_hard_negative=bool(raw.get("is_hard_negative", False)),
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
            attributes={str(k).lower(): str(v) for k, v in attributes.items()},
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


def _check_unique_urls(items) -> None:
    """Results are fused by url, so two corpus items sharing one would hide
    one of them."""
    seen: set[str] = set()
    for item in items:
        if item.url in seen:
            raise ValueError(f"duplicate url in corpus: {item.url}")
        seen.add(item.url)


def _top_k(scores: np.ndarray, urls: list[str], k: int) -> list[tuple[int, float]]:
    """The k >= 1 best positions by (-score, url), each with its score.

    Exact: the candidates are every position scoring above the k-th largest
    (finite) score plus, among the positions tied with it, the ones with the
    smallest urls, as many as the top k has room for. Only those are sorted,
    so a query that ties most of the corpus (an all-zero query vector scores
    0.0 everywhere) costs a bounded selection, not a full sort.
    """
    n = len(urls)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        candidates = np.flatnonzero(scores >= kth).tolist()
        if len(candidates) > k:
            above = np.flatnonzero(scores > kth).tolist()
            ties = np.flatnonzero(scores == kth).tolist()
            candidates = above + heapq.nsmallest(
                k - len(above), ties, key=urls.__getitem__)
    else:
        candidates = range(n)
    order = sorted(candidates, key=lambda i: (-scores[i], urls[i]))[:k]
    return [(i, float(scores[i])) for i in order]


class WebSearchIndex:
    """Cosine top-k over web docs embedded from title + snippet."""

    def __init__(self, encoder: HashedTextEncoder | None = None,
                 hard_negative_rate: float = 0.0):
        self.encoder = encoder or HashedTextEncoder()
        self.hard_negative_rate = hard_negative_rate
        # Positives and hard negatives are ranked apart, each by one GEMV over
        # its own contiguous matrix of title + snippet embeddings.
        self._pos_docs: list[WebDoc] = []
        self._neg_docs: list[WebDoc] = []
        self._pos_urls: list[str] = []
        self._neg_urls: list[str] = []
        self._pos_matrix: np.ndarray | None = None
        self._neg_matrix: np.ndarray | None = None

    @classmethod
    def ingest(cls, corpus_path: str | Path, encoder: HashedTextEncoder | None = None,
               hard_negative_rate: float = 0.0) -> "WebSearchIndex":
        index = cls(encoder, hard_negative_rate)
        index.build(read_jsonl(corpus_path, WebDoc.from_dict))
        return index

    def build(self, docs: list[WebDoc]) -> "WebSearchIndex":
        _check_unique_urls(docs)
        self._pos_docs = [d for d in docs if not d.is_hard_negative]
        self._neg_docs = [d for d in docs if d.is_hard_negative]
        self._pos_urls = [d.url for d in self._pos_docs]
        self._neg_urls = [d.url for d in self._neg_docs]
        self._pos_matrix = self._embed(self._pos_docs)
        self._neg_matrix = self._embed(self._neg_docs)
        return self

    def _embed(self, docs: list[WebDoc]) -> np.ndarray:
        encoder = self.encoder
        parts = [encoder.token_codes(tokenize(f"{d.title} {d.snippet}")) for d in docs]
        if not parts:
            return np.zeros((0, encoder.dim))
        return encoder.embed(np.concatenate(parts), [len(p) for p in parts])

    def __len__(self) -> int:
        return len(self._pos_docs) + len(self._neg_docs)

    def search(self, query: str, k: int) -> list[SearchHit]:
        if self._pos_matrix is None:
            raise IndexNotBuilt("ingest a corpus before searching")
        if k < 0:
            raise ValueError("k must be non-negative")
        k = min(k, WEB_RESULT_CAP)
        if k == 0 or not len(self):
            return []
        qvec = self.encoder.encode(query)
        # merged[:k] never holds more than k of either partition, so the top k
        # of each is enough.
        positives = [(self._pos_docs[i], score) for i, score in
                     _top_k(self._pos_matrix @ qvec, self._pos_urls, k)]
        negatives = [(self._neg_docs[i], score) for i, score in
                     _top_k(self._neg_matrix @ qvec, self._neg_urls, k)
                     ] if self.hard_negative_rate > 0 else []
        merged = _interleave(positives, negatives, self.hard_negative_rate)
        return [SearchHit(Source.WEB, score, d) for d, score in merged[:k]]


def _interleave(positives: list, negatives: list, rate: float) -> list:
    """Inject one negative after every 1/rate positives (credit accumulator).

    Once the negatives run out, the remaining positives follow uninterrupted.
    """
    if rate <= 0 or not negatives:
        return list(positives)
    out = []
    pool = iter(negatives)
    credit = 0.0
    for item in positives:
        out.append(item)
        credit += rate
        while credit >= 1.0:
            credit -= 1.0
            nxt = next(pool, None)
            if nxt is not None:
                out.append(nxt)
    return out


class ImageKgIndex:
    """Cosine top-k over knowledge-graph entries keyed by image embedding."""

    def __init__(self):
        self._entries: list[KgEntry] | None = None
        self._urls: list[str] = []
        self._matrix: np.ndarray | None = None

    @classmethod
    def ingest(cls, corpus_path: str | Path) -> "ImageKgIndex":
        index = cls()
        index.build(read_jsonl(corpus_path, KgEntry.from_dict))
        return index

    def build(self, entries: list[KgEntry]) -> "ImageKgIndex":
        _check_unique_urls(entries)
        self._entries = list(entries)
        self._urls = [e.url for e in entries]
        vectors = [e.image_embedding for e in entries]
        dim = vectors[0].shape[0] if vectors else 0
        self._matrix = np.vstack(vectors) if vectors else np.zeros((0, dim))
        return self

    def __len__(self) -> int:
        return len(self._entries) if self._entries is not None else 0

    def search(self, image_embedding: np.ndarray, k: int) -> list[SearchHit]:
        if self._entries is None:
            raise IndexNotBuilt("ingest a corpus before searching")
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0 or not self._entries:
            return []
        query = _finite(image_embedding)
        if query.shape[0] != self._matrix.shape[1]:
            raise DimensionMismatch(
                f"query dim {query.shape[0]} != index dim {self._matrix.shape[1]}"
            )
        return [
            SearchHit(Source.IMAGE_KG, score, self._entries[i])
            for i, score in _top_k(self._matrix @ query, self._urls, k)
        ]


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
            width=int(typed(raw.get("width", 640), NUMBER, "width")),
            height=int(typed(raw.get("height", 480), NUMBER, "height")),
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
    """In-memory lookup of image fixtures by image_id."""

    def __init__(self, records: list[ImageRecord] | None = None):
        self._records = {r.image_id: r for r in (records or [])}

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


def unit_embedding_for(text: str, dim: int = 256) -> np.ndarray:
    """Convenience for fixtures: deterministic unit vector from a seed string."""
    return HashedTextEncoder(dim).encode(text)
