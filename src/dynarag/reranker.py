"""Two-stage coarse-to-fine evidence filtering.

Each evidence doc is chunked and embedded once per runtime: the
``ChunkCodeStore`` keeps a doc's chunk texts, each chunk's distinct tokens
and its unit row as sparse (slot, value) entries, and ``chunk_evidence``
hands the turn its hits' entries as ``Evidence``. Stage one scores every
chunk by the maximum cosine similarity between the multi-vector query
encoding and the chunk's unit row, over the chunk's own entries, so a score
depends on the question and the chunk alone; it keeps candidates at or above
tau_coarse, then caps at the K1 best, and only those become ``Chunk``
objects. Stage two scores each survivor point-wise by question-token
recall, the share of the question's distinct tokens among the chunk's stored
tokens; chunks are ranked by the cumulative score (clamped coarse times
fine), capped at K2, and only kept while cumulative exceeds
tau_fine * tau_coarse (strict). Selected chunks are assembled into a single
provenance-annotated context string.

Both stages rank through ``search.top_k``, the rule the indexes use: by
score, equal scores in input order. The final assembly breaks ties by source
(web first) then by position inside the source document.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import RerankConfig
from .encoders import HashedTextEncoder, MultiVectorQueryEncoder, tokenize
from .search import KgEntry, SearchHit, Source, WebDoc, top_k

_TAG_RE = re.compile(r"<[^>]+>")
_HEADING_RE = re.compile(r"^\s*#{1,6}\s+\S|^[A-Z][A-Za-z0-9 ,&/-]{2,79}$")

ATTRIBUTE_SENTENCE = "The {key} of {entity} is {value}."

# Attribute keys that are fixture plumbing, not evidence.
_SKIPPED_ATTRIBUTES = frozenset({"visual_match"})


@dataclass(frozen=True)
class Chunk:
    text: str
    source: Source
    doc_url: str
    position: int
    chunk_id: str
    # The text's distinct tokens, space-joined, as the chunk store keeps them;
    # None for a chunk built elsewhere, whose text the fine stage tokenizes.
    tokens: str | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ChunkScore:
    coarse: float
    fine: float
    cumulative: float

    @classmethod
    def of(cls, coarse: float, fine: float) -> "ChunkScore":
        if not (0.0 <= fine <= 1.0):
            raise ValueError("fine score must lie in [0, 1]")
        clamped = min(1.0, max(0.0, coarse))
        return cls(coarse=coarse, fine=fine, cumulative=clamped * fine)


@dataclass(frozen=True)
class AssembledContext:
    text: str
    chunks: tuple[tuple[Chunk, ChunkScore], ...]


# --- chunking ---------------------------------------------------------------


def _strip_html(html: str) -> str:
    text = _TAG_RE.sub("\n", html)
    return "\n".join(line.strip() for line in text.splitlines())


def _split_blocks(text: str) -> list[str]:
    """Structural boundaries first: blank lines and heading-looking lines."""
    blocks: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            if current:
                blocks.append(" ".join(current))
                current = []
            continue
        if _HEADING_RE.match(stripped) and current:
            blocks.append(" ".join(current))
            current = [stripped]
        else:
            current.append(stripped)
    if current:
        blocks.append(" ".join(current))
    return blocks


def _fixed_spans(text: str, max_chars: int, overlap: int) -> list[str]:
    if len(text) <= max_chars:
        return [text]
    spans = []
    start = 0
    while True:
        end = min(start + max_chars, len(text))
        spans.append(text[start:end])
        if end >= len(text):
            return spans
        start = end - overlap


def _doc_text(doc: WebDoc) -> str:
    body = _strip_html(doc.html)
    if not body.strip():  # no html, or tags only
        body = doc.snippet
    return f"{doc.title}\n\n{body}" if doc.title else body


def _kg_paragraph(entry: KgEntry) -> str:
    sentences = [
        ATTRIBUTE_SENTENCE.format(key=key, entity=entry.entity_name, value=value)
        for key, value in entry.attributes.items()
        if key not in _SKIPPED_ATTRIBUTES
    ]
    return " ".join(sentences)


def _spans(hit: SearchHit, config: RerankConfig):
    """The hit's chunk texts in document order: structural blocks, then
    fixed-width overlapping spans, stripped, empty spans dropped."""
    if hit.source is Source.WEB:
        text = _doc_text(hit.payload)
    else:
        text = _kg_paragraph(hit.payload)
    for block in _split_blocks(text):
        for span in _fixed_spans(block, config.max_chunk_chars, config.chunk_overlap):
            span = span.strip()
            if span:
                yield span


# --- the chunk store ---------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class ChunkedDoc:
    """One evidence doc, chunked and embedded: the payload it was built from,
    each chunk's text and its distinct tokens (space-joined, in order of first
    occurrence: one string a chunk), and the chunks' unit rows, sparse.

    Row ``i`` holds the ``sizes[i]`` entries after the ``sizes[:i]`` ones in
    ``slots`` and ``values``: its non-zero slots, ascending, and the float64
    values ``HashedTextEncoder.embed`` gives them. A chunk without tokens
    keeps slot 0 with value 0.0, so every chunk owns at least one entry."""

    payload: WebDoc | KgEntry
    texts: tuple[str, ...]
    tokens: tuple[str, ...]
    slots: np.ndarray
    values: np.ndarray
    sizes: np.ndarray


class ChunkCodeStore:
    """Each evidence doc chunked once per store.

    An entry is built the first time a doc reaches the reranker and holds its
    chunk texts, each chunk's distinct tokens and its unit row as non-zero
    slots and values (``HashedTextEncoder.embed``, one call per doc): no
    ``Chunk`` objects, no dense rows. It is keyed by the chunking parameters
    and (source, url), so a web doc and a KG entry sharing a url never collide
    and one chunking never reads another's chunks. A url must name one
    payload per source for the store's lifetime, as it does in the runtime's
    immutable indexes; a hit carrying another payload raises ValueError.
    """

    def __init__(self, encoder: HashedTextEncoder):
        self.encoder = encoder
        # Slots lie in [0, dim): the smallest unsigned type that holds them.
        self._slot_dtype = np.min_scalar_type(encoder.dim - 1)
        self._docs: dict[tuple, ChunkedDoc] = {}

    def chunked(self, hit: SearchHit, config: RerankConfig) -> ChunkedDoc:
        key = (config.max_chunk_chars, config.chunk_overlap, hit.source, hit.url)
        doc = self._docs.get(key)
        if doc is None:
            doc = self._docs[key] = self.build(hit.payload, _spans(hit, config))
        elif doc.payload is not hit.payload:
            raise ValueError(f"{hit.url} names a different {hit.source.value} "
                             f"payload from the one chunked for it")
        return doc

    def build(self, payload: WebDoc | KgEntry, texts) -> ChunkedDoc:
        """The entry of ``payload`` chunked into ``texts``."""
        texts = tuple(texts)
        token_rows = [tokenize(text) for text in texts]
        rows = self.encoder.embed(*self.encoder.row_codes(token_rows))
        kept = rows != 0.0
        kept[:, 0] |= ~kept.any(axis=1)  # a zero row keeps its slot 0
        chunk, slots = np.nonzero(kept)  # row-major: each row's slots ascending
        distinct = tuple(" ".join(dict.fromkeys(tokens)) for tokens in token_rows)
        return ChunkedDoc(payload, texts, distinct,
                          slots.astype(self._slot_dtype), rows[chunk, slots],
                          np.bincount(chunk, minlength=len(texts)))


class Evidence(Sequence):
    """One turn's chunked hits, in hit order: ``len`` is their chunk count and
    ``evidence[i]`` (``evidence.chunks(indices)`` for several) builds the i-th
    ``Chunk``, so a turn builds only the chunks it keeps."""

    def __init__(self, docs: list[tuple[Source, str, ChunkedDoc]],
                 encoder: HashedTextEncoder):
        self.docs = docs
        self.encoder = encoder
        self._starts = list(accumulate((len(doc.texts) for _, _, doc in docs),
                                       initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> Chunk:
        if not 0 <= i < len(self):
            raise IndexError(f"chunk {i} of {len(self)}")
        return self.chunks([i])[0]

    def chunks(self, indices: Iterable[int]) -> list[Chunk]:
        """The chunks at ``indices``, each in range, in that order."""
        starts, docs = self._starts, self.docs
        out = []
        for i in indices:
            d = bisect_right(starts, i) - 1
            source, url, doc = docs[d]
            position = i - starts[d]
            out.append(Chunk(doc.texts[position], source, url, position,
                             f"{source.value}:{url}#{position}", doc.tokens[position]))
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every chunk's unit-row entries, chunk by chunk: their slots, their
        values, and bounds such that chunk i's are ``bounds[i]:bounds[i + 1]``."""
        docs = [doc for _, _, doc in self.docs]
        return (np.concatenate([doc.slots for doc in docs]),
                np.concatenate([doc.values for doc in docs]),
                np.concatenate([[0]] + [doc.sizes for doc in docs]).cumsum())


def chunk_evidence(hits: list[SearchHit], config: RerankConfig,
                   store: ChunkCodeStore) -> Evidence:
    """The chunks of all hits, in hit order, each doc chunked once per store;
    deterministic ids carry provenance."""
    return Evidence([(hit.source, hit.url, store.chunked(hit, config)) for hit in hits],
                    store.encoder)


# --- coarse stage -----------------------------------------------------------


def coarse_score(
    question: str,
    image_embedding: np.ndarray | None,
    evidence: Evidence,
    config: RerankConfig,
    query_encoder: MultiVectorQueryEncoder,
) -> list[tuple[Chunk, float]]:
    """Max-over-query-vectors cosine per chunk; the K1 best, kept while at or
    above tau_coarse (the same chunks as thresholding first, since the bar is
    monotone in score). Only the survivors are built as ``Chunk`` objects.

    A cosine sums the products ``qvec[s] * row[s]`` over the chunk's own
    non-zero slots, in slot order, so its bits depend on the query vector and
    the chunk alone, never on the other chunks of the turn. Query vectors
    without the image touch only the question's few slots: their products
    are gathered at those slots and added one by one (a weighted bincount).
    The image-blended vector touches every slot: its products are summed
    chunk by chunk with one ``np.add.reduceat`` (numpy's pairwise sum)."""
    n = len(evidence)
    if not n:
        return []

    qvecs = query_encoder.encode(question, image_embedding, config.n_query_tokens)
    slots, values, bounds = evidence.entries()
    # As ``MultiVectorQueryEncoder`` lays them out, rows 1..groups embed the
    # question's token groups and the rest repeat row 0.
    groups = min(len(qvecs) - 1, len(tokenize(question)))
    if image_embedding is None:
        plain = qvecs[:1 + groups]
    else:
        blended, plain = qvecs[0], qvecs[1:1 + groups]

    # ndarray methods rather than their numpy functions, which cost more a
    # call: many turns score only a few dozen chunks.
    hit = plain.any(axis=0).take(slots).nonzero()[0]
    products = plain.take(slots[hit], axis=1) * values[hit]
    index = bounds[1:].searchsorted(hit, "right") + np.arange(0, len(plain) * n, n)[:, None]
    # An empty weighted bincount comes back int64.
    scores = np.bincount(index.ravel(), products.ravel(), minlength=len(plain) * n)
    scores = scores.astype(np.float64, copy=False).reshape(len(plain), n)
    scores = scores.max(axis=0, initial=-np.inf)
    if image_embedding is not None:
        sums = np.add.reduceat(blended.take(slots) * values, bounds[:-1])
        sums += 0.0  # a sum of -0.0 products reads 0.0, as a sum from 0.0 would
        scores = np.maximum(scores, sums)

    ranked = top_k(scores, config.k1)  # by score, so those kept lead
    kept = [i for i, s in ranked if s >= config.tau_coarse]
    return list(zip(evidence.chunks(kept), (s for _, s in ranked)))


# --- fine stage ---------------------------------------------------------------


def fine_score(
    question: str,
    survivors: list[tuple[Chunk, float]],
    instruction: str,
    config: RerankConfig,
) -> list[tuple[Chunk, ChunkScore]]:
    """Point-wise rescoring by question-token recall over each chunk's stored
    tokens (its tokenized text when it has none); top-K2 by cumulative above
    the product bar. Recall reads no ``instruction``: the parameter keeps the
    place of a model scorer's prompt."""
    if not survivors:
        return []
    q_tokens = set(tokenize(question))
    scored: list[tuple[Chunk, ChunkScore]] = []
    for chunk, coarse in survivors:
        if q_tokens:
            tokens = tokenize(chunk.text) if chunk.tokens is None else chunk.tokens.split()
            fine = len(q_tokens.intersection(tokens)) / len(q_tokens)
        else:
            fine = 0.0
        scored.append((chunk, ChunkScore.of(coarse, fine)))

    bar = config.tau_fine * config.tau_coarse
    ranked = top_k(np.array([s.cumulative for _, s in scored]), config.k2)
    return [scored[i] for i, cumulative in ranked if cumulative > bar]


# --- assembly -----------------------------------------------------------------


_SOURCE_ORDER = {Source.WEB: 0, Source.IMAGE_KG: 1}


def render_chunk(chunk: Chunk) -> str:
    return f"[{chunk.source.value}:{chunk.doc_url}]\n{chunk.text}"


def assemble_context(selected: list[tuple[Chunk, ChunkScore]]) -> AssembledContext:
    """Sort by cumulative score, ties by source then document position."""
    ordered = sorted(
        selected,
        key=lambda pair: (
            -pair[1].cumulative,
            _SOURCE_ORDER[pair[0].source],
            pair[0].position,
        ),
    )
    text = "\n\n".join(render_chunk(chunk) for chunk, _ in ordered)
    return AssembledContext(text=text, chunks=tuple(ordered))


def rerank(
    question: str,
    image_embedding: np.ndarray | None,
    hits: list[SearchHit],
    config: RerankConfig,
    query_encoder: MultiVectorQueryEncoder,
    chunk_store: ChunkCodeStore,
) -> AssembledContext:
    """Full cascade from raw hits to the assembled evidence string."""
    evidence = chunk_evidence(hits, config, chunk_store)
    survivors = coarse_score(question, image_embedding, evidence, config, query_encoder)
    selected = fine_score(question, survivors, "", config)
    return assemble_context(selected)
