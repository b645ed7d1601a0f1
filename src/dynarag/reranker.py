"""Two-stage coarse-to-fine evidence filtering.

Stage one scores every chunk by the maximum cosine similarity between the
multi-vector query encoding and the chunk embedding, keeps candidates at or
above tau_coarse, then caps at the K1 best. Stage two applies a point-wise
relevance scorer; chunks are ranked by the cumulative score (clamped coarse
times fine), capped at K2, and only kept while cumulative exceeds
tau_fine * tau_coarse (strict). Selected chunks are assembled into a single
provenance-annotated context string.

Sorting is stable everywhere: equal scores preserve input order during the
cascade, and the final assembly breaks ties by source (web first) then by
position inside the source document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from .config import RerankConfig
from .encoders import HashedTextEncoder, MultiVectorQueryEncoder, tokenize
from .errors import ScorerUnavailable
from .search import KgEntry, SearchHit, Source, WebDoc

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

    @property
    def empty(self) -> bool:
        return not self.chunks


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
    body = _strip_html(doc.html) if doc.html.strip() else doc.snippet
    return f"{doc.title}\n\n{body}" if doc.title else body


def _kg_paragraph(entry: KgEntry) -> str:
    sentences = [
        ATTRIBUTE_SENTENCE.format(key=key, entity=entry.entity_name, value=value)
        for key, value in entry.attributes.items()
        if key not in _SKIPPED_ATTRIBUTES
    ]
    return " ".join(sentences)


def chunk_evidence(hits: list[SearchHit], config: RerankConfig) -> list[Chunk]:
    """Union of chunks over all hits; deterministic ids carry provenance."""
    chunks: list[Chunk] = []
    for hit in hits:
        if hit.source is Source.WEB:
            text = _doc_text(hit.payload)
        else:
            text = _kg_paragraph(hit.payload)
        source, url = hit.source, hit.url
        prefix = f"{source.value}:{url}#"
        position = 0
        for block in _split_blocks(text):
            for span in _fixed_spans(block, config.max_chunk_chars, config.chunk_overlap):
                span = span.strip()
                if not span:
                    continue
                chunks.append(
                    Chunk(
                        text=span,
                        source=source,
                        doc_url=url,
                        position=position,
                        chunk_id=f"{prefix}{position}",
                    )
                )
                position += 1
    return chunks


# --- chunk codes -----------------------------------------------------------


class ChunkCodeStore:
    """The token codes of each evidence doc's chunks, hashed once per store.

    An entry is filled the first time a doc's chunks are embedded and holds
    only their codes (``HashedTextEncoder.token_codes``, 2 bytes a token at
    the default dim) and per-chunk lengths: no text, no vectors. It is keyed
    by the chunking parameters and (source, url), so a web doc and a KG entry
    sharing a url never collide and one chunking never reads another's codes.
    A url must name one payload per source for the store's lifetime, as it
    does in the runtime's immutable indexes.
    """

    def __init__(self, encoder: HashedTextEncoder):
        self.encoder = encoder
        self._docs: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def embed(self, chunks: list[Chunk], config: RerankConfig) -> np.ndarray:
        """Unit embeddings of ``chunk_evidence(hits, config)``, one row per
        chunk, with one ``HashedTextEncoder.embed`` call."""
        chunking = (config.max_chunk_chars, config.chunk_overlap)
        codes, lengths = [], []
        for doc, run in _doc_runs(chunks):
            key = (chunking, *doc)
            entry = self._docs.get(key)
            if entry is None:
                entry = self._docs[key] = self._doc_codes(run)
            elif len(entry[1]) != len(run):
                raise ValueError(f"{len(run)} chunks of {doc[1]} do not match "
                                 f"the {len(entry[1])} stored for it")
            codes.append(entry[0])
            lengths.append(entry[1])
        return self.encoder.embed(np.concatenate(codes), np.concatenate(lengths))

    def _doc_codes(self, run: list[Chunk]) -> tuple[np.ndarray, np.ndarray]:
        parts = [self.encoder.token_codes(tokenize(chunk.text)) for chunk in run]
        return np.concatenate(parts), np.array([len(p) for p in parts], dtype=np.int32)


_doc_of = attrgetter("source", "doc_url")


def _doc_runs(chunks: list[Chunk]):
    """Each doc's (source, url) and chunks: the chunks of one (source, url) in
    a row, split again at every later position 0 (one doc hit twice)."""
    for doc, group in groupby(chunks, _doc_of):
        run = list(group)
        if run[-1].position - run[0].position == len(run) - 1:
            yield doc, run
            continue
        starts = [i for i, c in enumerate(run) if i == 0 or c.position == 0]
        for start, end in zip(starts, starts[1:] + [len(run)]):
            yield doc, run[start:end]


# --- coarse stage -----------------------------------------------------------


def coarse_score(
    question: str,
    image_embedding: np.ndarray | None,
    chunks: list[Chunk],
    config: RerankConfig,
    query_encoder: MultiVectorQueryEncoder,
    chunk_store: ChunkCodeStore,
) -> list[tuple[Chunk, float]]:
    """Max-over-query-vectors cosine per chunk; threshold then cap at K1."""
    if not chunks:
        return []

    qvecs = query_encoder.encode(question, image_embedding, config.n_query_tokens)
    scores = (qvecs @ chunk_store.embed(chunks, config).T).max(axis=0)

    survivors = [
        (chunk, float(score))
        for chunk, score in zip(chunks, scores)
        if score >= config.tau_coarse
    ]
    survivors.sort(key=lambda pair: -pair[1])  # stable: ties keep input order
    return survivors[: config.k1]


# --- fine stage ---------------------------------------------------------------


class TokenOverlapScorer:
    """Mock point-wise relevance: question-token recall inside the chunk."""

    def score(self, question: str, chunk_text: str, instruction: str = "") -> float:
        q_tokens = set(tokenize(question))
        if not q_tokens:
            return 0.0
        c_tokens = set(tokenize(chunk_text))
        return len(q_tokens & c_tokens) / len(q_tokens)


def fine_score(
    question: str,
    survivors: list[tuple[Chunk, float]],
    instruction: str,
    config: RerankConfig,
    scorer=None,
) -> list[tuple[Chunk, ChunkScore]]:
    """Point-wise rescoring; top-K2 by cumulative above the product bar."""
    if not survivors:
        return []
    scorer = scorer or TokenOverlapScorer()

    scored: list[tuple[Chunk, ChunkScore]] = []
    for chunk, coarse in survivors:
        try:
            fine = float(scorer.score(question, chunk.text, instruction))
        except ScorerUnavailable:
            fine = min(1.0, max(0.0, coarse))
        scored.append((chunk, ChunkScore.of(coarse, fine)))

    scored.sort(key=lambda pair: -pair[1].cumulative)  # stable
    bar = config.tau_fine * config.tau_coarse
    return [(c, s) for c, s in scored[: config.k2] if s.cumulative > bar]


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
    instruction: str = "",
    scorer=None,
) -> AssembledContext:
    """Full cascade from raw hits to the assembled evidence string."""
    chunks = chunk_evidence(hits, config)
    survivors = coarse_score(
        question, image_embedding, chunks, config, query_encoder, chunk_store
    )
    selected = fine_score(question, survivors, instruction, config, scorer)
    return assemble_context(selected)
