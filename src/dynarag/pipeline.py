"""Assemble the full pipeline from a configuration document.

The runtime is the one place that knows the object graph. It holds everything
a turn reads: indexes, fixtures, gateway, config, and the modules wired over
them (domain classifier, pre-answer, both search agents, post-answer), each
built once. The modules are stateless, so every session shares them. None of
them holds the gateway: the orchestrator binds it to each turn's context (a
``gateway.TurnModel``) and hands that binding to the modules it runs. The one
thing a turn writes is the reranker's chunk store: each evidence doc's chunk
texts, token sets and sparse unit rows, built the first time the doc reaches
the reranker from the immutable indexes' payloads, so no turn's result
depends on which turns ran before it.
``orchestrator(clock)`` pairs the runtime with a session's own clock so
sessions never share a simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import PipelineConfig
from .encoders import HashedTextEncoder, MultiVectorQueryEncoder
from .gateway import ModelGateway, ScriptedBackend
from .image_agent import ImageSearchAgent
from .orchestrator import Orchestrator
from .postanswer import PostAnswerModule
from .preanswer import KeywordCentroidClassifier, PreAnswerModule
from .reranker import ChunkCodeStore
from .search import ImageKgIndex, ImageStore, WebSearchIndex
from .text_agent import TextSearchAgent


@dataclass
class PipelineRuntime:
    config: PipelineConfig
    gateway: ModelGateway
    web_index: WebSearchIndex
    kg_index: ImageKgIndex
    image_store: ImageStore
    query_encoder: MultiVectorQueryEncoder = field(init=False, repr=False)
    chunk_store: ChunkCodeStore = field(init=False, repr=False)
    pre_answer: PreAnswerModule = field(init=False, repr=False)
    image_agent: ImageSearchAgent = field(init=False, repr=False)
    text_agent: TextSearchAgent = field(init=False, repr=False)
    post_answer: PostAnswerModule = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        self._check_dims()
        self.query_encoder = MultiVectorQueryEncoder(self.text_encoder)
        self.chunk_store = ChunkCodeStore(self.text_encoder)
        self.pre_answer = PreAnswerModule(
            KeywordCentroidClassifier(cfg.domains, self.text_encoder), cfg.routing)
        self.image_agent = ImageSearchAgent(self.kg_index, self.image_store,
                                            cfg.agents.entity_threshold)
        self.text_agent = TextSearchAgent(self.web_index, cfg.agents.k_per_query,
                                          cfg.agents.k_total)
        self.post_answer = PostAnswerModule(cfg.verifier)

    def _check_dims(self):
        """One embedding dimension per runtime, ``config.encoder.dim``: an
        image embedding, whole or per region, is searched against the KG rows
        and blended into the question's vector. A KG row or an image of
        another dimension raises ValueError naming it."""
        dim = self.config.encoder.dim
        # build gave every KG row the first entry's dimension.
        first = next(iter(self.kg_index), None)
        if first is not None and first.image_embedding.shape[0] != dim:
            _wrong_dim(f"kg entry {first.url}: image_embedding",
                       first.image_embedding.shape[0], dim)
        for record in self.image_store:
            for vector in (record.whole_embedding, *(r["embedding"] for r in record.regions)):
                if vector.shape[0] != dim:
                    _wrong_dim(f"image {record.image_id}: embedding", vector.shape[0], dim)

    @property
    def text_encoder(self) -> HashedTextEncoder:
        """The web index's encoder: queries, documents and evidence chunks
        are embedded in one space."""
        return self.web_index.encoder

    def orchestrator(self, clock=None) -> Orchestrator:
        return Orchestrator(self, clock)


def _wrong_dim(name: str, got: int, dim: int):
    raise ValueError(f"{name} has dim {got}, not the encoder's {dim}")


def build_runtime(config: PipelineConfig) -> PipelineRuntime:
    """Load corpora and fixtures named in the config and wire the stack."""
    encoder = HashedTextEncoder(config.encoder.dim)
    paths = config.paths
    if paths.model_fixtures is None:
        raise ValueError("config.paths.model_fixtures is required for the mock stack")
    backend = ScriptedBackend.from_jsonl(paths.model_fixtures)

    web_index = (
        WebSearchIndex.ingest(paths.web_corpus, encoder, config.hard_negative.rate)
        if paths.web_corpus
        else WebSearchIndex(encoder, config.hard_negative.rate)
    )
    kg_index = ImageKgIndex.ingest(paths.kg_corpus) if paths.kg_corpus else ImageKgIndex()
    image_store = (
        ImageStore.from_jsonl(paths.image_fixtures) if paths.image_fixtures
        else ImageStore()
    )

    return PipelineRuntime(
        config=config,
        gateway=ModelGateway(backend),
        web_index=web_index,
        kg_index=kg_index,
        image_store=image_store,
    )
