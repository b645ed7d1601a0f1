"""Assemble the full pipeline from a configuration document.

The runtime is the one place that knows the object graph. It holds everything
a turn reads and nothing a turn writes: indexes, fixtures, gateway, config,
and the modules wired over them (domain classifier, pre-answer, both search
agents, post-answer), each built once. The modules are stateless, so every
session shares them; ``orchestrator(clock)`` pairs the runtime with a
session's own clock so sessions never share a simulated clock.
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
from .prompts import register_all
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
    pre_answer: PreAnswerModule = field(init=False, repr=False)
    image_agent: ImageSearchAgent = field(init=False, repr=False)
    text_agent: TextSearchAgent = field(init=False, repr=False)
    post_answer: PostAnswerModule = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        self.query_encoder = MultiVectorQueryEncoder(self.text_encoder)
        self.pre_answer = PreAnswerModule(
            self.gateway, KeywordCentroidClassifier(cfg.domains), cfg.routing
        )
        self.image_agent = ImageSearchAgent(
            self.gateway, self.kg_index, self.image_store, cfg.agents.entity_threshold
        )
        self.text_agent = TextSearchAgent(
            self.gateway, self.web_index, cfg.agents.k_per_query, cfg.agents.k_total
        )
        self.post_answer = PostAnswerModule(self.gateway, cfg.verifier)

    @property
    def text_encoder(self) -> HashedTextEncoder:
        """The web index's encoder: queries, documents and evidence chunks
        are embedded in one space."""
        return self.web_index.encoder

    def orchestrator(self, clock=None) -> Orchestrator:
        return Orchestrator(self, clock)


def build_runtime(config: PipelineConfig, backend=None) -> PipelineRuntime:
    """Load corpora and fixtures named in the config and wire the stack."""
    encoder = HashedTextEncoder(config.encoder.dim)
    paths = config.paths

    if backend is None:
        if paths.model_fixtures is None:
            raise ValueError("config.paths.model_fixtures is required for the mock stack")
        backend = ScriptedBackend.from_jsonl(paths.model_fixtures)
    gateway = ModelGateway(backend)
    register_all(gateway)

    web_index = (
        WebSearchIndex.ingest(paths.web_corpus, encoder, config.hard_negative.rate)
        if paths.web_corpus
        else WebSearchIndex(encoder, config.hard_negative.rate).build([])
    )
    kg_index = (
        ImageKgIndex.ingest(paths.kg_corpus) if paths.kg_corpus
        else ImageKgIndex().build([])
    )
    image_store = (
        ImageStore.from_jsonl(paths.image_fixtures) if paths.image_fixtures
        else ImageStore()
    )

    return PipelineRuntime(
        config=config,
        gateway=gateway,
        web_index=web_index,
        kg_index=kg_index,
        image_store=image_store,
    )
