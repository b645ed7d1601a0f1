"""Assemble the full pipeline from a configuration document.

The runtime holds everything immutable (indexes, fixtures, gateway, config,
the domain classifier); ``orchestrator()`` hands out a cheap per-session
executor so sessions never share a simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import PipelineConfig
from .encoders import HashedTextEncoder, MultiVectorQueryEncoder
from .gateway import ModelGateway, ScriptedBackend
from .image_agent import FixtureEntityVerifier, ImageSearchAgent
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
    text_encoder: HashedTextEncoder
    query_encoder: MultiVectorQueryEncoder
    classifier: KeywordCentroidClassifier = field(init=False, repr=False)

    def __post_init__(self):
        self.classifier = KeywordCentroidClassifier(self.config.domains)

    def orchestrator(self, clock=None) -> Orchestrator:
        cfg = self.config
        pre = PreAnswerModule(self.gateway, self.classifier, cfg.routing)
        image_agent = ImageSearchAgent(
            gateway=self.gateway,
            kg_index=self.kg_index,
            image_store=self.image_store,
            text_encoder=self.text_encoder,
            entity_verifier=FixtureEntityVerifier(),
            entity_threshold=cfg.agents.entity_threshold,
            default_width=cfg.agents.image_width,
            default_height=cfg.agents.image_height,
        )
        text_agent = TextSearchAgent(
            gateway=self.gateway,
            web_index=self.web_index,
            k_per_query=cfg.agents.k_per_query,
            k_total=cfg.agents.k_total,
        )
        post = PostAnswerModule(self.gateway, cfg.verifier)
        return Orchestrator(
            pre_answer=pre,
            image_agent=image_agent,
            text_agent=text_agent,
            post_answer=post,
            query_encoder=self.query_encoder,
            config=cfg,
            clock=clock,
        )


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
        text_encoder=encoder,
        query_encoder=MultiVectorQueryEncoder(encoder),
    )
