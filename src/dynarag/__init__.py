"""Query-aware dynamic RAG orchestration for visual question answering.

The pipeline classifies each (image, question) pair into a domain, drafts a
chain-of-thought pre-answer, routes it to one of three execution branches
(direct output, evidence verification, or full retrieval augmentation),
grounds visual entities against a mock image knowledge graph, retrieves and
fuses web evidence, filters it with a coarse-to-fine reranker and gates the
final answer behind dual verification - all under per-turn and per-session
time budgets, against fully deterministic mock backends.
"""

from .config import PipelineConfig, RerankConfig, VerifierConfig
from .encoders import HashedTextEncoder, MultiVectorQueryEncoder
from .gateway import ModelGateway, ModelRequest, ModelResponse, ScriptedBackend
from .orchestrator import Orchestrator, PipelineTrace, QueryTurn, SessionState
from .pipeline import PipelineRuntime, build_runtime
from .postanswer import TokenStats, VerifiedAnswer, white_box_verify
from .preanswer import DomainLabel, FeatureFlags, ReasoningTrace
from .reranker import AssembledContext, Chunk, ChunkScore
from .routing import Branch, RouteDecision, ToolDecision, route_search, route_tools
from .search import ImageKgIndex, KgEntry, SearchHit, WebDoc, WebSearchIndex

__version__ = "0.1.0"

__all__ = [
    "AssembledContext",
    "Branch",
    "Chunk",
    "ChunkScore",
    "DomainLabel",
    "FeatureFlags",
    "HashedTextEncoder",
    "ImageKgIndex",
    "KgEntry",
    "ModelGateway",
    "ModelRequest",
    "ModelResponse",
    "MultiVectorQueryEncoder",
    "Orchestrator",
    "PipelineConfig",
    "PipelineRuntime",
    "PipelineTrace",
    "QueryTurn",
    "ReasoningTrace",
    "RerankConfig",
    "RouteDecision",
    "ScriptedBackend",
    "SearchHit",
    "SessionState",
    "TokenStats",
    "ToolDecision",
    "VerifiedAnswer",
    "VerifierConfig",
    "WebDoc",
    "WebSearchIndex",
    "build_runtime",
    "route_search",
    "route_tools",
    "white_box_verify",
]
