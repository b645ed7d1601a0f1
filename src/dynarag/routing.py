"""Branch selection and retrieval-modality selection.

The search router assigns each pre-answered query to one of three execution
paths (direct output / verify against evidence / full retrieval-augmented
generation) through an ordered rule cascade over the trace flags. The tool
router replicates the published four-step decision logic locally.

Both routers are total, deterministic pure functions of their inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .config import RoutingConfig
from .preanswer import FeatureFlags, ReasoningTrace


class Branch(str, Enum):
    DIRECT_OUTPUT = "direct_output"
    SEARCH_VERIFY = "search_verify"
    RAG_AUGMENT = "rag_augment"


@dataclass(frozen=True)
class RouteDecision:
    branch: Branch
    rationale: str
    features: FeatureFlags


@dataclass(frozen=True)
class ToolDecision:
    need_image_search: bool
    need_text_search: bool
    rationale: str


def route_search(trace: ReasoningTrace) -> RouteDecision:
    """Ordered cascade; earlier rules win."""
    flags = trace.flags

    if flags.has_idk:
        return RouteDecision(
            Branch.RAG_AUGMENT,
            "pre-answer failed to determine the answer",
            flags,
        )
    if flags.open_world_cue and not flags.is_named_object:
        return RouteDecision(
            Branch.RAG_AUGMENT,
            "open-world cue without an identified object",
            flags,
        )
    if (
        (flags.is_numeric_answer or flags.is_ocr_answer)
        and not flags.speculative
        and not flags.open_world_cue
    ):
        return RouteDecision(
            Branch.DIRECT_OUTPUT,
            "self-contained numeric or OCR answer with no uncertainty",
            flags,
        )
    if flags.speculative or flags.open_world_cue:
        return RouteDecision(
            Branch.SEARCH_VERIFY,
            "answered but speculative or dependent on external facts",
            flags,
        )
    return RouteDecision(Branch.SEARCH_VERIFY, "default verification path", flags)


def _matches_any(text: str, patterns: tuple[str, ...]) -> bool:
    lowered = text.lower()
    return any(p in lowered for p in patterns)


def _excluded_category(text: str, routing: RoutingConfig) -> str | None:
    lowered = text.lower()
    words = set(re.findall(r"[a-z]+", lowered))
    for category, terms in routing.exclusion_categories.items():
        if any(term in words or (" " in term and term in lowered) for term in terms):
            return category
    return None


def route_tools(query: str, trace: ReasoningTrace, image_ref: str,
                routing: RoutingConfig) -> ToolDecision:
    """Local replica of the four-step tool decision logic."""
    combined = f"{query}\n{trace.raw_text}"

    # Step 3: analytical tasks (math, translation) retrieve nothing.
    if _matches_any(query, routing.analytic_patterns):
        return ToolDecision(
            False, False,
            "the question is a self-contained analytical task, so no retrieval is needed",
        )

    # Step 1: identity known -> no image search.
    identity_known = trace.flags.is_named_object
    need_image = not identity_known

    # Step 4: excluded categories never use image search.
    category = _excluded_category(combined, routing)
    if category is not None:
        need_image = False

    # Step 2: external facts not visible in the image -> text search.
    need_text = _matches_any(combined, routing.open_world_cues)

    if category is not None:
        rationale = (
            f"the object falls in the excluded category {category!r}, "
            f"so identification must not use image search"
        )
    elif identity_known:
        rationale = (
            f"the object is already identified as {trace.object_name or 'a specific entity'}"
        )
    else:
        rationale = "the object's specific identity is still unknown"
    if need_text:
        rationale += " and the question needs facts beyond the image"

    return ToolDecision(need_image, need_text, rationale)

