"""Domain classification and the chain-of-thought pre-answer stage.

The pre-answer gives the router something to inspect: a draft answer, the
numbered reasoning steps (at most 5) and a set of feature flags extracted
deterministically from the trace text. Flag extraction is a pure function of
that text: the first reasoning step embeds the original question verbatim, so
every cue the router needs is recoverable from the trace alone.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from .config import DomainConfig, RoutingConfig
from .encoders import HashedTextEncoder, tokenize
from .gateway import TurnModel
from .prompts import CANNOT_DETERMINE, examples_for_domain

logger = logging.getLogger(__name__)

MAX_STEPS = 5

_STEP_RE = re.compile(r"^\s*(\d+)[.)]\s+(.*\S)\s*$")
_JSON_LINE_RE = re.compile(r"^\s*\{.*\}\s*$")
_OBJECT_NAME_RE = re.compile(
    r'is about is (?:the |a |an )?(?P<name>[^.\n]+?)\.?\s*$', re.IGNORECASE
)
# Double/curly quotes only: apostrophes inside words make single-quote
# pairing ambiguous.
_QUOTED_RE = re.compile(r'"[^"]*"|“[^”]*”')
# Two or more capitalized tokens of >= 2 chars each, so "Then I" never matches.
_CAP_SPAN_RE = re.compile(r"\b[A-Z][\w&-]+(?:\s+[A-Z0-9][\w&-]+)+\b")
_NUMBER_RE = re.compile(r"[-+]?\d+(?:[.,]\d+)?")
_UNIT_RE = re.compile(
    r"\d+(?:[.,]\d+)?\s*(%|°|kg|km|cm|mm|mi|ft|in|lb|mph|m\b|metres?|meters?|"
    r"grams?|seconds?|minutes?|hours?|years?|dollars?|usd|eur)",
    re.IGNORECASE,
)
_CURRENCY_RE = re.compile(r"[$€£]\s?\d")


@dataclass(frozen=True)
class DomainLabel:
    name: str
    confidence: float


@dataclass(frozen=True)
class FeatureFlags:
    has_idk: bool = False
    is_numeric_answer: bool = False
    is_ocr_answer: bool = False
    is_named_object: bool = False
    speculative: bool = False
    open_world_cue: bool = False


@dataclass
class ReasoningTrace:
    steps: list[str]
    draft_answer: str
    unanswerable: bool
    flags: FeatureFlags
    raw_text: str = ""
    token_probs: tuple[float, ...] = ()
    object_name: str | None = None


class KeywordCentroidClassifier:
    """Keyword table first, embedding-nearest-centroid as the tie-breaker.

    Totality contract: every input yields a label; empty or unmatched queries
    land on "other" at confidence 0.
    """

    def __init__(self, domains: DomainConfig, encoder: HashedTextEncoder | None = None):
        self.domains = domains
        self.encoder = encoder or HashedTextEncoder()
        labelled = [(name, words) for name, words in domains.keywords.items()
                    if name in domains.taxonomy]
        self._keywords = {name: frozenset(w.lower() for w in words)
                          for name, words in labelled}
        self._centroids = {name: self.encoder.encode(" ".join((name,) + tuple(words)))
                           for name, words in labelled}

    def classify(self, query: str) -> DomainLabel:
        tokens = set(tokenize(query))
        if not tokens:
            return DomainLabel("other", 0.0)

        hits = {name: len(tokens & words) for name, words in self._keywords.items()}
        best = max(hits, key=lambda name: (hits[name], name), default=None)
        if best is not None and hits[best] > 0:
            confidence = min(1.0, hits[best] / max(len(tokens), 1) + 0.5)
            return DomainLabel(best, confidence)

        qvec = self.encoder.encode(query)
        scored = {
            name: float(np.dot(qvec, centroid))
            for name, centroid in self._centroids.items()
        }
        best = max(scored, key=lambda name: (scored[name], name), default=None)
        if best is None or scored[best] <= 0.0:
            return DomainLabel("other", 0.0)
        return DomainLabel(best, max(0.0, min(1.0, scored[best])))


def _strip_quoted(text: str) -> str:
    return _QUOTED_RE.sub(" ", text)


def _without_json_lines(text: str) -> str:
    # The structured summary line escapes its quotes, which defeats the
    # quote-stripping pass; named-entity detection reads the steps only.
    return "\n".join(
        line for line in text.splitlines() if not _JSON_LINE_RE.match(line)
    )


def extract_object_name(trace_text: str) -> str | None:
    """Object named by the lead-in step, None when it could not be determined."""
    for line in trace_text.splitlines():
        match = _STEP_RE.match(line)
        if not match:
            continue
        body = match.group(2)
        if CANNOT_DETERMINE.lower() in body.lower():
            return None
        found = _OBJECT_NAME_RE.search(body)
        if found:
            name = found.group("name").strip().strip('"\'')
            return name or None
    return None


def is_specific_identity(name: str | None, routing: RoutingConfig) -> bool:
    """Specific identity vs generic label per the tool-selection rules."""
    if not name:
        return False
    words = name.split()
    if any(w[:1].isupper() for w in words):
        return True
    if len(words) == 1:
        return False
    head = words[-1].lower().rstrip(".,")
    return head not in {g.lower() for g in routing.generic_labels}


def extract_flags(trace_text: str, routing: RoutingConfig) -> FeatureFlags:
    """Deterministic flag extraction from the raw trace text."""
    lowered = trace_text.lower()

    has_idk = any(p in lowered for p in routing.unanswerable_phrases)
    speculative = any(p in lowered for p in routing.speculative_patterns)
    is_ocr = any(p in lowered for p in routing.ocr_patterns)

    object_name = extract_object_name(trace_text)
    named = is_specific_identity(object_name, routing)

    numeric = bool(
        _CURRENCY_RE.search(trace_text)
        or _UNIT_RE.search(trace_text)
        or _answer_is_number(trace_text)
    )

    unquoted = _strip_quoted(_without_json_lines(trace_text))
    open_world = any(c in lowered for c in routing.open_world_cues) or bool(
        _CAP_SPAN_RE.search(unquoted)
    )

    return FeatureFlags(
        has_idk=has_idk,
        is_numeric_answer=numeric,
        is_ocr_answer=is_ocr,
        is_named_object=named,
        speculative=speculative,
        open_world_cue=open_world,
    )


def _answer_is_number(trace_text: str) -> bool:
    # Numeric answers show up in the trailing JSON answer field when present.
    for line in reversed(trace_text.strip().splitlines()):
        if _JSON_LINE_RE.match(line):
            try:
                answer = str(json.loads(line).get("answer", ""))
            except ValueError:
                return False
            return bool(_NUMBER_RE.search(answer))
    return False


def parse_trace(text: str, routing: RoutingConfig,
                token_probs: tuple[float, ...] = ()) -> ReasoningTrace:
    """Parse numbered steps plus the trailing JSON summary into a trace."""
    steps: list[str] = []
    draft = ""
    parsed_json = False
    for line in text.splitlines():
        match = _STEP_RE.match(line)
        if match:
            steps.append(match.group(2))
            continue
        if _JSON_LINE_RE.match(line):
            try:
                payload = json.loads(line)
                draft = str(payload.get("answer", "")).strip()
                parsed_json = True
            except ValueError:
                continue

    if not steps and not parsed_json:
        return _conservative_trace(text, routing, token_probs)

    if len(steps) > MAX_STEPS:
        logger.warning("trace has %d steps; truncating to %d", len(steps), MAX_STEPS)
        steps = steps[:MAX_STEPS]

    flags = extract_flags(text, routing)
    unanswerable = flags.has_idk
    if not draft:
        draft = steps[-1] if steps else ""
    if unanswerable and not any(
        p in draft.lower() for p in routing.unanswerable_phrases
    ):
        draft = f"{CANNOT_DETERMINE} answer that the query is about."

    return ReasoningTrace(
        steps=steps,
        draft_answer=draft,
        unanswerable=unanswerable,
        flags=flags,
        raw_text=text,
        token_probs=token_probs,
        object_name=extract_object_name(text),
    )


def _conservative_trace(text: str, routing: RoutingConfig,
                        token_probs: tuple[float, ...]) -> ReasoningTrace:
    flags = FeatureFlags(has_idk=True)
    return ReasoningTrace(
        steps=[],
        draft_answer=f"{CANNOT_DETERMINE} answer that the query is about.",
        unanswerable=True,
        flags=flags,
        raw_text=text,
        token_probs=token_probs,
    )


@dataclass
class PreAnswerModule:
    """Domain routing plus the chain-of-thought draft answer."""

    classifier: KeywordCentroidClassifier
    routing: RoutingConfig

    def classify_domain(self, query: str) -> DomainLabel:
        return self.classifier.classify(query)

    def dcot_preanswer(self, model: TurnModel, domain: DomainLabel) -> ReasoningTrace:
        response = model.generate("evaluator", domain=domain.name,
                                  examples=examples_for_domain(domain.name))
        return parse_trace(response.text, self.routing, response.token_probs)
