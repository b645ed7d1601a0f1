"""Domain classification and the chain-of-thought pre-answer stage.

The pre-answer gives the router something to inspect: a draft answer, the
numbered reasoning steps (at most 5) and a set of feature flags extracted
deterministically from the trace text. Flag extraction is a pure function of
that text: the first reasoning step embeds the original question verbatim, so
every cue the router needs is recoverable from the trace alone.

A reply is read in one pass over its lines. A numbered line is a step; a
``{...}`` line is a summary line, and the last one that decodes as JSON with
a string or number ``answer`` gives both the draft answer and the
numeric-answer flag. The object name is read from every step, also past the
``MAX_STEPS`` cut.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from .config import DomainConfig, RoutingConfig
from .encoders import HashedTextEncoder, tokenize
from .errors import NUMBER, typed
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


def _object_name(steps: list[str]) -> str | None:
    """Name from the first step that names the object or says it cannot."""
    for body in steps:
        if CANNOT_DETERMINE.lower() in body.lower():
            return None
        found = _OBJECT_NAME_RE.search(body)
        if found:
            return found.group("name").strip().strip('"\'') or None
    return None


@dataclass(frozen=True)
class _Reply:
    """One pass over a reply's lines; a summary line is a ``{...}`` line."""

    steps: list[str]  # every numbered-step body, before the MAX_STEPS cut
    prose: str  # the lines that are not summary lines, joined
    answer: str | None  # answer of the last summary line that decodes
    object_name: str | None


def _read(text: str) -> _Reply:
    steps: list[str] = []
    prose: list[str] = []
    answer = None
    for line in text.splitlines():
        if _JSON_LINE_RE.match(line):
            try:
                value = json.loads(line).get("answer", "")
                answer = str(typed(value, (str, *NUMBER), "answer")).strip()
            except (ValueError, RecursionError):  # nested past the recursion limit
                pass
            continue
        prose.append(line)
        match = _STEP_RE.match(line)
        if match:
            steps.append(match.group(2))
    return _Reply(steps, "\n".join(prose), answer, _object_name(steps))


def extract_object_name(trace_text: str) -> str | None:
    """Object named by the lead-in step, None when it could not be determined."""
    return _read(trace_text).object_name


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
    return _flags(trace_text, _read(trace_text), routing)


def _flags(text: str, reply: _Reply, routing: RoutingConfig) -> FeatureFlags:
    lowered = text.lower()
    # The summary line escapes its quotes, which defeats quote stripping, so
    # named-entity spans are read from the other lines only. A quoted span
    # may cross lines: strip quotes from the joined text.
    unquoted = _QUOTED_RE.sub(" ", reply.prose)
    return FeatureFlags(
        has_idk=any(p in lowered for p in routing.unanswerable_phrases),
        is_numeric_answer=bool(
            _CURRENCY_RE.search(text) or _UNIT_RE.search(text)
            or (reply.answer and _NUMBER_RE.search(reply.answer))
        ),
        is_ocr_answer=any(p in lowered for p in routing.ocr_patterns),
        is_named_object=is_specific_identity(reply.object_name, routing),
        speculative=any(p in lowered for p in routing.speculative_patterns),
        open_world_cue=any(c in lowered for c in routing.open_world_cues)
        or bool(_CAP_SPAN_RE.search(unquoted)),
    )


def parse_trace(text: str, routing: RoutingConfig,
                token_probs: tuple[float, ...] = ()) -> ReasoningTrace:
    """Parse numbered steps plus the trailing JSON summary into a trace. A
    reply with neither is unparseable and gives the conservative trace."""
    idk_draft = f"{CANNOT_DETERMINE} answer that the query is about."
    reply = _read(text)
    if not reply.steps and reply.answer is None:
        return ReasoningTrace([], idk_draft, FeatureFlags(has_idk=True), text, token_probs)

    steps = reply.steps
    if len(steps) > MAX_STEPS:
        logger.warning("trace has %d steps; truncating to %d", len(steps), MAX_STEPS)
        steps = steps[:MAX_STEPS]

    flags = _flags(text, reply, routing)
    draft = reply.answer or (steps[-1] if steps else "")
    if flags.has_idk and not any(p in draft.lower() for p in routing.unanswerable_phrases):
        draft = idk_draft

    return ReasoningTrace(
        steps=steps,
        draft_answer=draft,
        flags=flags,
        raw_text=text,
        token_probs=token_probs,
        object_name=reply.object_name,
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
