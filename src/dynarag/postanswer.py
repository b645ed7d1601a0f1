"""Final answer generation gated by dual verification.

The generator produces a two-part (reason, answer) output plus token
statistics. Acceptance requires both gates: the white-box check, a linear
threshold over the minimum and mean token probabilities, and the model-based
verdict parsed from the "**Response:**" line. Anything else falls back to
"I don't know" - the hallucination-conservative choice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .config import VerifierConfig
from .gateway import FIXTURE_KEY_SLOT, ModelGateway, ModelRequest
from .timing import TimeBudget

FALLBACK_ANSWER = "I don't know"

_REASON_RE = re.compile(r"^\s*reason\s*:\s*(.*)$", re.IGNORECASE)
_ANSWER_RE = re.compile(r"^\s*answer\s*:\s*(.*)$", re.IGNORECASE)
_VERDICT_RE = re.compile(r"\*\*Response:\*\*\s*(correct|incorrect)\s+answer", re.IGNORECASE)


class Verdict(str, Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"


@dataclass(frozen=True)
class TokenStats:
    s_min: float
    s_mean: float
    count: int

    @classmethod
    def from_probs(cls, probs) -> "TokenStats":
        seq = list(probs)
        if not seq:
            raise ValueError("token probability sequence must be non-empty")
        return cls(s_min=min(seq), s_mean=sum(seq) / len(seq), count=len(seq))


@dataclass(frozen=True)
class VerifiedAnswer:
    reason: str
    answer: str
    stats: TokenStats
    white_box_pass: bool
    model_verdict: Verdict
    final_answer: str
    fallback: bool


def white_box_verify(stats: TokenStats, cfg: VerifierConfig) -> bool:
    """Linear threshold over token-probability statistics."""
    score = cfg.w_min * stats.s_min + cfg.w_mean * stats.s_mean
    return score >= cfg.tau_white


def parse_generation(text: str) -> tuple[str, str]:
    """Split the two-part output; unparseable text becomes the answer."""
    reason = None
    answer = None
    for line in text.splitlines():
        match = _REASON_RE.match(line)
        if match and reason is None:
            reason = match.group(1).strip()
            continue
        match = _ANSWER_RE.match(line)
        if match and answer is None:
            answer = match.group(1).strip()
    if answer is None:
        return "", text.strip()
    reason = reason or ""
    if FALLBACK_ANSWER.lower() in reason.lower():
        answer = FALLBACK_ANSWER
    return reason, answer


def parse_verdict(text: str) -> Verdict:
    """Conservative: anything but an explicit correct verdict is incorrect."""
    match = _VERDICT_RE.search(text)
    if match and match.group(1).lower() == "correct":
        return Verdict.CORRECT
    return Verdict.INCORRECT


def finalize(reason: str, answer: str, stats: TokenStats,
             white_box_pass: bool, verdict: Verdict) -> VerifiedAnswer:
    """Accept only when both verifiers agree; otherwise fall back."""
    accepted = white_box_pass and verdict is Verdict.CORRECT
    return VerifiedAnswer(
        reason=reason,
        answer=answer,
        stats=stats,
        white_box_pass=white_box_pass,
        model_verdict=verdict,
        final_answer=answer if accepted else FALLBACK_ANSWER,
        fallback=not accepted,
    )


@dataclass
class PostAnswerModule:
    gateway: ModelGateway
    verifier_cfg: VerifierConfig

    def generate_answer(
        self,
        question: str,
        image_ref: str | None,
        context_text: str,
        fixture_key: str = "",
        history: str = "",
        budget: TimeBudget | None = None,
    ) -> tuple[str, str, TokenStats]:
        request = ModelRequest(
            template_id="post_answer",
            slots={
                "question": question,
                "evidence": context_text,
                "history": history,
                FIXTURE_KEY_SLOT: fixture_key,
            },
            image_ref=image_ref,
        )
        response = self.gateway.generate(request, budget)
        reason, answer = parse_generation(response.text)
        return reason, answer, TokenStats.from_probs(response.token_probs)

    def model_verify(
        self,
        question: str,
        image_ref: str | None,
        context_text: str,
        reason_and_answer: str,
        fixture_key: str = "",
        budget: TimeBudget | None = None,
    ) -> Verdict:
        request = ModelRequest(
            template_id="verifier",
            slots={
                "question": question,
                "evidence": context_text,
                "answer": reason_and_answer,
                FIXTURE_KEY_SLOT: fixture_key,
            },
            image_ref=image_ref,
        )
        verdict = self.gateway.try_generate(
            request, lambda r: parse_verdict(r.text), budget)
        return Verdict.INCORRECT if verdict is None else verdict

    def verify_and_finalize(
        self,
        question: str,
        image_ref: str | None,
        context_text: str,
        reason: str,
        answer: str,
        stats: TokenStats,
        fixture_key: str = "",
        budget: TimeBudget | None = None,
    ) -> VerifiedAnswer:
        passed = white_box_verify(stats, self.verifier_cfg)
        verdict = self.model_verify(
            question, image_ref, context_text,
            f"{reason}\n{answer}".strip(), fixture_key, budget,
        )
        return finalize(reason, answer, stats, passed, verdict)
