"""Per-turn pipeline execution under deadlines, and multi-turn sessions.

A turn flows pre-answer -> search router -> branch chain:

  direct_output : nothing else; the draft answer ships as-is.
  search_verify : text toolchain -> rerank -> dual verification of the draft.
  rag_augment   : tool router -> visual toolchain (if image search is on) ->
                  text toolchain -> rerank -> generation -> dual verification.

The modules a turn runs belong to the ``PipelineRuntime``; an orchestrator
is that runtime plus the clock its turns are timed on. Each turn binds the
runtime's gateway to the turn's fixture key, image, question, dialogue history
and budget once (a ``TurnModel``); every module that prompts the model gets
that binding.

Every stage draws on one shared TimeBudget; a breach anywhere, a model call
inside an agent included, converts the turn into an "I don't know" fallback
without ever propagating the timeout out of ``answer_turn``, and so does any
other library error (``DynaragError``). Stage wall-time is read from the
orchestrator clock, so tests run on simulated time while production uses the
monotonic clock.

``Orchestrator.run_session`` is the one session loop: the eval harness and
the ``trace`` command both drive turns through it.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from .errors import BackendTimeout, DynaragError
from .gateway import TurnModel
from .postanswer import (
    FALLBACK_ANSWER,
    TokenStats,
    Verdict,
    VerifiedAnswer,
    finalize,
    white_box_verify,
)
from .preanswer import FeatureFlags, ReasoningTrace
from .reranker import AssembledContext, rerank
from .routing import Branch, RouteDecision, ToolDecision, route_search, route_tools
from .search import SearchHit
from .timing import MonotonicClock, TimeBudget

if TYPE_CHECKING:
    from .pipeline import PipelineRuntime

logger = logging.getLogger(__name__)

# Markers a trace carries when a turn never ran its full chain.
STAGE_DEADLINE_FALLBACK = "deadline_fallback"
STAGE_BUDGET_FALLBACK = "budget_fallback"
STAGE_ERROR_FALLBACK = "error_fallback"

_PRIOR_TURN_MARKERS = ("previous turn", "earlier turn", "previous answer",
                       "prior turn", "the conversation")


@dataclass(frozen=True)
class QueryTurn:
    session_id: str
    turn_index: int
    question: str
    image_ref: str | None
    deadline_s: float

    def __post_init__(self):
        if self.turn_index < 0:
            raise ValueError("turn_index must be non-negative")

    @property
    def fixture_key(self) -> str:
        return f"{self.session_id}:{self.turn_index}"


@dataclass
class SessionState:
    session_id: str
    total_budget_s: float
    elapsed_s: float = 0.0
    history: list[tuple[str, str]] = field(default_factory=list)
    last_entity: str | None = None

    def remaining(self) -> float:
        return self.total_budget_s - self.elapsed_s

    def record(self, question: str, final_answer: str, elapsed: float,
               entity: str | None) -> None:
        self.history.append((question, final_answer))
        self.elapsed_s = min(self.total_budget_s, self.elapsed_s + elapsed)
        if entity:
            self.last_entity = entity

    def history_text(self) -> str:
        return "\n".join(f"Q: {q}\nA: {a}" for q, a in self.history)


@dataclass
class PipelineTrace:
    route: RouteDecision
    tools: ToolDecision | None
    evidence: AssembledContext | None
    answer: VerifiedAnswer
    stage_timings: dict[str, float]
    entity_name: str | None = None
    elapsed_s: float = 0.0

    @property
    def stages(self) -> list[str]:
        return list(self.stage_timings)


def _fallback_answer(reason: str) -> VerifiedAnswer:
    return finalize(reason, FALLBACK_ANSWER, TokenStats(1.0, 1.0, 1), False,
                    Verdict.INCORRECT)


def _fallback_route(rationale: str) -> RouteDecision:
    return RouteDecision(Branch.DIRECT_OUTPUT, rationale, FeatureFlags())


class Orchestrator:
    """Runs turns and sessions: a runtime plus a clock.

    The runtime owns every module and shares them read-only; the orchestrator
    adds only the clock its turns are timed on. On a simulated clock one
    orchestrator serves one session at a time, so each session gets its own
    (the harness and ``trace`` do exactly that).
    """

    def __init__(self, runtime: PipelineRuntime, clock=None):
        self.runtime = runtime
        self.clock = clock if clock is not None else MonotonicClock()

    # -- single turn -----------------------------------------------------------

    def answer_turn(self, turn: QueryTurn, session: SessionState) -> tuple[str, PipelineTrace]:
        start = self.clock.now()
        if session.remaining() <= 0:
            trace = PipelineTrace(
                route=_fallback_route("session budget exhausted before the turn"),
                tools=None,
                evidence=None,
                answer=_fallback_answer("session budget exhausted"),
                stage_timings={STAGE_BUDGET_FALLBACK: 0.0},
            )
            return FALLBACK_ANSWER, trace

        deadline_s = min(turn.deadline_s, session.remaining())
        budget = TimeBudget(self.clock, deadline_at=start + deadline_s)
        timings: dict[str, float] = {}

        @contextmanager
        def stage(name: str):
            budget.check()
            t0 = self.clock.now()
            try:
                yield
            finally:
                timings[name] = self.clock.now() - t0

        key = turn.fixture_key
        model = TurnModel(self.runtime.gateway, key, turn.image_ref, turn.question,
                          session.history_text(), budget)
        route: RouteDecision | None = None
        tools: ToolDecision | None = None
        evidence: AssembledContext | None = None
        entity_name: str | None = None

        try:
            with stage("pre_answer"):
                domain = self.runtime.pre_answer.classify_domain(turn.question)
                trace = self.runtime.pre_answer.dcot_preanswer(model, domain)
            with stage("route_search"):
                route = route_search(trace)

            if route.branch is Branch.DIRECT_OUTPUT:
                answer = self._direct_answer(trace)
            elif route.branch is Branch.SEARCH_VERIFY:
                answer, evidence = self._run_verify(model, session, trace, stage)
            else:
                answer, evidence, tools, entity_name = self._run_rag(
                    model, session, trace, stage
                )
        except DynaragError as exc:
            logger.info("turn %s fell back: %s", key, exc)
            if isinstance(exc, BackendTimeout):
                marker, what = STAGE_DEADLINE_FALLBACK, "deadline exceeded"
            else:
                marker, what = STAGE_ERROR_FALLBACK, type(exc).__name__
            answer = _fallback_answer(f"{what}: {exc}")
            timings[marker] = 0.0
            if route is None:
                route = _fallback_route(f"{what} before routing")

        trace_out = PipelineTrace(
            route=route,
            tools=tools,
            evidence=evidence,
            answer=answer,
            stage_timings=timings,
            entity_name=entity_name,
            elapsed_s=self.clock.now() - start,
        )
        return answer.final_answer, trace_out

    def _direct_answer(self, trace: ReasoningTrace) -> VerifiedAnswer:
        stats = TokenStats.from_probs(trace.token_probs or (1.0,))
        return finalize(" ".join(trace.steps), trace.draft_answer, stats, True,
                        Verdict.CORRECT)

    def _run_verify(self, model, session, trace, stage):
        cfg = self.runtime.config
        with stage("text_search"):
            hits = self._text_hits(model, session, trace, None)
        evidence = self._rerank_stage(model, hits, stage)
        with stage("verify"):
            stats = TokenStats.from_probs(trace.token_probs or (1.0,))
            passed = white_box_verify(stats, cfg.verifier)
            draft_blob = "\n".join(trace.steps + [trace.draft_answer])
            verdict = self.runtime.post_answer.model_verify(model, evidence.text,
                                                            draft_blob)
            answer = finalize(
                " ".join(trace.steps), trace.draft_answer, stats, passed, verdict
            )
        return answer, evidence

    def _run_rag(self, model, session, trace, stage):
        cfg = self.runtime.config
        with stage("route_tools"):
            tools = route_tools(model.query, trace, model.image_ref, cfg.routing)
            tools = self._apply_session_image_rule(tools, trace, session)

        hits: list[SearchHit] = []
        entity = None
        if tools.need_image_search:
            with stage("image_search"):
                image_hits, entity = self.runtime.image_agent.ground(
                    model, cfg.agents.object_num, cfg.agents.k_per_query
                )
                hits.extend(image_hits)

        if tools.need_text_search:
            with stage("text_search"):
                hits.extend(self._text_hits(model, session, trace, entity))

        evidence = self._rerank_stage(model, hits, stage)
        with stage("generate"):
            reason, answer_text, stats = self.runtime.post_answer.generate_answer(
                model, evidence.text
            )
        with stage("verify"):
            answer = self.runtime.post_answer.verify_and_finalize(
                model, evidence.text, reason, answer_text, stats
            )
        return answer, evidence, tools, (entity.entity_name if entity else None)

    def _text_hits(self, model, session, trace, entity) -> list[SearchHit]:
        """Decomposed (and, with a verified entity, object-fused) web search."""
        agent = self.runtime.text_agent
        subqueries = agent.rephrase_and_split(
            model, trace, self._visual_context(entity, trace, session)
        )
        if entity is not None:
            subqueries.append(agent.fuse_object(model.query, entity))
        return agent.text_search(subqueries)

    def _rerank_stage(self, model, hits, stage) -> AssembledContext:
        runtime = self.runtime
        with stage("rerank"):
            image_embedding = runtime.image_store.embedding(model.image_ref) \
                if model.image_ref else None
            return rerank(
                model.query,
                image_embedding,
                hits,
                runtime.config.rerank,
                runtime.query_encoder,
                runtime.chunk_store,
            )

    @staticmethod
    def _visual_context(entity, trace: ReasoningTrace,
                        session: SessionState) -> str | None:
        """Best available referent for pronoun resolution: this turn's
        verified entity, a specific name from the trace, or the entity
        carried over from earlier turns."""
        if entity is not None:
            return entity.entity_name
        if trace.object_name and trace.flags.is_named_object:
            return trace.object_name
        return session.last_entity

    @staticmethod
    def _apply_session_image_rule(tools: ToolDecision, trace: ReasoningTrace,
                                  session: SessionState) -> ToolDecision:
        """Later turns skip image search when the trace points at the dialogue
        rather than at a (new) visual object."""
        if not session.history or not tools.need_image_search:
            return tools
        lowered = trace.raw_text.lower()
        refers_back = any(m in lowered for m in _PRIOR_TURN_MARKERS)
        if refers_back or trace.object_name is None:
            return ToolDecision(
                False, tools.need_text_search,
                tools.rationale + "; image search disabled because the turn "
                "refers back to the dialogue, not to a new object",
            )
        return tools

    # -- sessions ----------------------------------------------------------------

    def run_session(self, turns: list[QueryTurn]) -> Iterator[tuple[str, PipelineTrace]]:
        """Answer one session's turns in order under one SessionState.

        The turn list is checked here, at the call: one session_id and turn
        indices 0..n-1. Each (final_answer, trace) is yielded as soon as its
        turn finishes, so callers can time turns or stop early.
        """
        turns = list(turns)
        check_session(turns)

        def answers():
            session = SessionState(turns[0].session_id,
                                   self.runtime.config.limits.session_budget_s)
            for turn in turns:
                final_answer, trace = self.answer_turn(turn, session)
                session.record(turn.question, final_answer, trace.elapsed_s,
                               trace.entity_name)
                yield final_answer, trace

        return answers() if turns else iter(())


def check_session(turns: list[QueryTurn]) -> None:
    """ValueError unless the turns share one session_id and their indices,
    in list order, are 0..n-1."""
    if len({t.session_id for t in turns}) > 1:
        raise ValueError("all turns must share one session_id")
    if [t.turn_index for t in turns] != list(range(len(turns))):
        raise ValueError(
            f"turn indices must be contiguous from 0 in session {turns[0].session_id!r}")


def trace_to_dict(trace: PipelineTrace) -> dict:
    """JSON-serializable view of a pipeline trace."""
    answer = trace.answer
    return {
        "route": {
            "branch": trace.route.branch.value,
            "rationale": trace.route.rationale,
            "features": dict(vars(trace.route.features)),
        },
        "tools": None if trace.tools is None else {
            "need_image_search": trace.tools.need_image_search,
            "need_text_search": trace.tools.need_text_search,
            "rationale": trace.tools.rationale,
        },
        "evidence": None if trace.evidence is None else {
            "text": trace.evidence.text,
            "chunks": [
                {
                    "chunk_id": chunk.chunk_id,
                    "coarse": score.coarse,
                    "fine": score.fine,
                    "cumulative": score.cumulative,
                }
                for chunk, score in trace.evidence.chunks
            ],
        },
        "answer": {
            "reason": answer.reason,
            "answer": answer.answer,
            "final_answer": answer.final_answer,
            "white_box_pass": answer.white_box_pass,
            "model_verdict": answer.model_verdict.value,
            "fallback": answer.fallback,
            "stats": {
                "s_min": answer.stats.s_min,
                "s_mean": answer.stats.s_mean,
                "count": answer.stats.count,
            },
        },
        "stage_timings": dict(trace.stage_timings),
        "stages": trace.stages,
        "entity_name": trace.entity_name,
        "elapsed_s": trace.elapsed_s,
    }


def expected_stages(trace: PipelineTrace) -> list[str] | None:
    """The stage chain the trace's branch should have executed, or None for
    fallback traces (they legitimately stop early)."""
    if any(marker in trace.stage_timings for marker in
           (STAGE_BUDGET_FALLBACK, STAGE_DEADLINE_FALLBACK, STAGE_ERROR_FALLBACK)):
        return None
    branch = trace.route.branch
    if branch is Branch.DIRECT_OUTPUT:
        return ["pre_answer", "route_search"]
    if branch is Branch.SEARCH_VERIFY:
        return ["pre_answer", "route_search", "text_search", "rerank", "verify"]
    chain = ["pre_answer", "route_search", "route_tools"]
    if trace.tools and trace.tools.need_image_search:
        chain.append("image_search")
    if trace.tools and trace.tools.need_text_search:
        chain.append("text_search")
    return chain + ["rerank", "generate", "verify"]
