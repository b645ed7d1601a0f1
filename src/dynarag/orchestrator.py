"""Per-turn pipeline execution under deadlines, and multi-turn sessions.

A turn flows pre-answer -> search router. On ``direct_output`` the draft
answer ships as-is. Both search branches run one chain, and the branch only
switches its steps on and off:

  tool router       rag_augment only, then the session image rule
  visual toolchain  rag_augment, when the tool decision asks for image search
  text toolchain    always on search_verify; on rag_augment when the tool
                    decision asks for text search
  rerank            both
  generation        rag_augment; search_verify keeps the draft as it is
  verification      both: the white-box token check and the model verdict

The modules a turn runs belong to the ``PipelineRuntime``; an orchestrator
is that runtime plus the clock its turns are timed on. Each turn binds the
runtime's gateway to the turn's fixture key, image, question, dialogue history
and budget once (a ``TurnModel``); every module that prompts the model gets
that binding.

Every turn has an image (``QueryTurn`` checks it); an image id without a
fixture grounds nothing and reranks without the image.

Every stage draws on one shared TimeBudget, which ends at the turn's deadline
or with the session budget, whichever comes first. A breach anywhere, a model
call inside an agent included, converts the turn into an "I don't know"
fallback without ever propagating the timeout out of ``answer_turn``, and so
does any other library error (``DynaragError``). All leave through one
handler: ``budget_fallback`` when the session budget was the tighter limit,
``deadline_fallback`` for the turn's own deadline, ``error_fallback``
otherwise. Stage wall-time is read from the orchestrator clock, so tests run
on simulated time while production uses the monotonic clock.

``Orchestrator.run_session`` is the one session loop: the eval harness and
the ``trace`` command both drive turns through it.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .errors import BackendTimeout, DynaragError
from .gateway import TurnModel
from .postanswer import (
    FALLBACK_ANSWER,
    TokenStats,
    Verdict,
    VerifiedAnswer,
    finalize,
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
    image_ref: str
    deadline_s: float

    def __post_init__(self):
        if self.turn_index < 0:
            raise ValueError("turn_index must be non-negative")
        if not (isinstance(self.image_ref, str) and self.image_ref):
            raise ValueError(f"image_ref: expected a non-empty str, got {self.image_ref!r}")

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
                answer = finalize(" ".join(trace.steps), trace.draft_answer,
                                  TokenStats.from_probs(trace.token_probs), True,
                                  Verdict.CORRECT)
            else:
                answer, evidence, tools, entity_name = self._search_chain(
                    model, session, trace, route.branch, stage
                )
        except DynaragError as exc:
            logger.info("turn %s fell back: %s", key, exc)
            if not isinstance(exc, BackendTimeout):
                marker, what = STAGE_ERROR_FALLBACK, type(exc).__name__
            elif session.remaining() < turn.deadline_s:
                marker, what = STAGE_BUDGET_FALLBACK, "session budget exhausted"
            else:
                marker, what = STAGE_DEADLINE_FALLBACK, "deadline exceeded"
            answer = _fallback_answer(f"{what}: {exc}")
            timings[marker] = 0.0
            if route is None:
                route = RouteDecision(Branch.DIRECT_OUTPUT, f"{what} before routing",
                                      FeatureFlags())

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

    def _search_chain(self, model, session, trace, branch, stage):
        """The chain both search branches run, steps as the module docstring
        lists them. Returns (answer, evidence, tools, entity name)."""
        runtime = self.runtime
        cfg = runtime.config
        augment = branch is Branch.RAG_AUGMENT
        tools: ToolDecision | None = None
        hits: list[SearchHit] = []
        entity = None
        if augment:
            with stage("route_tools"):
                tools = route_tools(model.query, trace, model.image_ref, cfg.routing)
                tools = self._apply_session_image_rule(tools, trace, session)
            if tools.need_image_search:
                with stage("image_search"):
                    hits, entity = runtime.image_agent.ground(
                        model, cfg.agents.object_num, cfg.agents.k_per_query
                    )

        if tools is None or tools.need_text_search:
            with stage("text_search"):
                agent = runtime.text_agent
                subqueries = agent.rephrase_and_split(
                    model, trace, self._visual_context(entity, trace, session)
                )
                if entity is not None:
                    subqueries.append(agent.fuse_object(model.query, entity))
                hits = hits + agent.text_search(subqueries)

        with stage("rerank"):
            evidence = rerank(
                model.query,
                runtime.image_store.embedding(model.image_ref),
                hits,
                cfg.rerank,
                runtime.query_encoder,
                runtime.chunk_store,
            )
        if augment:
            with stage("generate"):
                reason, answer_text, stats = runtime.post_answer.generate_answer(
                    model, evidence.text
                )
        else:
            reason, answer_text = " ".join(trace.steps), trace.draft_answer
            stats = TokenStats.from_probs(trace.token_probs)
        with stage("verify"):
            answer = runtime.post_answer.verify_and_finalize(
                model, evidence.text, reason, answer_text, stats
            )
        return answer, evidence, tools, (entity.entity_name if entity else None)

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


def _enum_values(items: list[tuple[str, object]]) -> dict:
    """``asdict`` factory that writes an enum member as its plain value."""
    return {key: value.value if isinstance(value, Enum) else value
            for key, value in items}


def trace_to_dict(trace: PipelineTrace) -> dict:
    """JSON-serializable view of a pipeline trace.

    ``route`` (with its ``features``), ``tools`` and ``answer`` (with its
    ``stats``) are their dataclasses' fields in declaration order, enums as
    their values; each evidence chunk is its id followed by its
    ``ChunkScore`` fields. A field added to any of those dataclasses enters
    the trace by itself and moves the digests pinned in
    ``tests/data/trace_digests.json``.
    """
    return {
        "route": asdict(trace.route, dict_factory=_enum_values),
        "tools": None if trace.tools is None else asdict(trace.tools, dict_factory=_enum_values),
        "evidence": None if trace.evidence is None else {
            "text": trace.evidence.text,
            "chunks": [{"chunk_id": chunk.chunk_id, **asdict(score)}
                       for chunk, score in trace.evidence.chunks],
        },
        "answer": asdict(trace.answer, dict_factory=_enum_values),
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
