"""In-memory spans around the public entry points of each dynarag module.

``Tracer.install()`` replaces each traced name where its caller looks it up
(a class attribute for methods, a module global for functions such as
``dynarag.orchestrator.route_search``) and ``uninstall()`` puts the originals
back. The program itself is not changed.

A span records its name, parent span, turn id, start and duration; its self
time is the duration minus the time of its children. The text encoders are
called thousands of times per turn, so they get an aggregate timer and
counters instead of spans; their time is still subtracted from the span that
called them, so the layers' self times add up to the turn time. They are
counted inside turns and inside ``build_runtime`` (set-up), the two places
the benchmark reports; calls elsewhere run untimed.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import dynarag.orchestrator
import dynarag.pipeline
import dynarag.preanswer
import dynarag.reranker
from dynarag.encoders import HashedTextEncoder
from dynarag.gateway import ModelGateway
from dynarag.image_agent import ImageSearchAgent
from dynarag.orchestrator import Orchestrator
from dynarag.pipeline import PipelineRuntime
from dynarag.postanswer import PostAnswerModule
from dynarag.preanswer import PreAnswerModule
from dynarag.search import ImageKgIndex, WebSearchIndex
from dynarag.text_agent import TextSearchAgent

_clock = time.perf_counter

# span name -> (owner, attribute). The layer is the part before the dot.
TRACED = {
    "pipeline.build_runtime": (dynarag.pipeline, "build_runtime"),
    "pipeline.orchestrator": (PipelineRuntime, "orchestrator"),
    "orchestrator.answer_turn": (Orchestrator, "answer_turn"),
    "preanswer.classify": (PreAnswerModule, "classify_domain"),
    "preanswer.dcot": (PreAnswerModule, "dcot_preanswer"),
    "preanswer.parse": (dynarag.preanswer, "parse_trace"),
    "routing.search": (dynarag.orchestrator, "route_search"),
    "routing.tools": (dynarag.orchestrator, "route_tools"),
    "image_agent.ground": (ImageSearchAgent, "ground"),
    "text_agent.decompose": (TextSearchAgent, "rephrase_and_split"),
    "text_agent.search": (TextSearchAgent, "text_search"),
    "search.web": (WebSearchIndex, "search"),
    "search.kg": (ImageKgIndex, "search"),
    "search.web_build": (WebSearchIndex, "build"),
    "search.kg_build": (ImageKgIndex, "build"),
    "reranker.rerank": (dynarag.orchestrator, "rerank"),
    "reranker.chunk": (dynarag.reranker, "chunk_evidence"),
    "reranker.coarse": (dynarag.reranker, "coarse_score"),
    "reranker.fine": (dynarag.reranker, "fine_score"),
    "reranker.assemble": (dynarag.reranker, "assemble_context"),
    "gateway.generate": (ModelGateway, "generate"),
    "postanswer.generate": (PostAnswerModule, "generate_answer"),
    "postanswer.verify": (PostAnswerModule, "verify_and_finalize"),
    "postanswer.model_verify": (PostAnswerModule, "model_verify"),
}


class Span:
    __slots__ = ("id", "parent", "turn", "name", "start", "dur", "child", "attrs")

    def __init__(self, span_id, parent, turn, name, start):
        self.id = span_id
        self.parent = parent
        self.turn = turn
        self.name = name
        self.start = start
        self.dur = 0.0
        self.child = 0.0
        self.attrs = None

    @property
    def self_time(self) -> float:
        return self.dur - self.child


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts recorded at a boundary, so ratios are measured where work happens."""
    if name == "search.web":
        return {"urls": [hit.url for hit in result]}
    if name == "gateway.generate":
        return {"template": args[1].template_id, "latency_s": result.latency}
    if name == "reranker.chunk":
        return {"hits": len(args[0]), "chunks": len(result)}
    if name in ("reranker.coarse", "reranker.fine"):
        return {"kept": len(result)}
    if name == "text_agent.search":
        return {"subqueries": len(args[1]), "urls": [hit.url for hit in result]}
    if name == "image_agent.ground":
        return {"verified": result[1] is not None}
    if name == "orchestrator.answer_turn":
        trace = result[1]
        return {"branch": trace.route.branch.value, "stages": trace.stages,
                "fallback": trace.answer.fallback}
    return None


class EncoderStats:
    """Totals, plus distinct inputs over calls within each pass over the
    workload: over a whole run the ratio would fall with the number of passes."""

    __slots__ = ("calls", "tokens", "seconds", "distinct", "pass_calls",
                 "distinct_ratios")

    def __init__(self):
        self.calls = 0
        self.tokens = 0
        self.seconds = 0.0
        self.distinct: set[int] = set()
        self.pass_calls = 0
        self.distinct_ratios: list[float] = []

    def end_pass(self) -> None:
        if self.pass_calls:
            self.distinct_ratios.append(len(self.distinct) / self.pass_calls)
        self.distinct.clear()
        self.pass_calls = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.turn: str | None = None
        self.encoders = {"setup": EncoderStats(), "turns": EncoderStats()}
        self._in_encoder = False
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        is_turn = name == "orchestrator.answer_turn"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_turn:
                tracer.turn = args[1].fixture_key
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), parent.id if parent else None,
                        tracer.turn, name, _clock())
            tracer.spans.append(span)
            tracer.stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.dur = _clock() - span.start
                tracer.stack.pop()
                if parent is not None:
                    parent.child += span.dur
                if result is not None:
                    span.attrs = _attrs(name, args, result)
                if is_turn:
                    tracer.turn = None

        return wrapper

    # -- encoders ------------------------------------------------------------

    def _wrap_encoder(self, fn, tokens_arg: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(encoder, arg):
            if tracer.turn:
                stats = tracer.encoders["turns"]
            elif tracer.stack and tracer.stack[0].name == "pipeline.build_runtime":
                stats = tracer.encoders["setup"]
            else:
                return fn(encoder, arg)
            if tokens_arg:
                stats.tokens += len(arg)
            if tracer._in_encoder:
                return fn(encoder, arg)
            tracer._in_encoder = True
            start = _clock()
            try:
                return fn(encoder, arg)
            finally:
                elapsed = _clock() - start
                tracer._in_encoder = False
                stats.calls += 1
                stats.pass_calls += 1
                stats.seconds += elapsed
                stats.distinct.add(hash(arg if isinstance(arg, str) else tuple(arg)))
                if tracer.stack:
                    tracer.stack[-1].child += elapsed

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for name, (owner, attr) in TRACED.items():
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        self._patch(HashedTextEncoder, "encode",
                    self._wrap_encoder(HashedTextEncoder.encode, tokens_arg=False))
        self._patch(HashedTextEncoder, "encode_tokens",
                    self._wrap_encoder(HashedTextEncoder.encode_tokens, tokens_arg=True))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: Path, header: dict) -> None:
        """One JSON line per span, after a header line; times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "turn": s.turn, "name": s.name,
                    "start_us": round(s.start * 1e6, 1), "dur_us": round(s.dur * 1e6, 1),
                    "self_us": round(s.self_time * 1e6, 1),
                }) + "\n")
