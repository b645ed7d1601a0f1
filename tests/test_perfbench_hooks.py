"""The turn-latency benchmark's tracer patches names in dynarag from outside.

A rename in ``src/`` that removes one of those names would break the
benchmark's spans without failing any other test, so the tracer module is
loaded here (read-only) and its hooks are checked against the program.
"""

import importlib.util
from pathlib import Path

import pytest

import dynarag.reranker
from dynarag.encoders import HashedTextEncoder
from dynarag.fixtures import model_entries
from dynarag.orchestrator import QueryTurn
from dynarag.prompts import TEMPLATES
from dynarag.reranker import chunk_evidence
from dynarag.timing import SimulatedClock

from test_chunk_store import reference_chunks

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_in_its_owner_dict(tracer_module):
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, (owner, attr) in tracer_module.TRACED.items()
        if attr not in vars(owner)
    ]
    assert not missing, missing


def test_the_encoder_methods_the_tracer_wraps_are_in_the_class_dict():
    # ``Tracer.install`` patches these two by name outside ``TRACED``, so a
    # missing one would show up only as a KeyError inside ``install``.
    assert {"encode", "encode_tokens"} <= set(vars(HashedTextEncoder))


def test_tracer_installs_spans_a_turn_and_uninstalls(tracer_module, world_runtime):
    originals = {name: vars(owner)[attr]
                 for name, (owner, attr) in tracer_module.TRACED.items()}
    tracer = tracer_module.Tracer().install()
    try:
        orchestrator = world_runtime.orchestrator(clock=SimulatedClock())
        turn = QueryTurn("cafe-q1", 0, "Who founded this cafe?", "img-cafe", 10.0)
        [(answer, trace)] = orchestrator.run_session([turn])
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"pipeline.orchestrator", "orchestrator.answer_turn", "routing.search",
            "routing.tools", "reranker.rerank", "search.web"} <= names
    for name, (owner, attr) in tracer_module.TRACED.items():
        assert vars(owner)[attr] is originals[name], name


def test_tracer_records_the_reranker_funnel_of_a_rag_turn(tracer_module, world_runtime,
                                                         monkeypatch):
    """The funnel metrics (hits, chunks, keep ratio) are read off the
    ``reranker.chunk`` span: a reranker that stopped calling
    ``chunk_evidence``, or whose result stopped counting chunks, would
    silently report them wrong."""
    seen_hits = []

    def recording_chunk_evidence(hits, config, store):
        seen_hits.append(list(hits))
        return chunk_evidence(hits, config, store)

    monkeypatch.setattr(dynarag.reranker, "chunk_evidence", recording_chunk_evidence)
    tracer = tracer_module.Tracer().install()
    try:
        orchestrator = world_runtime.orchestrator(clock=SimulatedClock())
        turn = QueryTurn("cafe-q1", 0, "Who founded this cafe?", "img-cafe", 10.0)
        [(answer, trace)] = orchestrator.run_session([turn])
    finally:
        tracer.uninstall()
    assert trace.route.branch.value == "rag_augment"
    spans = {span.name: span for span in tracer.spans}
    chunk = spans["reranker.chunk"]
    [hits] = seen_hits
    assert chunk.attrs["hits"] == len(hits) > 0
    assert chunk.attrs["chunks"] == len(reference_chunks(hits, world_runtime.config.rerank))
    assert chunk.attrs["chunks"] > chunk.attrs["hits"]
    assert spans["reranker.coarse"].parent == spans["reranker.rerank"].id
    assert spans["reranker.coarse"].attrs["kept"] > 0


def test_the_span_attributes_the_tracer_reads_match_the_turn(tracer_module, world_runtime):
    """``_attrs`` reads the template id and latency of a model call, the
    sub-queries of a text search and the branch and stages of a turn off
    their arguments and results by position and name: a change to
    ``ModelRequest``, ``text_search`` or ``PipelineTrace`` that moved them
    would skew the per-template call counts and the branch shares."""
    tracer = tracer_module.Tracer().install()
    try:
        orchestrator = world_runtime.orchestrator(clock=SimulatedClock())
        turn = QueryTurn("cafe-q1", 0, "Who founded this cafe?", "img-cafe", 10.0)
        [(answer, trace)] = orchestrator.run_session([turn])
    finally:
        tracer.uninstall()
    latency_s = {(e.template_id, e.fixture_key): e.latency_ms / 1000.0
                 for e in model_entries()}
    spans = [span for span in tracer.spans if span.turn == turn.fixture_key]

    calls = [span.attrs for span in spans if span.name == "gateway.generate"]
    assert len(calls) >= 5
    for attrs in calls:
        assert attrs["template"] in TEMPLATES
        assert attrs["latency_s"] == latency_s[(attrs["template"], turn.fixture_key)]

    [search] = [span.attrs for span in spans if span.name == "text_agent.search"]
    assert search["subqueries"] >= 1

    [turn_span] = [span.attrs for span in spans if span.name == "orchestrator.answer_turn"]
    assert turn_span == {"branch": "rag_augment", "stages": trace.stages,
                         "fallback": False}
    assert turn_span["stages"][-3:] == ["rerank", "generate", "verify"]
