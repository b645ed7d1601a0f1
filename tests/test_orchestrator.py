import dataclasses
import json
import logging
import time

import pytest

from dynarag.config import PipelineConfig
from dynarag.fixtures import EVAL_ROWS, build_world_runtime
from dynarag.orchestrator import (
    STAGE_BUDGET_FALLBACK,
    STAGE_DEADLINE_FALLBACK,
    QueryTurn,
    SessionState,
    expected_stages,
    trace_to_dict,
)
from dynarag.image_agent import ImageSearchAgent
from dynarag.postanswer import FALLBACK_ANSWER
from dynarag.routing import Branch
from dynarag.search import ImageKgIndex, WebSearchIndex
from dynarag.text_agent import TextSearchAgent
from dynarag.timing import SimulatedClock


def turn(session_id, index, question, image, deadline=10.0) -> QueryTurn:
    return QueryTurn(session_id, index, question, image, deadline)


def run_single(runtime, session_id, question, image, deadline=10.0):
    orchestrator = runtime.orchestrator(clock=SimulatedClock())
    results = list(orchestrator.run_session([turn(session_id, 0, question, image, deadline)]))
    return results[0]


# --- branch behavior ------------------------------------------------------------


def test_umbrella_turn_is_direct_with_no_search_stages(world_runtime):
    answer, trace = run_single(
        world_runtime, "umbrella-q1", "What is written on these umbrellas?",
        "img-umbrella",
    )
    assert trace.route.branch is Branch.DIRECT_OUTPUT
    assert answer == 'The umbrellas say "Sunny Days".'
    assert trace.stages == ["pre_answer", "route_search"]
    assert trace.tools is None
    assert trace.evidence is None
    assert not trace.answer.fallback


def test_cafe_turn_runs_full_rag_chain(world_runtime):
    answer, trace = run_single(
        world_runtime, "cafe-q1", "Who founded this cafe?", "img-cafe",
    )
    assert trace.route.branch is Branch.RAG_AUGMENT
    assert trace.tools.need_image_search and trace.tools.need_text_search
    assert trace.entity_name == "Blue Bottle Coffee"
    assert answer == "Blue Bottle Coffee was founded by James Freeman."
    assert not trace.answer.fallback
    assert trace.stages == [
        "pre_answer", "route_search", "route_tools", "image_search",
        "text_search", "rerank", "generate", "verify",
    ]
    assert "James Freeman" in trace.evidence.text


def test_verify_turn_keeps_draft_when_verified(world_runtime):
    answer, trace = run_single(
        world_runtime, "car-q1",
        "In which year did the car on the right begin production?", "img-car-pair",
    )
    assert trace.route.branch is Branch.SEARCH_VERIFY
    assert answer == "The BMW M4 began production in 2014."
    assert trace.stages == ["pre_answer", "route_search", "text_search",
                            "rerank", "verify"]


def test_verify_rejection_falls_back(world_runtime):
    answer, trace = run_single(
        world_runtime, "bridge-q1", "In which year was this bridge completed?",
        "img-bridge",
    )
    assert answer == FALLBACK_ANSWER
    assert trace.answer.fallback
    assert trace.answer.white_box_pass
    assert trace.answer.model_verdict.value == "incorrect"


def test_white_box_rejection_falls_back(world_runtime):
    answer, trace = run_single(
        world_runtime, "castle-q1", "When was this castle built?", "img-castle",
    )
    assert answer == FALLBACK_ANSWER
    assert trace.answer.fallback
    assert not trace.answer.white_box_pass
    assert trace.answer.model_verdict.value == "correct"


def test_rag_with_tools_neither_still_generates(world_runtime):
    answer, trace = run_single(
        world_runtime, "blurry-sign-q1", "Translate the sign in this photo.",
        "img-sign",
    )
    assert trace.route.branch is Branch.RAG_AUGMENT
    assert not trace.tools.need_image_search
    assert not trace.tools.need_text_search
    assert not trace.evidence.chunks
    assert answer == FALLBACK_ANSWER  # generation honestly abstained
    assert not trace.answer.fallback


# --- deadlines and budgets ----------------------------------------------------------


def test_deadline_breach_returns_fallback_within_grace(world_runtime):
    wall_start = time.perf_counter()
    answer, trace = run_single(
        world_runtime, "deadline-q1", "Who founded this cafe?", "img-cafe",
    )
    wall = time.perf_counter() - wall_start
    assert answer == FALLBACK_ANSWER
    assert trace.answer.fallback
    assert trace.elapsed_s <= 10.0 + 1e-9   # simulated clock stops at deadline
    assert wall < 10.2                       # wall clock never sleeps for real
    assert STAGE_DEADLINE_FALLBACK in trace.stage_timings


def test_slow_object_extraction_ends_the_turn_before_any_search(world_runtime,
                                                                monkeypatch):
    from dynarag.fixtures import model_entries
    from dynarag.gateway import FixtureEntry, ModelGateway, ScriptedBackend

    backend = ScriptedBackend(model_entries())
    backend.add(FixtureEntry("object_list", "cafe-q1:0",
                             '{"object_list": ["cafe"]}', (0.9,), 20_000.0))
    runtime = dataclasses.replace(world_runtime, gateway=ModelGateway(backend))
    searches = []
    for index_class in (ImageKgIndex, WebSearchIndex):
        monkeypatch.setattr(index_class, "search",
                            lambda self, query, k: searches.append(query) or [])

    answer, trace = run_single(runtime, "cafe-q1", "Who founded this cafe?", "img-cafe")
    assert answer == FALLBACK_ANSWER
    assert trace.stages == ["pre_answer", "route_search", "route_tools",
                            "image_search", STAGE_DEADLINE_FALLBACK]
    assert trace.elapsed_s == pytest.approx(10.0)
    assert searches == []


def scripted(runtime, *overrides: tuple[str, str]):
    """The demo world with some of cafe-q1:0's replies replaced."""
    from dynarag.fixtures import model_entries
    from dynarag.gateway import FixtureEntry, ModelGateway, ScriptedBackend

    backend = ScriptedBackend(model_entries())
    for template, text in overrides:
        backend.add(FixtureEntry(template, "cafe-q1:0", text, (0.9,), 40.0))
    return dataclasses.replace(runtime, gateway=ModelGateway(backend))


CAFE_STAGES = ["pre_answer", "route_search", "route_tools", "image_search",
               "text_search", "rerank", "generate", "verify"]


@pytest.mark.parametrize("template, reply, warning", [
    ("object_list", '{"object_list": 5}', "object extraction failed"),
    ("object_list", '{"object_list": "cafe"}', "object extraction failed"),
    ("object_list", '["cafe", "sign"]', "object extraction failed"),
    ("decompose", '{"sub_queries": ["a"]}', "decomposition failed"),
    ("decompose", '{"sub_queries": {"text": "a"}}', "decomposition failed"),
    ("decompose", '[{"text": "a"}]', "decomposition failed"),
    ("decompose", '{"sub_queries": [{"text": "a", "step": [1]}]}',
     "decomposition failed"),
])
def test_wrong_shape_reply_falls_back_inside_its_agent(world_runtime, caplog,
                                                      template, reply, warning):
    runtime = scripted(world_runtime, (template, reply))
    with caplog.at_level(logging.WARNING):
        answer, trace = run_single(runtime, "cafe-q1", "Who founded this cafe?",
                                   "img-cafe")
    assert warning in caplog.text
    assert trace.stages == CAFE_STAGES
    assert not trace.answer.fallback


@pytest.mark.parametrize("reply", ['["cafe"]', "7", '"cafe"'])
def test_wrong_shape_object_select_falls_back_to_the_first_candidate(
        world_runtime, monkeypatch, reply):
    runtime = scripted(world_runtime,
                       ("object_list", '{"object_list": ["awning", "cafe"]}'),
                       ("object_select", reply))
    selected = []
    select = ImageSearchAgent.select_object
    monkeypatch.setattr(ImageSearchAgent, "select_object",
                        lambda *args: selected.append(select(*args)) or selected[-1])
    answer, trace = run_single(runtime, "cafe-q1", "Who founded this cafe?", "img-cafe")
    assert selected == ["awning"]
    assert trace.stages == CAFE_STAGES


def test_session_budget_limits_later_turns():
    config = PipelineConfig()
    config.limits.session_budget_s = 12.0
    runtime = build_world_runtime(config)
    orchestrator = runtime.orchestrator(clock=SimulatedClock())
    turns = [
        turn("budget-1", 0, "What is written on this mug?", "img-umbrella"),
        turn("budget-1", 1, "What is written on the other side?", "img-umbrella"),
    ]
    results = list(orchestrator.run_session(turns))
    first_answer, first_trace = results[0]
    second_answer, second_trace = results[1]
    assert not first_trace.answer.fallback
    assert first_trace.elapsed_s == pytest.approx(9.0)
    # 3s remain; the 5s evaluator call must be cut off at the budget
    assert second_answer == FALLBACK_ANSWER
    assert second_trace.elapsed_s <= 3.0 + 1e-9


def test_exhausted_budget_skips_turn_entirely():
    runtime = build_world_runtime()
    orchestrator = runtime.orchestrator(clock=SimulatedClock())
    session = SessionState("budget-1", total_budget_s=5.0, elapsed_s=5.0)
    answer, trace = orchestrator.answer_turn(
        turn("budget-1", 0, "What is written on this mug?", "img-umbrella"), session
    )
    assert answer == FALLBACK_ANSWER
    assert trace.stages == [STAGE_BUDGET_FALLBACK]


# --- sessions -----------------------------------------------------------------------


def dialog_turns():
    return [
        turn("dialog-1", 0, "What kind of car is this?", "img-car-street"),
        turn("dialog-1", 1, "When did it begin production?", "img-car-street"),
        turn("dialog-1", 2, "Who designed it?", "img-car-street"),
    ]


def test_dialog_threads_entity_across_turns(world_runtime, monkeypatch):
    orchestrator = world_runtime.orchestrator(clock=SimulatedClock())

    recorded = []
    original = TextSearchAgent.rephrase_and_split

    def spy(self, query, trace, visual_context=None, fixture_key="", history="",
            budget=None):
        subs = original(self, query, trace, visual_context, fixture_key, history, budget)
        recorded.append((fixture_key, list(subs)))
        return subs

    # The runtime's modules are shared with other tests: patch the class for
    # this test only (an instance patch would leave a bound method behind).
    monkeypatch.setattr(TextSearchAgent, "rephrase_and_split", spy)
    results = list(orchestrator.run_session(dialog_turns()))

    assert results[0][0] == "The car is a Porsche 911."
    assert results[1][0] == "The Porsche 911 likely began production in 1964."
    assert results[2][0] == "The Porsche 911 was designed by Ferdinand Alexander Porsche."

    by_key = dict(recorded)
    # turn 1: "it" resolved from the trace's identified object
    assert by_key["dialog-1:1"] == ["When did Porsche 911 begin production?"]
    # turn 2: "it" resolved from the session's carried entity
    assert by_key["dialog-1:2"] == ["Who designed Porsche 911?"]


def test_dialog_later_turn_disables_image_search(world_runtime):
    orchestrator = world_runtime.orchestrator(clock=SimulatedClock())
    results = list(orchestrator.run_session(dialog_turns()))
    third_trace = results[2][1]
    assert third_trace.route.branch is Branch.RAG_AUGMENT
    assert not third_trace.tools.need_image_search
    assert "image_search" not in third_trace.stages


def test_single_turn_session_equals_answer_turn(world_runtime):
    orchestrator_a = world_runtime.orchestrator(clock=SimulatedClock())
    session_results = list(orchestrator_a.run_session(
        [turn("whale-q1", 0, "What animal is shown in this picture?", "img-whale")]
    ))
    orchestrator_b = world_runtime.orchestrator(clock=SimulatedClock())
    session = SessionState("whale-q1",
                           total_budget_s=world_runtime.config.limits.session_budget_s)
    direct = orchestrator_b.answer_turn(
        turn("whale-q1", 0, "What animal is shown in this picture?", "img-whale"),
        session,
    )
    assert session_results[0][0] == direct[0]
    assert trace_to_dict(session_results[0][1]) == trace_to_dict(direct[1])


def test_run_session_validates_turn_list(world_runtime):
    orchestrator = world_runtime.orchestrator(clock=SimulatedClock())
    with pytest.raises(ValueError):
        orchestrator.run_session([
            turn("a", 0, "q", None), turn("b", 1, "q", None),
        ])
    with pytest.raises(ValueError):
        orchestrator.run_session([
            turn("a", 0, "q", None), turn("a", 2, "q", None),
        ])
    assert list(orchestrator.run_session([])) == []


def test_history_is_append_only_and_budgeted(world_runtime):
    orchestrator = world_runtime.orchestrator(clock=SimulatedClock())
    session = SessionState("dialog-1", total_budget_s=30.0)
    for t in dialog_turns():
        answer, trace = orchestrator.answer_turn(t, session)
        session.record(t.question, answer, trace.elapsed_s, trace.entity_name)
    assert len(session.history) == 3
    assert session.elapsed_s <= session.total_budget_s
    assert session.last_entity == "Porsche 911"


# --- determinism and chain consistency ------------------------------------------------


def all_world_sessions():
    sessions = {}
    for sid, ti, question, image, truth, tax in EVAL_ROWS:
        sessions.setdefault(sid, []).append((ti, question, image))
    return {
        sid: [turn(sid, ti, q, img) for ti, q, img in sorted(rows)]
        for sid, rows in sessions.items()
    }


def test_pipeline_is_deterministic(world_runtime):
    for sid, turns in all_world_sessions().items():
        first = list(world_runtime.orchestrator(clock=SimulatedClock()).run_session(turns))
        second = list(world_runtime.orchestrator(clock=SimulatedClock()).run_session(turns))
        for (answer_a, trace_a), (answer_b, trace_b) in zip(first, second):
            assert answer_a == answer_b
            assert json.dumps(trace_to_dict(trace_a), sort_keys=True) == \
                   json.dumps(trace_to_dict(trace_b), sort_keys=True)


def test_file_built_world_traces_equal_the_in_memory_world(world_runtime, tmp_path):
    from dynarag.fixtures import write_world
    from dynarag.pipeline import build_runtime

    paths = write_world(tmp_path)
    from_files = build_runtime(PipelineConfig.from_file(paths["config"]))
    sessions = all_world_sessions()
    assert len(sessions) == 21
    compared = 0
    for turns in sessions.values():
        in_memory = world_runtime.orchestrator(clock=SimulatedClock()).run_session(turns)
        loaded = from_files.orchestrator(clock=SimulatedClock()).run_session(turns)
        for (answer_a, trace_a), (answer_b, trace_b) in zip(in_memory, loaded,
                                                            strict=True):
            assert answer_a == answer_b
            assert trace_to_dict(trace_a) == trace_to_dict(trace_b)
            compared += 1
    assert compared == 23


def test_executed_stages_match_branch_chain(world_runtime):
    for sid, turns in all_world_sessions().items():
        results = list(world_runtime.orchestrator(clock=SimulatedClock()).run_session(turns))
        for answer, trace in results:
            expected = expected_stages(trace)
            if expected is None:
                continue  # fallback trace: partial chains are legitimate
            assert trace.stages == expected, (sid, trace.stages, expected)


def test_recorded_pipeline_run_replays_bit_identically(tmp_path, world_runtime):
    from dynarag.fixtures import model_entries
    from dynarag.gateway import ModelGateway, Recorder, ScriptedBackend

    log = tmp_path / "recording.jsonl"
    recording_gateway = ModelGateway(Recorder(ScriptedBackend(model_entries()), log))

    def runtime_with(gateway):
        return dataclasses.replace(world_runtime, gateway=gateway)

    turns = [turn("cafe-q1", 0, "Who founded this cafe?", "img-cafe")]
    recorded = list(runtime_with(recording_gateway).orchestrator(
        clock=SimulatedClock()).run_session(turns))

    replay_gateway = ModelGateway(ScriptedBackend.from_jsonl(log))
    replayed = list(runtime_with(replay_gateway).orchestrator(
        clock=SimulatedClock()).run_session(turns))

    assert replayed[0][0] == recorded[0][0]
    assert json.dumps(trace_to_dict(replayed[0][1]), sort_keys=True) == \
           json.dumps(trace_to_dict(recorded[0][1]), sort_keys=True)
