import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cases import unlimited_budget

import dynarag
from dynarag.errors import (
    BackendTimeout,
    MissingSlot,
    UnknownFixture,
    UnknownTemplate,
)
from dynarag.gateway import (
    FixtureEntry,
    ModelGateway,
    ModelRequest,
    ScriptedBackend,
    TurnModel,
    last_line_json,
)
from dynarag.evalharness import EvalRecord, evaluate, group_sessions
from dynarag.fixtures import eval_rows, model_entries
from dynarag.prompts import TEMPLATES, PromptTemplate
from dynarag.timing import SimulatedClock, TimeBudget


def make_gateway(entries=None) -> ModelGateway:
    return ModelGateway(ScriptedBackend(entries or []))


def entry(template="decompose", key="umbrella-q1", text="scripted trace",
          probs=(1.0, 1.0), latency_ms=0.0) -> FixtureEntry:
    return FixtureEntry(template, key, text, probs, latency_ms)


def request(key="umbrella-q1") -> ModelRequest:
    """A ``decompose`` request, whose fixture ``entry`` makes by default."""
    return ModelRequest(
        template_id="decompose",
        slots={"query": "q", "reasoning": "1. r", "visual_context": "", "history": ""},
        fixture_key=key,
    )


def try_decompose(gateway: ModelGateway, decode):
    """``TurnModel.try_generate`` of the ``request()`` call."""
    model = TurnModel(gateway, "umbrella-q1", "img", "q", "", unlimited_budget())
    return model.try_generate("decompose", decode, reasoning="1. r", visual_context="")


# Every template written out by hand; each names the turn's question ``query``:
# template id -> required slots.
REGISTERED = {
    "evaluator": {"query", "domain", "examples", "history"},
    "object_list": {"query", "object_num"},
    "object_select": {"query", "object_list"},
    "decompose": {"query", "reasoning", "visual_context", "history"},
    "post_answer": {"query", "evidence", "history"},
    "verifier": {"query", "evidence", "answer"},
}


def test_templates_read_their_slots_from_their_bodies():
    assert {tid: set(t.required_slots) for tid, t in TEMPLATES.items()} == REGISTERED
    assert all(t.template_id == tid for tid, t in TEMPLATES.items())


class CapturingBackend:
    def __init__(self):
        self.calls = []

    def complete(self, template_id, fixture_key, prompt, budget):
        self.calls.append((template_id, fixture_key, prompt))
        return ScriptedBackend([entry(template_id, fixture_key)]).complete(
            template_id, fixture_key, prompt, budget)


DEMO_PROMPTS_SHA256 = "20a8016ed6ccabda3f3d3ea721d75f2e862ad16050980ed14b1ac792b749b5f6"


def test_demo_eval_sends_the_pinned_prompts(world_runtime):
    """Every prompt a demo-world eval sends, in order, byte for byte.

    The digest is the sha256 of ``json.dumps`` of the (template_id,
    fixture_key, prompt) list. It was computed at commit 6be90cc, before the
    modules took one per-turn ``TurnModel`` in place of the gateway and the
    turn's key, image, question, history and budget as separate arguments.
    It changed once since, in the ``answer`` slot of the six search_verify
    turns' verifier prompts alone: the draft's reasoning steps are joined by
    spaces, as a rag_augment turn's reason is, no longer by newlines.
    """
    calls = []

    class Capturing:
        inner = ScriptedBackend(model_entries())

        def complete(self, template_id, fixture_key, prompt, budget):
            calls.append((template_id, fixture_key, prompt))
            return self.inner.complete(template_id, fixture_key, prompt, budget)

    runtime = dataclasses.replace(world_runtime, gateway=ModelGateway(Capturing()))
    deadline = runtime.config.limits.turn_deadline_s
    evaluate(group_sessions([EvalRecord.from_dict(row, deadline) for row in eval_rows()]),
             runtime)
    assert len(calls) == 78
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == DEMO_PROMPTS_SHA256


def oracle_render(body: str, slots: dict[str, str]) -> str:
    """Every placeholder to a sentinel first, so no value is scanned again."""
    for name in slots:
        body = body.replace("{" + name + "}", f"\0{name}\0")
    for name, value in slots.items():
        body = body.replace(f"\0{name}\0", value)
    return body


@pytest.mark.parametrize("template_id", sorted(REGISTERED))
@pytest.mark.parametrize("value", ["What does {history} say?", "see {query} or {evidence}"])
def test_slot_values_render_verbatim(template_id, value):
    names = sorted(REGISTERED[template_id])
    slots = {name: f"{value} [{name}]" for name in names}
    template = TEMPLATES[template_id]
    prompt = template.render(slots)
    assert prompt == oracle_render(template.body, slots)
    for name in names:
        assert prompt.count(f"{value} [{name}]") == template.body.count("{" + name + "}")

    backend = CapturingBackend()
    ModelGateway(backend).generate(ModelRequest(template_id, slots, "k"), unlimited_budget())
    assert backend.calls == [(template_id, "k", prompt)]


def test_a_bare_gateway_serves_every_template():
    entries = model_entries()
    gateway = ModelGateway(ScriptedBackend(entries))
    served = set()
    for template_id, names in REGISTERED.items():
        fixture = next(e for e in entries if e.template_id == template_id)
        response = gateway.generate(ModelRequest(
            template_id, {name: "x" for name in names}, fixture.fixture_key),
            unlimited_budget())
        assert response.text == fixture.text
        served.add(template_id)
    assert served == set(TEMPLATES)


def test_mock_echoes_scripted_fixture():
    gateway = make_gateway([entry()])
    response = gateway.generate(request(), unlimited_budget())
    assert response.text == "scripted trace"
    assert response.token_probs == (1.0, 1.0)


@pytest.mark.parametrize("last_line", [
    '["a"]', '5', '"text"', 'null',
    pytest.param('{"a": ' * 100_000 + "1" + "}" * 100_000,
                 id="nested-past-the-recursion-limit"),
])
def test_last_line_json_rejects_anything_but_an_object(last_line):
    gateway = make_gateway([entry(text=f"reasoning first\n{last_line}")])
    with pytest.raises(ValueError):
        last_line_json(gateway.generate(request(), unlimited_budget()))
    assert try_decompose(gateway, last_line_json) is None


def test_last_line_json_returns_the_object_on_the_last_line():
    gateway = make_gateway([entry(text='step 1\n{"answer": "x"}\n')])
    assert last_line_json(gateway.generate(request(), unlimited_budget())) == {"answer": "x"}


def test_try_generate_lets_a_decoder_bug_propagate():
    def broken(response):
        return len(5)  # a TypeError is a bug, not an unparseable reply

    gateway = make_gateway([entry(text='{"answer": "x"}')])
    with pytest.raises(TypeError):
        try_decompose(gateway, broken)


def test_same_request_is_byte_identical():
    gateway = make_gateway([entry()])
    first = gateway.generate(request(), unlimited_budget())
    second = gateway.generate(request(), unlimited_budget())
    assert first == second


def test_missing_fixture_raises_unknown_fixture():
    gateway = make_gateway([entry()])
    with pytest.raises(UnknownFixture):
        gateway.generate(request(key="no-such-key"), unlimited_budget())


def test_unknown_template():
    gateway = make_gateway()
    with pytest.raises(UnknownTemplate):
        gateway.generate(ModelRequest("nope", {}, "k"), unlimited_budget())


def test_missing_slot():
    gateway = make_gateway([entry()])
    with pytest.raises(MissingSlot):
        gateway.generate(ModelRequest("decompose", {"query": "q"}, "umbrella-q1"),
                         unlimited_budget())


def test_empty_template_body_renders_empty(monkeypatch):
    monkeypatch.setitem(TEMPLATES, "empty", PromptTemplate("empty", ""))
    gateway = make_gateway([FixtureEntry("empty", "k", "ok", (0.5,), 0.0)])
    assert TEMPLATES["empty"].render({}) == ""
    response = gateway.generate(ModelRequest("empty", {}, "k"), unlimited_budget())
    assert response.text == "ok"


def test_fixture_probabilities_validated_at_load():
    with pytest.raises(ValueError):
        ScriptedBackend([entry(probs=(0.0,))])
    with pytest.raises(ValueError):
        ScriptedBackend([entry(probs=(1.2,))])
    with pytest.raises(ValueError):
        ScriptedBackend([entry(probs=())])


@pytest.mark.parametrize("probs", [(), (float("nan"),), (0.0,), (-0.5,), (1.5,),
                                   (float("inf"),), (0.5, float("nan"))])
def test_a_fixture_entry_checks_its_probabilities_when_made(probs):
    with pytest.raises(ValueError, match="token"):
        entry(probs=probs)


def test_a_duplicate_fixture_key_is_rejected():
    with pytest.raises(ValueError, match="duplicate fixture key.*'decompose', 'umbrella-q1'"):
        ScriptedBackend([entry(text="first"), entry(key="other"), entry(text="last")])
    # one key under two templates is two keys
    backend = ScriptedBackend([entry(), entry(template="verifier", text="other")])
    assert backend.complete("verifier", "umbrella-q1", "prompt",
                            unlimited_budget()).text == "other"


def test_response_probability_bounds_hold():
    gateway = make_gateway([entry(probs=(0.001, 0.5, 1.0))])
    response = gateway.generate(request(), unlimited_budget())
    assert min(response.token_probs) > 0.0
    assert max(response.token_probs) <= 1.0


def test_mock_latency_honored_on_simulated_clock():
    gateway = make_gateway([entry(latency_ms=1500.0)])
    clock = SimulatedClock()
    budget = TimeBudget(clock, deadline_at=10.0)
    response = gateway.generate(request(), budget)
    assert clock.now() == pytest.approx(1.5)
    assert response.latency == pytest.approx(1.5)


def test_latency_beyond_budget_times_out_at_deadline():
    gateway = make_gateway([entry(latency_ms=20_000.0)])
    clock = SimulatedClock()
    budget = TimeBudget(clock, deadline_at=10.0)
    with pytest.raises(BackendTimeout):
        gateway.generate(request(), budget)
    assert clock.now() == 10.0


def test_fixture_file_round_trip(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    rows = [entry().to_dict(), entry(key="k2", text="two", probs=(0.25,), latency_ms=7.0).to_dict()]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    backend = ScriptedBackend.from_jsonl(path)
    response = backend.complete("decompose", "k2", "prompt", unlimited_budget())
    assert response.text == "two"
    assert response.latency == pytest.approx(0.007)


def test_concurrent_reads_are_consistent():
    gateway = make_gateway([entry()])
    results = []

    def worker():
        for _ in range(50):
            results.append(gateway.generate(request(), unlimited_budget()).text)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert set(results) == {"scripted trace"}


def test_importing_the_package_loads_no_network_client():
    """The pipeline runs on scripted backends only: no module of the package
    pulls in an HTTP client, whose imports cost every run a few MB of RSS."""
    modules = ["dynarag", "dynarag.cli", "dynarag.pipeline", "dynarag.evalharness",
               "dynarag.fixtures"]
    network = ["http.client", "urllib.request", "ssl", "email"]
    code = (f"import sys\nimport {', '.join(modules)}\n"
            f"print([m for m in {network!r} if m in sys.modules])")
    src = str(Path(dynarag.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
