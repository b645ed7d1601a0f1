import dataclasses
import hashlib
import json
import socket
import struct
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dynarag.errors import (
    BackendTimeout,
    GatewayError,
    MissingSlot,
    UnknownFixture,
    UnknownTemplate,
)
from dynarag.gateway import (
    FixtureEntry,
    ModelGateway,
    ModelRequest,
    Recorder,
    RemoteBackend,
    ScriptedBackend,
    last_line_json,
)
from dynarag.evalharness import EvalRecord, evaluate, group_sessions
from dynarag.fixtures import eval_rows, model_entries
from dynarag.orchestrator import STAGE_ERROR_FALLBACK, QueryTurn, SessionState
from dynarag.postanswer import FALLBACK_ANSWER
from dynarag.prompts import TEMPLATES, PromptTemplate
from dynarag.timing import SimulatedClock, TimeBudget


def make_gateway(entries=None) -> ModelGateway:
    return ModelGateway(ScriptedBackend(entries or []))


def entry(template="decompose", key="umbrella-q1", text="scripted trace",
          probs=(1.0, 1.0), latency_ms=0.0) -> FixtureEntry:
    return FixtureEntry(template, key, text, probs, latency_ms)


def request(key="umbrella-q1") -> ModelRequest:
    """A ``decompose`` request: the one template that needs no image."""
    return ModelRequest(
        template_id="decompose",
        slots={"query": "q", "reasoning": "1. r", "visual_context": "", "history": ""},
        fixture_key=key,
    )


# Every template written out by hand; each names the turn's question ``query``:
# template id -> (required slots, requires an image).
REGISTERED = {
    "evaluator": ({"query", "domain", "examples", "history"}, True),
    "object_list": ({"query", "object_num"}, True),
    "object_select": ({"query", "object_list"}, True),
    "decompose": ({"query", "reasoning", "visual_context", "history"}, False),
    "post_answer": ({"query", "evidence", "history"}, True),
    "verifier": ({"query", "evidence", "answer"}, True),
}


def test_templates_read_their_slots_from_their_bodies():
    assert {tid: (set(t.required_slots), t.requires_image)
            for tid, t in TEMPLATES.items()} == REGISTERED
    assert all(t.template_id == tid for tid, t in TEMPLATES.items())


class CapturingBackend:
    def __init__(self):
        self.calls = []

    def complete(self, template_id, fixture_key, prompt, budget=None):
        self.calls.append((template_id, fixture_key, prompt))
        return ScriptedBackend([entry(template_id, fixture_key)]).complete(
            template_id, fixture_key, prompt, budget)


DEMO_PROMPTS_SHA256 = "286db9387ae1655ab6271bd12bf44a4bf177d0ed16297d05de1155396a232a87"


def test_demo_eval_sends_the_pinned_prompts(world_runtime):
    """Every prompt a demo-world eval sends, in order, byte for byte.

    The digest is the sha256 of ``json.dumps`` of the (template_id,
    fixture_key, prompt) list. It was computed at commit 6be90cc, before the
    modules took one per-turn ``TurnModel`` in place of the gateway and the
    turn's key, image, question, history and budget as separate arguments.
    """
    calls = []

    class Capturing:
        inner = ScriptedBackend(model_entries())

        def complete(self, template_id, fixture_key, prompt, budget=None):
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
    names = sorted(REGISTERED[template_id][0])
    slots = {name: f"{value} [{name}]" for name in names}
    template = TEMPLATES[template_id]
    prompt = template.render(slots)
    assert prompt == oracle_render(template.body, slots)
    for name in names:
        assert prompt.count(f"{value} [{name}]") == template.body.count("{" + name + "}")

    backend = CapturingBackend()
    ModelGateway(backend).generate(ModelRequest(template_id, slots, "k", image_ref="img"))
    assert backend.calls == [(template_id, "k", prompt)]


def test_a_bare_gateway_serves_every_template():
    entries = model_entries()
    gateway = ModelGateway(ScriptedBackend(entries))
    served = set()
    for template_id, (names, _) in REGISTERED.items():
        fixture = next(e for e in entries if e.template_id == template_id)
        response = gateway.generate(ModelRequest(
            template_id, {name: "x" for name in names}, fixture.fixture_key,
            image_ref="img"))
        assert response.text == fixture.text
        served.add(template_id)
    assert served == set(TEMPLATES)


def test_mock_echoes_scripted_fixture():
    gateway = make_gateway([entry()])
    response = gateway.generate(request())
    assert response.text == "scripted trace"
    assert response.token_probs == (1.0, 1.0)


@pytest.mark.parametrize("last_line", ['["a"]', '5', '"text"', 'null'])
def test_last_line_json_rejects_anything_but_an_object(last_line):
    gateway = make_gateway([entry(text=f"reasoning first\n{last_line}")])
    with pytest.raises(ValueError):
        last_line_json(gateway.generate(request()))
    assert gateway.try_generate(request(), last_line_json) is None


def test_last_line_json_returns_the_object_on_the_last_line():
    gateway = make_gateway([entry(text='step 1\n{"answer": "x"}\n')])
    assert last_line_json(gateway.generate(request())) == {"answer": "x"}


def test_try_generate_lets_a_decoder_bug_propagate():
    def broken(response):
        return len(5)  # a TypeError is a bug, not an unparseable reply

    gateway = make_gateway([entry(text='{"answer": "x"}')])
    with pytest.raises(TypeError):
        gateway.try_generate(request(), broken)


def test_same_request_is_byte_identical():
    gateway = make_gateway([entry()])
    first = gateway.generate(request())
    second = gateway.generate(request())
    assert first == second


def test_missing_fixture_raises_unknown_fixture():
    gateway = make_gateway([entry()])
    with pytest.raises(UnknownFixture):
        gateway.generate(request(key="no-such-key"))


def test_unknown_template():
    gateway = make_gateway()
    with pytest.raises(UnknownTemplate):
        gateway.generate(ModelRequest("nope", {}, "k"))


def test_missing_slot():
    gateway = make_gateway([entry()])
    with pytest.raises(MissingSlot):
        gateway.generate(ModelRequest("decompose", {"query": "q"}, "umbrella-q1"))


def test_empty_template_body_renders_empty(monkeypatch):
    monkeypatch.setitem(TEMPLATES, "empty", PromptTemplate("empty", "", requires_image=False))
    gateway = make_gateway([FixtureEntry("empty", "k", "ok", (0.5,), 0.0)])
    assert TEMPLATES["empty"].render({}) == ""
    response = gateway.generate(ModelRequest("empty", {}, "k"))
    assert response.text == "ok"


def test_vision_template_requires_image():
    gateway = ModelGateway(ScriptedBackend([entry(template="evaluator")]))
    slots = {"query": "q", "domain": "other", "examples": "", "history": ""}
    with pytest.raises(MissingSlot):
        gateway.generate(ModelRequest("evaluator", slots, "umbrella-q1"))
    ok = gateway.generate(ModelRequest("evaluator", slots, "umbrella-q1", image_ref="img-1"))
    assert ok.text == "scripted trace"


def test_fixture_probabilities_validated_at_load():
    with pytest.raises(ValueError):
        ScriptedBackend([entry(probs=(0.0,))])
    with pytest.raises(ValueError):
        ScriptedBackend([entry(probs=(1.2,))])
    with pytest.raises(ValueError):
        ScriptedBackend([entry(probs=())])


def test_response_probability_bounds_hold():
    gateway = make_gateway([entry(probs=(0.001, 0.5, 1.0))])
    response = gateway.generate(request())
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


def test_record_then_replay_bit_identical(tmp_path):
    log = tmp_path / "recording.jsonl"
    scripted = ScriptedBackend([entry(), entry(key="second", text="other", probs=(0.9,))])
    gateway = ModelGateway(Recorder(scripted, log))

    originals = [gateway.generate(request()), gateway.generate(request("second"))]

    replay = ModelGateway(ScriptedBackend.from_jsonl(log))
    replays = [replay.generate(request()), replay.generate(request("second"))]
    assert replays == originals

    with pytest.raises(UnknownFixture):
        replay.generate(request("never-recorded"))


def test_fixture_file_round_trip(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    rows = [entry().to_dict(), entry(key="k2", text="two", probs=(0.25,), latency_ms=7.0).to_dict()]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    backend = ScriptedBackend.from_jsonl(path)
    response = backend.complete("decompose", "k2", "prompt")
    assert response.text == "two"
    assert response.latency == pytest.approx(0.007)


def test_concurrent_reads_are_consistent():
    gateway = make_gateway([entry()])
    results = []

    def worker():
        for _ in range(50):
            results.append(gateway.generate(request()).text)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert set(results) == {"scripted trace"}


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        body = json.dumps(
            {"text": f"echo:{payload['fixture_key']}", "token_probs": [0.8], "latency_ms": 3.0}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextmanager
def _serving(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        server.server_close()


def test_remote_backend_round_trip():
    with _serving(_Handler) as endpoint:
        response = ModelGateway(RemoteBackend(endpoint)).generate(request("abc"))
        assert response.text == "echo:abc"
        assert response.token_probs == (0.8,)


def _reply(body: bytes, status: bytes = b"200 OK") -> bytes:
    return b"HTTP/1.0 " + status + b"\r\n\r\n" + body


# Raw replies served per fixture key by _BrokenHandler.
_BROKEN_REPLIES = {
    "not-json": _reply(b"<html>gateway error</html>"),
    "missing-text": _reply(json.dumps({"token_probs": [0.8]}).encode("utf-8")),
    "not-an-object": _reply(json.dumps(["echo", [0.8]]).encode("utf-8")),
    "prob-out-of-range": _reply(
        json.dumps({"text": "x", "token_probs": [1.5]}).encode("utf-8")),
    "http-500": _reply(b"{}", b"500 Internal Server Error"),
    "no-reply": b"",
    "not-http": b"garbage\r\n\r\n",
    "reset": None,  # abortive close: the client reads ECONNRESET
}


class _BrokenHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        reply = _BROKEN_REPLIES[payload["fixture_key"]]
        if reply is None:
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                       struct.pack("ii", 1, 0))
            self.connection.close()
        else:
            self.wfile.write(reply)

    def log_message(self, *args):
        pass


def _closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/"


def test_remote_backend_closed_port_raises_gateway_error():
    with pytest.raises(GatewayError):
        ModelGateway(RemoteBackend(_closed_port_url())).generate(request("k"))


@pytest.mark.parametrize("key", sorted(_BROKEN_REPLIES))
def test_remote_backend_broken_reply_raises_gateway_error(key):
    with _serving(_BrokenHandler) as endpoint:
        with pytest.raises(GatewayError):
            ModelGateway(RemoteBackend(endpoint)).generate(request(key))


def test_answer_turn_over_closed_port_falls_back(world_runtime):
    runtime = dataclasses.replace(
        world_runtime, gateway=ModelGateway(RemoteBackend(_closed_port_url())))
    turn = QueryTurn("cafe-q1", 0, "Who founded this cafe?", "img-cafe", 10.0)
    answer, trace = runtime.orchestrator(clock=SimulatedClock()).answer_turn(
        turn, SessionState("cafe-q1", 30.0)
    )
    assert answer == FALLBACK_ANSWER
    assert trace.answer.fallback
    assert STAGE_ERROR_FALLBACK in trace.stages
