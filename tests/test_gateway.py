import dataclasses
import json
import socket
import struct
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dynarag.errors import (
    BackendTimeout,
    DuplicateTemplate,
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
from dynarag.orchestrator import STAGE_ERROR_FALLBACK, QueryTurn, SessionState
from dynarag.postanswer import FALLBACK_ANSWER
from dynarag.prompts import register_all
from dynarag.timing import SimulatedClock, TimeBudget


def make_gateway(entries=None) -> ModelGateway:
    gateway = ModelGateway(ScriptedBackend(entries or []))
    gateway.register_template("evaluator", "Q: {query} D: {domain}", {"query", "domain"})
    return gateway


def entry(template="evaluator", key="umbrella-q1", text="scripted trace",
          probs=(1.0, 1.0), latency_ms=0.0) -> FixtureEntry:
    return FixtureEntry(template, key, text, probs, latency_ms)


def request(key="umbrella-q1") -> ModelRequest:
    return ModelRequest(
        template_id="evaluator",
        slots={"query": "q", "domain": "other", "fixture_key": key},
    )


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
        gateway.generate(ModelRequest("nope", {"fixture_key": "k"}))


def test_missing_slot():
    gateway = make_gateway([entry()])
    with pytest.raises(MissingSlot):
        gateway.generate(ModelRequest("evaluator", {"query": "q"}))


def test_duplicate_template_rejected():
    gateway = make_gateway()
    with pytest.raises(DuplicateTemplate):
        gateway.register_template("evaluator", "again", set())


def test_empty_template_body_renders_empty():
    gateway = make_gateway([FixtureEntry("empty", "k", "ok", (0.5,), 0.0)])
    gateway.register_template("empty", "", set())
    assert gateway.template("empty").render({}) == ""
    response = gateway.generate(ModelRequest("empty", {"fixture_key": "k"}))
    assert response.text == "ok"


def test_vision_template_requires_image():
    gateway = ModelGateway(ScriptedBackend([entry(template="vis")]))
    gateway.register_template("vis", "{query}", {"query"}, requires_image=True)
    with pytest.raises(MissingSlot):
        gateway.generate(ModelRequest("vis", {"query": "q", "fixture_key": "umbrella-q1"}))
    ok = gateway.generate(
        ModelRequest("vis", {"query": "q", "fixture_key": "umbrella-q1"}, image_ref="img-1")
    )
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
    gateway.register_template("evaluator", "Q: {query} D: {domain}", {"query", "domain"})

    originals = [gateway.generate(request()), gateway.generate(request("second"))]

    replay = ModelGateway(ScriptedBackend.from_jsonl(log))
    replay.register_template("evaluator", "Q: {query} D: {domain}", {"query", "domain"})
    replays = [replay.generate(request()), replay.generate(request("second"))]
    assert replays == originals

    with pytest.raises(UnknownFixture):
        replay.generate(request("never-recorded"))


def test_fixture_file_round_trip(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    rows = [entry().to_dict(), entry(key="k2", text="two", probs=(0.25,), latency_ms=7.0).to_dict()]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    backend = ScriptedBackend.from_jsonl(path)
    response = backend.complete("evaluator", "k2", "prompt")
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
        gateway = ModelGateway(RemoteBackend(endpoint))
        gateway.register_template("evaluator", "{query}", {"query"})
        response = gateway.generate(
            ModelRequest("evaluator", {"query": "q", "fixture_key": "abc"})
        )
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


def _remote_gateway(endpoint: str) -> ModelGateway:
    gateway = ModelGateway(RemoteBackend(endpoint))
    gateway.register_template("evaluator", "{query}", {"query"})
    return gateway


def test_remote_backend_closed_port_raises_gateway_error():
    with pytest.raises(GatewayError):
        _remote_gateway(_closed_port_url()).generate(
            ModelRequest("evaluator", {"query": "q", "fixture_key": "k"})
        )


@pytest.mark.parametrize("key", sorted(_BROKEN_REPLIES))
def test_remote_backend_broken_reply_raises_gateway_error(key):
    with _serving(_BrokenHandler) as endpoint:
        with pytest.raises(GatewayError):
            _remote_gateway(endpoint).generate(
                ModelRequest("evaluator", {"query": "q", "fixture_key": key})
            )


def test_answer_turn_over_closed_port_falls_back(world_runtime):
    gateway = ModelGateway(RemoteBackend(_closed_port_url()))
    register_all(gateway)
    runtime = dataclasses.replace(world_runtime, gateway=gateway)
    turn = QueryTurn("cafe-q1", 0, "Who founded this cafe?", "img-cafe", 10.0)
    answer, trace = runtime.orchestrator(clock=SimulatedClock()).answer_turn(
        turn, SessionState("cafe-q1", 30.0)
    )
    assert answer == FALLBACK_ANSWER
    assert trace.answer.fallback
    assert STAGE_ERROR_FALLBACK in trace.stages
