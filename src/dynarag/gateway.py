"""Single gateway through which every model call flows.

A ``ModelRequest`` names a template in ``prompts.TEMPLATES``, its slot values
and the fixture key a scripted backend looks the reply up by.
``ModelGateway(backend)`` needs no further set-up.

Backends:
  - ScriptedBackend: deterministic responses loaded from a JSONL fixture file,
    keyed by (template_id, fixture_key). Doubles as the replay backend for
    recordings made with Recorder.
  - Recorder: wraps any backend and appends each response to a JSONL file in
    the same fixture format, so a run recorded once replays bit-identically.
  - RemoteBackend: minimal JSON-over-HTTP client mirroring the request and
    response shapes. Socket timeouts raise BackendTimeout; any other transport
    failure or undecodable body raises BackendError. Optional; nothing in the
    pipeline requires it.

Fixture file format (one JSON object per line):
  {"template_id": ..., "fixture_key": ..., "text": ..., "token_probs": [...],
   "latency_ms": ...}
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    NUMBER,
    BackendError,
    BackendTimeout,
    GatewayError,
    MissingSlot,
    UnknownFixture,
    UnknownTemplate,
    read_jsonl,
    typed,
)
from .prompts import TEMPLATES
from .timing import TimeBudget

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ModelRequest:
    template_id: str
    slots: dict[str, str]
    fixture_key: str
    image_ref: str | None = None


@dataclass(frozen=True)
class ModelResponse:
    text: str
    token_probs: tuple[float, ...]
    latency: float  # seconds

    def __post_init__(self):
        for p in self.token_probs:
            if not (0.0 < p <= 1.0):
                raise ValueError(f"token probability {p} outside (0, 1]")


@dataclass(frozen=True)
class FixtureEntry:
    template_id: str
    fixture_key: str
    text: str
    token_probs: tuple[float, ...]
    latency_ms: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict) -> "FixtureEntry":
        return cls(
            template_id=typed(raw["template_id"], str, "template_id"),
            fixture_key=typed(raw["fixture_key"], str, "fixture_key"),
            text=typed(raw["text"], str, "text"),
            token_probs=tuple(float(typed(p, NUMBER, "token_probs item"))
                              for p in typed(raw["token_probs"], list, "token_probs")),
            latency_ms=float(typed(raw.get("latency_ms", 0.0), NUMBER, "latency_ms")),
        )

    def to_dict(self) -> dict:
        return {
            "template_id": self.template_id,
            "fixture_key": self.fixture_key,
            "text": self.text,
            "token_probs": list(self.token_probs),
            "latency_ms": self.latency_ms,
        }


class ScriptedBackend:
    """Immutable fixture-keyed backend. Safe for concurrent reads."""

    def __init__(self, entries: list[FixtureEntry] | None = None):
        self._entries: dict[tuple[str, str], FixtureEntry] = {}
        for entry in entries or []:
            self.add(entry)

    def add(self, entry: FixtureEntry) -> None:
        if not entry.token_probs:
            raise ValueError(
                f"fixture ({entry.template_id}, {entry.fixture_key}) has no token probabilities"
            )
        for p in entry.token_probs:
            if not (0.0 < p <= 1.0):
                raise ValueError(
                    f"fixture ({entry.template_id}, {entry.fixture_key}) "
                    f"probability {p} outside (0, 1]"
                )
        self._entries[(entry.template_id, entry.fixture_key)] = entry

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        backend = cls()
        read_jsonl(path, lambda raw: backend.add(FixtureEntry.from_dict(raw)))
        return backend

    def complete(self, template_id: str, fixture_key: str, prompt: str,
                 budget: TimeBudget | None = None) -> ModelResponse:
        entry = self._entries.get((template_id, fixture_key))
        if entry is None:
            raise UnknownFixture(
                f"no scripted response for ({template_id!r}, {fixture_key!r})"
            )
        latency = entry.latency_ms / 1000.0
        if budget is not None:
            budget.spend(latency)
        return ModelResponse(entry.text, entry.token_probs, latency)


class Recorder:
    """Append every response of the wrapped backend to a JSONL fixture file."""

    def __init__(self, inner, path: str | Path):
        self._inner = inner
        self._path = Path(path)
        self._lock = threading.Lock()

    def complete(self, template_id: str, fixture_key: str, prompt: str,
                 budget: TimeBudget | None = None) -> ModelResponse:
        response = self._inner.complete(template_id, fixture_key, prompt, budget)
        entry = FixtureEntry(
            template_id=template_id,
            fixture_key=fixture_key,
            text=response.text,
            token_probs=response.token_probs,
            latency_ms=response.latency * 1000.0,
        )
        with self._lock, open(self._path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry.to_dict()) + "\n")
        return response


class RemoteBackend:
    """JSON-over-HTTP client mirroring the request/response shapes.

    POSTs {"template_id", "fixture_key", "prompt"} and expects
    {"text", "token_probs", "latency_ms"} back.
    """

    def __init__(self, endpoint: str, timeout_s: float = 10.0):
        self.endpoint = endpoint
        self.timeout_s = timeout_s

    def complete(self, template_id: str, fixture_key: str, prompt: str,
                 budget: TimeBudget | None = None) -> ModelResponse:
        payload = json.dumps(
            {"template_id": template_id, "fixture_key": fixture_key, "prompt": prompt}
        ).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        timeout = self.timeout_s
        if budget is not None:
            timeout = min(timeout, max(budget.remaining(), 0.0))
            if timeout <= 0:
                raise BackendTimeout("no time left for remote call")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as raw:
                data = raw.read()
        except TimeoutError as exc:
            raise BackendTimeout(str(exc)) from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise BackendTimeout(str(exc)) from exc
            raise BackendError(f"remote call failed: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BackendError(f"remote call failed: {exc!r}") from exc
        try:
            body = json.loads(data.decode("utf-8"))
            return ModelResponse(
                text=body["text"],
                token_probs=tuple(float(p) for p in body["token_probs"]),
                latency=float(body.get("latency_ms", 0.0)) / 1000.0,
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendError(f"bad response body: {exc!r}") from exc


@dataclass
class ModelGateway:
    """The pipeline's prompt templates (``prompts.TEMPLATES``) over a
    pluggable completion backend."""

    backend: ScriptedBackend | Recorder | RemoteBackend

    def generate(self, request: ModelRequest, budget: TimeBudget | None = None) -> ModelResponse:
        template = TEMPLATES.get(request.template_id)
        if template is None:
            raise UnknownTemplate(f"no template {request.template_id!r}")
        if template.requires_image and request.image_ref is None:
            raise MissingSlot(
                f"template {request.template_id!r} requires an image reference"
            )
        prompt = template.render(request.slots)
        return self.backend.complete(request.template_id, request.fixture_key, prompt, budget)

    def try_generate(self, request: ModelRequest, decode,
                     budget: TimeBudget | None = None):
        """``decode(generate(request))``, or None when the call fails or its
        reply does not decode. ``BackendTimeout`` propagates: past the deadline
        the turn ends instead of falling back and working on."""
        try:
            return decode(self.generate(request, budget))
        except BackendTimeout:
            raise
        except (GatewayError, ValueError, KeyError, IndexError):
            return None


def last_line_json(response: ModelResponse) -> dict:
    """The JSON object on the last line of a reply (models reason first).
    Any other JSON value there raises ValueError, as unparseable text does."""
    value = json.loads(response.text.strip().splitlines()[-1])
    if not isinstance(value, dict):
        raise ValueError(f"last line is a JSON {type(value).__name__}, not an object")
    return value
