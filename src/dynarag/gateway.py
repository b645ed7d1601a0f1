"""Single gateway through which every model call flows.

A ``ModelRequest`` names a template in ``prompts.TEMPLATES``, its slot values
and the fixture key a scripted backend looks the reply up by.
``ModelGateway(backend)`` needs no further set-up.

Every model call of a turn shares the turn's context: the fixture key, the
image, the question, the dialogue history and the time budget.
``TurnModel`` binds the gateway to that context once per turn; its
``generate(template_id, **slots)`` fills the ``query`` and ``history``
slots, builds the ``ModelRequest`` and calls ``ModelGateway.generate`` with
the turn's budget, and ``try_generate(template_id, decode, **slots)`` decodes
that reply or gives None. A model call has that one path, ``TurnModel`` ->
``ModelGateway.generate`` -> backend, and always spends from a budget. The
modules that prompt the model take a ``TurnModel`` and hold no gateway of
their own.
Every turn has an image (``QueryTurn`` checks it), and the reply scripted for
a turn's fixture key is the reply to that turn's image, so a request does not
carry the image itself.

The one backend, ``ScriptedBackend``, answers each call with the reply
scripted for its (template_id, fixture_key), loaded from a JSONL fixture
file. Two entries for one key raise ValueError, as a duplicate url or image
id does.

Fixture file format (one JSON object per line):
  {"template_id": ..., "fixture_key": ..., "text": ..., "token_probs": [...],
   "latency_ms": ...}
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import (
    NUMBER,
    BackendTimeout,
    GatewayError,
    UnknownFixture,
    UnknownTemplate,
    read_jsonl,
    typed,
)
from .prompts import TEMPLATES
from .timing import TimeBudget


@dataclass(frozen=True)
class ModelRequest:
    template_id: str
    slots: dict[str, str]
    fixture_key: str


@dataclass(frozen=True)
class ModelResponse:
    text: str
    token_probs: tuple[float, ...]
    latency: float  # seconds


@dataclass(frozen=True)
class FixtureEntry:
    """One scripted reply. Its token probabilities and latency are checked
    here, where it is made, so every response built from it holds them."""

    template_id: str
    fixture_key: str
    text: str
    token_probs: tuple[float, ...]
    latency_ms: float = 0.0

    def __post_init__(self):
        # json reads NaN and Infinity: a NaN latency would stop the clock
        if not (math.isfinite(self.latency_ms) and self.latency_ms >= 0):
            raise ValueError(f"latency_ms must be finite and >= 0, got {self.latency_ms}")
        if not self.token_probs:
            raise ValueError("token_probs is empty")
        for p in self.token_probs:
            if not (0.0 < p <= 1.0):  # False for NaN too
                raise ValueError(f"token probability {p} outside (0, 1]")

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
        return {**asdict(self), "token_probs": list(self.token_probs)}


class ScriptedBackend:
    """Immutable fixture-keyed backend. Safe for concurrent reads."""

    def __init__(self, entries: list[FixtureEntry] | None = None):
        self._entries: dict[tuple[str, str], FixtureEntry] = {}
        for entry in entries or []:
            key = (entry.template_id, entry.fixture_key)
            if key in self._entries:
                raise ValueError(f"duplicate fixture key in model fixtures: {key}")
            self._entries[key] = entry

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        return cls(read_jsonl(path, FixtureEntry.from_dict))

    def complete(self, template_id: str, fixture_key: str, prompt: str,
                 budget: TimeBudget) -> ModelResponse:
        entry = self._entries.get((template_id, fixture_key))
        if entry is None:
            raise UnknownFixture(
                f"no scripted response for ({template_id!r}, {fixture_key!r})"
            )
        latency = entry.latency_ms / 1000.0
        budget.spend(latency)
        return ModelResponse(entry.text, entry.token_probs, latency)


@dataclass
class ModelGateway:
    """The pipeline's prompt templates (``prompts.TEMPLATES``) over a
    pluggable completion backend."""

    backend: ScriptedBackend

    def generate(self, request: ModelRequest, budget: TimeBudget) -> ModelResponse:
        template = TEMPLATES.get(request.template_id)
        if template is None:
            raise UnknownTemplate(f"no template {request.template_id!r}")
        prompt = template.render(request.slots)
        return self.backend.complete(request.template_id, request.fixture_key, prompt, budget)


@dataclass(frozen=True)
class TurnModel:
    """The gateway bound to one turn: every call is keyed by the turn's
    fixture key, gets the turn's question and history as its ``query`` and
    ``history`` slots, and draws on the turn's budget. ``image_ref`` is the
    turn's image, which the image agent and the reranker look up."""

    gateway: ModelGateway
    fixture_key: str
    image_ref: str
    query: str
    history: str
    budget: TimeBudget

    def generate(self, template_id: str, **slots: str) -> ModelResponse:
        request = ModelRequest(template_id,
                               {"query": self.query, "history": self.history, **slots},
                               self.fixture_key)
        return self.gateway.generate(request, self.budget)

    def try_generate(self, template_id: str, decode, **slots: str):
        """``decode(generate(template_id, **slots))``, or None when the call
        fails or its reply does not decode. ``BackendTimeout`` propagates:
        past the deadline the turn ends instead of falling back and working
        on."""
        try:
            return decode(self.generate(template_id, **slots))
        except BackendTimeout:
            raise
        except (GatewayError, ValueError, KeyError, IndexError):
            return None


def last_line_json(response: ModelResponse) -> dict:
    """The JSON object on the last line of a reply (models reason first).
    Any other JSON value there, or one nested past the recursion limit,
    raises ValueError, as unparseable text does."""
    try:
        value = json.loads(response.text.strip().splitlines()[-1])
    except RecursionError as exc:
        raise ValueError("last line nests too deep to decode") from exc
    if not isinstance(value, dict):
        raise ValueError(f"last line is a JSON {type(value).__name__}, not an object")
    return value
