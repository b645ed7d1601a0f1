"""Exception types shared across the pipeline, and the JSONL reader behind
every input file's ``ParseError``."""

from __future__ import annotations

import json
from pathlib import Path


class DynaragError(Exception):
    """Base class for all library errors."""


# --- model gateway ---------------------------------------------------------

class GatewayError(DynaragError):
    """Base class for model-gateway failures."""


class UnknownTemplate(GatewayError):
    pass


class MissingSlot(GatewayError):
    pass


class UnknownFixture(GatewayError):
    """Scripted/replay backend has no entry for the requested key."""


class BackendTimeout(GatewayError):
    """Backend could not answer within the remaining time budget."""


class BackendError(GatewayError):
    """Backend transport failed or its response could not be decoded."""


# --- input files -----------------------------------------------------------

class ParseError(DynaragError):
    """An input file's line failed to parse; carries the path and the 1-based
    line number."""

    def __init__(self, message: str, path: str | Path, line: int):
        super().__init__(f"{path}: line {line}: {message}")
        self.path = path
        self.line = line


def read_jsonl(path: str | Path, parse) -> list:
    """``parse`` of each non-blank line's JSON object, in file order. A line
    that is not a JSON object, or that ``parse`` rejects with KeyError or
    ValueError, raises ParseError naming the path and the line."""
    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
                items.append(parse(raw))
            except KeyError as exc:
                raise ParseError(f"missing key {exc}", path, lineno) from exc
            except ValueError as exc:
                raise ParseError(str(exc), path, lineno) from exc
    return items


# --- search index ----------------------------------------------------------

class IndexNotBuilt(DynaragError):
    pass


class DimensionMismatch(DynaragError):
    pass


# --- agents and reranker ---------------------------------------------------

class EmptyCandidates(DynaragError):
    pass


class DetectorUnavailable(DynaragError):
    pass


class ScorerUnavailable(DynaragError):
    pass
