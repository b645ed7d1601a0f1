"""Exception types shared across the pipeline, and the JSONL reader behind
every input file's ``ParseError``."""

from __future__ import annotations

import json
from pathlib import Path

import orjson


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


# --- input files -----------------------------------------------------------

class ParseError(DynaragError):
    """An input file's line failed to parse; carries the path and the 1-based
    line number."""

    def __init__(self, message: str, path: str | Path, line: int):
        super().__init__(f"{path}: line {line}: {message}")
        self.path = path
        self.line = line


NUMBER = (int, float)

# Nesting this deep could crash orjson on a thread stack smaller than the main
# thread's. It takes as many ``{`` or ``[`` and as many closing brackets.
_DEEP = 10_000


def typed(value, kind, name: str):
    """``value`` if it is a ``kind`` (a type or a tuple of types); otherwise
    ValueError naming the field. A bool is not taken for a number, although
    Python counts it as an int. The ``from_dict`` parsers check each JSON
    value with it, so a wrong-typed field is reported with its line."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kind) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{name}: expected {names}, got {type(value).__name__}")
    return value


def read_jsonl(path: str | Path, parse) -> list:
    """``parse`` of each non-blank line's JSON object, in file order. A line
    that is not a JSON object, or that ``parse`` rejects with KeyError,
    ValueError or OverflowError (``Infinity`` where an integer belongs),
    raises ParseError naming the path and the line.

    orjson decodes each line. A line it rejects goes to ``json.loads``, which
    reads Python's extensions (``NaN``, ``Infinity``, ``1e309``, a lone
    surrogate escape) and words the error of a malformed line. The two agree
    on every line orjson accepts but one with an integer outside
    [-2**63, 2**64), which orjson reads as the nearest float.

    orjson nests without limit and overflows the C stack (a crash, not an
    error) past some 50,000 levels, so a line that could nest ``_DEEP``
    levels goes to ``json.loads`` alone. Its RecursionError, past the
    interpreter's recursion limit, is that line's ParseError."""
    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                try:
                    if len(line) >= 2 * _DEEP and line.count("{") + line.count("[") >= _DEEP:
                        raw = json.loads(line)
                    else:
                        raw = orjson.loads(line)
                except orjson.JSONDecodeError:
                    raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
                items.append(parse(raw))
            except KeyError as exc:
                raise ParseError(f"missing key {exc}", path, lineno) from exc
            except (ValueError, OverflowError, RecursionError) as exc:
                raise ParseError(str(exc), path, lineno) from exc
    return items


# --- search index ----------------------------------------------------------

class DimensionMismatch(DynaragError):
    pass
