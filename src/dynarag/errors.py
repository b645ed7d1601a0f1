"""Exception types shared across the pipeline."""

from __future__ import annotations


class DynaragError(Exception):
    """Base class for all library errors."""


# --- model gateway ---------------------------------------------------------

class GatewayError(DynaragError):
    """Base class for model-gateway failures."""


class UnknownTemplate(GatewayError):
    pass


class DuplicateTemplate(GatewayError):
    pass


class MissingSlot(GatewayError):
    pass


class UnknownFixture(GatewayError):
    """Scripted/replay backend has no entry for the requested key."""


class BackendTimeout(GatewayError):
    """Backend could not answer within the remaining time budget."""


class BackendError(GatewayError):
    """Backend transport failed or its response could not be decoded."""


# --- search index ----------------------------------------------------------

class ParseError(DynaragError):
    """Corpus line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IndexNotBuilt(DynaragError):
    pass


class DimensionMismatch(DynaragError):
    pass


# --- agents and reranker ---------------------------------------------------

class EmptyCandidates(DynaragError):
    pass


class DetectorUnavailable(DynaragError):
    pass


class EncoderUnavailable(DynaragError):
    pass


class ScorerUnavailable(DynaragError):
    pass
