"""Dataset loading, pipeline evaluation and metric reporting.

Accuracy is a rule-based oracle (normalized substring / equality; fallback
answers always score 0), overlap is token recall against the ground truth
after lowercasing, punctuation stripping and stopword removal. Reports carry
every per-record row so the headline averages can be recomputed exactly from
the JSON.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import NUMBER, read_jsonl, typed
from .orchestrator import PipelineTrace, QueryTurn, check_session
from .pipeline import PipelineRuntime
from .postanswer import FALLBACK_ANSWER
from .timing import SimulatedClock

SCHEMA_VERSION = 1

_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")

TAXONOMY_AXES = ("branch", "dynamism", "category", "domain")


def _load_stopwords() -> frozenset[str]:
    text = resources.files("dynarag").joinpath("assets/stopwords.txt").read_text()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


STOPWORDS = _load_stopwords()


def normalize_text(text: str) -> str:
    text = _PUNCT_RE.sub(" ", text.lower())
    return _WS_RE.sub(" ", text).strip()


def content_tokens(text: str) -> set[str]:
    return {t for t in normalize_text(text).split() if t not in STOPWORDS}


def score_accuracy(final_answer: str, ground_truth: str) -> int:
    """1 iff the normalized truth appears in the normalized answer."""
    answer = normalize_text(final_answer)
    truth = normalize_text(ground_truth)
    if answer == normalize_text(FALLBACK_ANSWER):
        return 0
    if not truth:
        return 0
    return 1 if (truth == answer or truth in answer) else 0


def score_overlap(final_answer: str, ground_truth: str) -> float:
    """Token recall of the ground truth inside the answer."""
    truth_tokens = content_tokens(ground_truth)
    if not truth_tokens:
        return 0.0
    answer_tokens = content_tokens(final_answer)
    return len(truth_tokens & answer_tokens) / len(truth_tokens)


@dataclass(frozen=True)
class EvalRecord:
    turn: QueryTurn
    ground_truth: str
    taxonomy: dict[str, str]

    @classmethod
    def from_dict(cls, raw: dict, default_deadline_s: float) -> "EvalRecord":
        truth = typed(raw["ground_truth"], str, "ground_truth")
        if not truth:
            raise ValueError("ground_truth must be non-empty")
        turn = QueryTurn(
            session_id=typed(raw["session_id"], str, "session_id"),
            turn_index=int(typed(raw.get("turn_index", 0), NUMBER, "turn_index")),
            question=typed(raw["question"], str, "question"),
            image_ref=typed(raw.get("image_ref"), (str, type(None)), "image_ref"),
            deadline_s=float(typed(raw.get("deadline_s", default_deadline_s), NUMBER,
                                   "deadline_s")),
        )
        labels = typed(raw.get("taxonomy", {}), dict, "taxonomy")
        taxonomy = {
            "dynamism": str(labels.get("dynamism", "static")),
            "category": str(labels.get("category", "unknown")),
            "domain": str(labels.get("domain", "other")),
        }
        return cls(turn=turn, ground_truth=truth, taxonomy=taxonomy)


def load_dataset(path: str | Path, default_deadline_s: float) -> list[EvalRecord]:
    return read_jsonl(path, lambda raw: EvalRecord.from_dict(raw, default_deadline_s))


def group_sessions(records: list[EvalRecord]) -> dict[str, list[EvalRecord]]:
    """Records by session_id, sessions in id order and each in turn order.

    Every session is checked here, so a session whose turn indices are not
    0..n-1 raises ValueError before any turn runs.
    """
    sessions: dict[str, list[EvalRecord]] = {}
    for record in records:
        sessions.setdefault(record.turn.session_id, []).append(record)
    for group in sessions.values():
        group.sort(key=lambda r: r.turn.turn_index)
        check_session([r.turn for r in group])
    return dict(sorted(sessions.items()))


@dataclass
class EvalReport:
    accuracy: float  # percentage
    overlap: float   # percentage
    elapse: float    # mean seconds
    n: int
    per_taxonomy: dict[str, dict[str, dict]]
    records: list[dict] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "accuracy": self.accuracy,
                "overlap": self.overlap,
                "elapse": self.elapse,
                "n": self.n,
                "per_taxonomy": self.per_taxonomy,
                "records": self.records,
            },
            indent=2,
            sort_keys=True,
        )

    def to_markdown(self) -> str:
        lines = [
            "| Group | Accuracy ↑ | Overlap ↑ | Elapse ↓ | n |",
            "|---|---|---|---|---|",
            f"| overall | {self.accuracy:.2f} | {self.overlap:.2f} "
            f"| {self.elapse:.3f} | {self.n} |",
        ]
        for axis in TAXONOMY_AXES:
            for label, values in sorted(self.per_taxonomy.get(axis, {}).items()):
                lines.append(
                    f"| {axis}:{label} | {values['accuracy']:.2f} "
                    f"| {values['overlap']:.2f} | {values['elapse']:.3f} "
                    f"| {values['n']} |"
                )
        return "\n".join(lines) + "\n"


def _aggregate(rows: list[dict]) -> dict:
    n = len(rows)
    if n == 0:
        return {"accuracy": 0.0, "overlap": 0.0, "elapse": 0.0, "n": 0}
    return {
        "accuracy": 100.0 * sum(r["accuracy"] for r in rows) / n,
        "overlap": 100.0 * sum(r["overlap"] for r in rows) / n,
        "elapse": sum(r["elapse"] for r in rows) / n,
        "n": n,
    }


def build_report(rows: list[dict]) -> EvalReport:
    overall = _aggregate(rows)
    per_taxonomy: dict[str, dict[str, dict]] = {}
    for axis in TAXONOMY_AXES:
        groups: dict[str, list[dict]] = {}
        for row in rows:
            groups.setdefault(row[axis], []).append(row)
        per_taxonomy[axis] = {label: _aggregate(g) for label, g in groups.items()}
    return EvalReport(
        accuracy=overall["accuracy"],
        overlap=overall["overlap"],
        elapse=overall["elapse"],
        n=overall["n"],
        per_taxonomy=per_taxonomy,
        records=rows,
    )


def _row(record: EvalRecord, final_answer: str,
         trace: PipelineTrace, elapse: float) -> dict:
    return {
        "session_id": record.turn.session_id,
        "turn_index": record.turn.turn_index,
        "question": record.turn.question,
        "final_answer": final_answer,
        "ground_truth": record.ground_truth,
        "accuracy": score_accuracy(final_answer, record.ground_truth),
        "overlap": score_overlap(final_answer, record.ground_truth),
        "elapse": elapse,
        "branch": trace.route.branch.value,
        "fallback": trace.answer.fallback,
        "stages": trace.stages,
        "dynamism": record.taxonomy["dynamism"],
        "category": record.taxonomy["category"],
        "domain": record.taxonomy["domain"],
    }


def evaluate(sessions: dict[str, list[EvalRecord]], runtime: PipelineRuntime,
             simulated_time: bool = True) -> EvalReport:
    """Run and score ``group_sessions`` output, one orchestrator per session."""
    rows = []
    for records in sessions.values():
        clock = SimulatedClock() if simulated_time else None
        results = runtime.orchestrator(clock=clock).run_session(
            [record.turn for record in records]
        )
        wall_start = time.perf_counter()
        for record, (final_answer, trace) in zip(records, results):
            elapse = min(time.perf_counter() - wall_start, record.turn.deadline_s)
            rows.append(_row(record, final_answer, trace, elapse))
            wall_start = time.perf_counter()
    return build_report(rows)


def run_eval(dataset_path: str | Path, runtime: PipelineRuntime,
             simulated_time: bool = True) -> EvalReport:
    """Evaluate a dataset file against a built runtime; a session whose turn
    indices are not 0..n-1 raises ValueError before any turn runs."""
    records = load_dataset(dataset_path, runtime.config.limits.turn_deadline_s)
    return evaluate(group_sessions(records), runtime, simulated_time)
