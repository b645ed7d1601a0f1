"""Command-line entry points: ingest corpora, evaluate a dataset, dump a trace.

    dynarag ingest --config config.yaml [--out stats.json]
    dynarag eval   --config config.yaml --dataset data.jsonl \
                   --report-out report.json [--real-time]
    dynarag trace  --config config.yaml --dataset data.jsonl [--index 0]

``eval`` and ``trace`` run sessions through the same runner,
``Orchestrator.run_session``, so a traced turn sees the session state that
eval gave it. Both check the whole dataset before any turn runs. A bad input
file prints one ``error:`` line naming it to stderr and exits 2, as a bad
``--index`` does: a config that is missing, does not parse or has an unknown key,
a corpus or fixture file that is missing or has a malformed line, a malformed
dataset line, or a session whose turn indices are not 0..n-1. An exception
raised inside a turn is not an input error and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from .config import PipelineConfig
from .errors import ParseError
from .evalharness import EvalRecord, evaluate, group_sessions, load_dataset
from .orchestrator import trace_to_dict
from .pipeline import build_runtime
from .timing import SimulatedClock


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config (YAML or JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynarag")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build the retrieval indexes and report stats")
    _add_config(p_ingest)
    p_ingest.add_argument("--out", help="write corpus statistics JSON here")

    p_eval = sub.add_parser("eval", help="run a dataset through the pipeline")
    _add_config(p_eval)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--report-out", required=True,
                        help="report JSON path; a markdown table lands next to it")
    p_eval.add_argument("--real-time", action="store_true",
                        help="enforce deadlines on the wall clock instead of "
                             "simulated time")

    p_trace = sub.add_parser("trace", help="dump one pipeline trace as JSON")
    _add_config(p_trace)
    p_trace.add_argument("--dataset", required=True)
    p_trace.add_argument("--index", type=int, default=0,
                         help="record index within the dataset")

    return parser


class UsageError(Exception):
    """A bad input file or argument: one ``error:`` line on stderr, exit 2."""


@contextmanager
def _input_file(path):
    """Report an input file that fails to load as a UsageError naming it."""
    try:
        yield
    except ParseError as exc:  # names its own file and line
        raise UsageError(str(exc)) from exc
    except (OSError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_config(args) -> PipelineConfig:
    with _input_file(args.config):
        return PipelineConfig.from_file(args.config)


def _build_runtime(args, config: PipelineConfig):
    """The runtime over the files the config names; a corpus or fixture file
    that fails to load is reported against the config that named it."""
    with _input_file(args.config):
        return build_runtime(config)


def cmd_ingest(args) -> int:
    runtime = _build_runtime(args, _load_config(args))
    stats = {
        "web_docs": len(runtime.web_index),
        "kg_entries": len(runtime.kg_index),
        "images": len(runtime.image_store),
        "encoder_dim": runtime.text_encoder.dim,
    }
    text = json.dumps(stats, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _load_sessions(args, config: PipelineConfig
                   ) -> tuple[list[EvalRecord], dict[str, list[EvalRecord]]]:
    """The dataset's records and its checked sessions, before any turn runs."""
    with _input_file(args.dataset):
        records = load_dataset(args.dataset, config.limits.turn_deadline_s)
        return records, group_sessions(records)


def cmd_eval(args) -> int:
    config = _load_config(args)
    _, sessions = _load_sessions(args, config)
    report = evaluate(sessions, _build_runtime(args, config),
                      simulated_time=not args.real_time)
    out = Path(args.report_out)
    out.write_text(report.to_json() + "\n", encoding="utf-8")
    out.with_suffix(out.suffix + ".md").write_text(report.to_markdown(), encoding="utf-8")
    print(f"n={report.n} accuracy={report.accuracy:.2f} "
          f"overlap={report.overlap:.2f} elapse={report.elapse:.3f}")
    return 0


def cmd_trace(args) -> int:
    config = _load_config(args)
    records, sessions = _load_sessions(args, config)
    if not (0 <= args.index < len(records)):
        raise UsageError(f"index {args.index} out of range "
                         f"(dataset has {len(records)} records)")
    record = records[args.index]

    # Run the record's session up to and including its turn, as eval does.
    turns = [r.turn for r in sessions[record.turn.session_id]]
    orchestrator = _build_runtime(args, config).orchestrator(clock=SimulatedClock())
    results = orchestrator.run_session(turns)
    *_, (final_answer, trace) = islice(results, record.turn.turn_index + 1)
    print(json.dumps(
        {"question": record.turn.question, "final_answer": final_answer,
         "trace": trace_to_dict(trace)},
        indent=2,
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"ingest": cmd_ingest, "eval": cmd_eval, "trace": cmd_trace}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
