"""Turn-latency benchmark for dynarag.

    python3 perfbench/run.py --workload {demo,web_scale,long_docs} --seed N \
        --seconds S --trace {0,1} [--scale F]

Run from the repository root. The workload is generated from the seed
(``worldgen.py``; ``demo`` is the bundled world from
``dynarag.fixtures.write_world``), ingested through
``build_runtime(PipelineConfig.from_file(...))`` and driven by one closed-loop
client: one session at a time, one turn in flight, no threads. Each session
gets a fresh ``PipelineRuntime.orchestrator(clock=SimulatedClock())`` and
``SessionState``; each turn is ``answer_turn`` then ``session.record``.

Every turn is checked: final answer, branch and stage chain must equal
``tests/data/golden_traces.json`` (demo) or the generator's expectations.
Any mismatch or exception exits with status 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (see ``tracer.py``), reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "data" / "golden_traces.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("demo", "web_scale", "long_docs")
BRANCHES = ("direct_output", "search_verify", "rag_augment")
TURN_LAYERS = ("orchestrator", "preanswer", "routing", "image_agent",
               "text_agent", "search", "reranker", "encoders", "gateway",
               "postanswer")
# Set-up is timed once before the run, then again every
# max(REBUILD_MIN_S, REBUILD_FACTOR x its median) seconds during it.
REBUILD_MIN_S, REBUILD_FACTOR = 3.0, 8.0
# At least two passes to take the median over, and 200 timed turns per run.
MIN_PASSES, MIN_TIMED_TURNS = 2, 200

sys.path.insert(0, str(ROOT / "src"))
# One turn in flight: keep BLAS from spinning worker threads that compete
# with the measured thread for the machine's few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@dataclass
class Turn:
    turn: object                # dynarag QueryTurn
    truth: str
    expected: dict


@dataclass
class Pass:
    """One whole pass over the sessions."""

    turn_s: list[float]         # wall seconds of each timed answer_turn
    wall_s: float               # loop wall time, orchestrator construction included


@dataclass
class Phase:
    """Results of one closed-loop phase."""

    passes: list[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    # Over the first full pass only, so they describe the workload itself.
    first_pass: list[tuple[str, str, float]] = field(default_factory=list)

    @property
    def timed_turns(self) -> int:
        return sum(len(p.turn_s) for p in self.passes)

    def per_pass(self, stat) -> float:
        """``stat`` of each pass, then the median over the passes: a few
        seconds of interference from other work on the machine spoil a few
        passes, not the result."""
        return statistics.median(stat(p) for p in self.passes)

    def p50_ms(self) -> float:
        return self.per_pass(lambda p: statistics.median(p.turn_s)) * 1000.0


# --- workload --------------------------------------------------------------


def prepare(workload: str, seed: int, scale: float, work: Path) -> Path:
    """Write the workload's files under ``work``; returns the config path."""
    if workload == "demo":
        from dynarag.fixtures import write_world

        return write_world(work)["config"]
    subprocess.run(
        [sys.executable, str(HERE / "worldgen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work), "--scale", str(scale)],
        check=True, timeout=170,
    )
    return work / "config.json"


def load_config(path: Path):
    """``PipelineConfig.from_file`` with relative corpus paths resolved
    against the config's own directory."""
    from dynarag.config import PipelineConfig

    config = PipelineConfig.from_file(path)
    for f in fields(config.paths):
        value = getattr(config.paths, f.name)
        if value and not os.path.isabs(value):
            setattr(config.paths, f.name, str(path.parent / value))
    return config


def expectations(workload: str, config_path: Path) -> dict[tuple[str, int], dict]:
    if workload == "demo":
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        return {(sid, row["turn_index"]): row
                for sid, rows in golden.items() for row in rows}
    rows = config_path.parent.joinpath("expected.jsonl").read_text(encoding="utf-8")
    return {(r["session_id"], r["turn_index"]): r
            for r in map(json.loads, rows.splitlines())}


def sessions(config_path: Path, deadline_s: float, expected: dict) -> list[list[Turn]]:
    from dynarag.evalharness import load_dataset

    grouped: dict[str, list[Turn]] = {}
    for record in load_dataset(config_path.parent / "dataset.jsonl", deadline_s):
        key = (record.turn.session_id, record.turn.turn_index)
        if key not in expected:
            raise KeyError(f"no expectation for turn {key}")
        grouped.setdefault(key[0], []).append(
            Turn(record.turn, record.ground_truth, expected[key]))
    return [sorted(g, key=lambda t: t.turn.turn_index) for g in grouped.values()]


class Setup:
    """Builds the runtime from the workload's files and times every build."""

    def __init__(self, config_path: Path):
        self.config_path = config_path
        self.runtime = None
        self.times: list[float] = []

    def build(self):
        from dynarag.pipeline import build_runtime

        self.runtime = None  # one runtime alive at a time, as peak RSS assumes
        gc.collect()
        start = time.perf_counter()
        self.runtime = build_runtime(load_config(self.config_path))
        self.times.append(time.perf_counter() - start)
        return self.runtime


# --- closed loop -----------------------------------------------------------


def check(item: Turn, answer: str, trace) -> str | None:
    exp = item.expected
    got = (answer, trace.route.branch.value, trace.stages)
    want = (exp["final_answer"], exp["branch"], exp["stages"])
    if got != want:
        return f"{item.turn.fixture_key}: got {got!r}, expected {want!r}"
    return None


def drive(setup: Setup, groups: list[list[Turn]], phase: Phase, seconds: float,
          min_passes: int, min_turns: int = 0, rebuild: bool = False) -> None:
    """Replay the sessions pass after pass until ``seconds`` have elapsed,
    ``min_passes`` whole passes are done and ``min_turns`` turns are timed.

    With ``rebuild``, the runtime is rebuilt between sessions now and then,
    so the set-up times are sampled across the whole run, not in one burst
    that a few seconds of interference on the machine can cover. Rebuild
    time counts neither towards ``seconds`` nor in a pass's wall time.
    """
    from dynarag.orchestrator import SessionState
    from dynarag.timing import SimulatedClock

    budget_s = setup.runtime.config.limits.session_budget_s
    rebuild_every = max(REBUILD_MIN_S, REBUILD_FACTOR * statistics.median(setup.times))
    clock = time.perf_counter
    start = last_build = clock()
    paused = 0.0

    while (len(phase.passes) < min_passes or phase.timed_turns < min_turns
           or clock() - start - paused < seconds):
        turn_s: list[float] = []
        pass_start, pass_paused = clock(), 0.0
        for group in groups:
            orchestrator = setup.runtime.orchestrator(clock=SimulatedClock())
            session = SessionState(group[0].turn.session_id, budget_s)
            for item in group:
                phase.attempted += 1
                t0 = clock()
                try:
                    answer, trace = orchestrator.answer_turn(item.turn, session)
                except Exception as exc:  # counted, reported, and fails the gate
                    phase.failed += 1
                    phase.mismatches.append(f"{item.turn.fixture_key}: raised {exc!r}")
                    continue
                turn_s.append(clock() - t0)
                session.record(item.turn.question, answer, trace.elapsed_s,
                               trace.entity_name)
                problem = check(item, answer, trace)
                if problem:
                    phase.mismatches.append(problem)
                if not phase.passes:
                    phase.first_pass.append((answer, item.truth, trace.elapsed_s))
            if rebuild and clock() - last_build >= rebuild_every:
                orchestrator = None
                b0 = clock()
                setup.build()
                last_build = clock()
                pass_paused += last_build - b0
        paused += pass_paused
        phase.passes.append(Pass(turn_s, clock() - pass_start - pass_paused))


def warm_up(setup: Setup, groups: list[list[Turn]]) -> Phase:
    """One untimed session, so first-call costs stay out of the timings."""
    phase = Phase()
    drive(setup, groups[:1], phase, 0.0, min_passes=1)
    return phase


# --- metrics ---------------------------------------------------------------


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    from dynarag.evalharness import score_accuracy
    from dynarag.postanswer import FALLBACK_ANSWER

    first = phase.first_pass
    return {
        "turn_ms.p50": metric(phase.p50_ms(), "ms"),
        "turn_ms.p95": metric(phase.per_pass(lambda p: p95(p.turn_s)) * 1000.0, "ms"),
        "turns_per_s": metric(phase.per_pass(lambda p: len(p.turn_s) / p.wall_s), "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "modelled_s.mean": metric(statistics.fmean(e for _, _, e in first), "sim_s"),
        "accuracy_pct": metric(
            100.0 * statistics.fmean(score_accuracy(a, t) for a, t, _ in first), "%"),
        "fallback_pct": metric(
            100.0 * statistics.fmean(a == FALLBACK_ANSWER for a, _, _ in first), "%"),
    }


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics from the spans of the traced turns."""
    from worldgen import TEMPLATES

    spans = tracer.spans
    turns = [s for s in spans if s.name == "orchestrator.answer_turn"]
    n_turns = len(turns)
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name):
        return named.get(name, [])

    def self_ms(name):
        return _mean(s.self_time * 1000.0 for s in calls(name))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in calls(name) if s.attrs)

    out: dict[str, dict] = {}

    # search
    for key, name in (("web", "search.web"), ("kg", "search.kg")):
        times = [s.self_time * 1000.0 for s in calls(name)]
        out[f"search.{key}_ms.p50"] = metric(statistics.median(times) if times else 0.0, "ms")
        out[f"search.{key}_calls_per_turn"] = metric(len(times) / n_turns, "count")
    for key, name in (("web", "search.web_build"), ("kg", "search.kg_build")):
        out[f"search.{key}_build_s"] = metric(sum(s.dur for s in calls(name)), "s")

    # encoders
    enc = tracer.encoders["turns"]
    out["encoders.calls"] = metric(enc.calls / n_turns, "count")
    out["encoders.tokens"] = metric(enc.tokens / n_turns, "count")
    out["encoders.self_ms"] = metric(enc.seconds * 1000.0 / n_turns, "ms")
    out["encoders.distinct_ratio"] = metric(_mean(enc.distinct_ratios), "ratio")
    out["encoders.setup_s"] = metric(tracer.encoders["setup"].seconds, "s")

    # reranker
    for stage in ("chunk", "coarse", "fine", "assemble"):
        out[f"reranker.{stage}_ms"] = metric(self_ms(f"reranker.{stage}"), "ms")
    reranks = max(len(calls("reranker.chunk")), 1)
    chunks = attr_sum("reranker.chunk", "chunks")
    fine_kept = attr_sum("reranker.fine", "kept")
    out["reranker.hits"] = metric(attr_sum("reranker.chunk", "hits") / reranks, "count")
    out["reranker.chunks"] = metric(chunks / reranks, "count")
    out["reranker.coarse_kept"] = metric(attr_sum("reranker.coarse", "kept") / reranks, "count")
    out["reranker.fine_kept"] = metric(fine_kept / reranks, "count")
    out["reranker.keep_ratio"] = metric(fine_kept / chunks if chunks else 0.0, "ratio")

    # text agent: dedup over the raw web hits of each fused search; reuse of
    # returned hits across the turns of one pass over the workload.
    searches = calls("text_agent.search")
    raw = unique = 0
    children: dict[int, list] = {}
    for s in calls("search.web"):
        children.setdefault(s.parent, []).append(s)
    for s in searches:
        urls = [u for c in children.get(s.id, []) if c.attrs for u in c.attrs["urls"]]
        raw += len(urls)
        unique += len(set(urls))
    seen: set[str] = set()
    returned = repeated = 0
    first_turn = turns[0].turn if turns else None
    for s in spans:
        if s.name == "orchestrator.answer_turn" and s.turn == first_turn:
            seen.clear()  # a new pass over the workload starts
        elif s.name == "text_agent.search" and s.attrs:
            for url in s.attrs["urls"]:
                returned += 1
                repeated += url in seen
                seen.add(url)
    out["text_agent.subqueries_per_turn"] = metric(
        _mean(s.attrs["subqueries"] for s in searches if s.attrs), "count")
    out["text_agent.search_ms"] = metric(self_ms("text_agent.search"), "ms")
    out["text_agent.dedup_ratio"] = metric(unique / raw if raw else 0.0, "ratio")
    out["text_agent.repeat_hit_ratio"] = metric(
        repeated / returned if returned else 0.0, "ratio")

    # image agent
    grounds = calls("image_agent.ground")
    out["image_agent.ground_ms"] = metric(self_ms("image_agent.ground"), "ms")
    out["image_agent.verified_ratio"] = metric(
        _mean(s.attrs["verified"] for s in grounds if s.attrs), "ratio")

    # pre-answer and routing
    out["preanswer.classify_ms"] = metric(self_ms("preanswer.classify"), "ms")
    out["preanswer.parse_ms"] = metric(self_ms("preanswer.parse"), "ms")
    out["routing.search_us"] = metric(self_ms("routing.search") * 1000.0, "us")
    out["routing.tools_us"] = metric(self_ms("routing.tools") * 1000.0, "us")
    for branch in BRANCHES:
        share = _mean(t.attrs["branch"] == branch for t in turns if t.attrs)
        out[f"routing.branch.{branch}"] = metric(100.0 * share, "%")

    # gateway
    gen = calls("gateway.generate")
    for template in TEMPLATES:
        count = sum(1 for s in gen if s.attrs and s.attrs["template"] == template)
        out[f"gateway.calls_per_turn.{template}"] = metric(count / n_turns, "count")
    out["gateway.self_ms"] = metric(sum(s.self_time for s in gen) * 1000.0 / n_turns, "ms")
    out["gateway.modelled_s"] = metric(
        sum(s.attrs["latency_s"] for s in gen if s.attrs) / n_turns, "sim_s")

    # post-answer
    verify_turns = [t for t in turns if t.attrs and "verify" in t.attrs["stages"]]
    verify_self = (sum(s.self_time for s in calls("postanswer.verify"))
                   + sum(s.self_time for s in calls("postanswer.model_verify")))
    out["postanswer.generate_ms"] = metric(self_ms("postanswer.generate"), "ms")
    out["postanswer.verify_ms"] = metric(
        verify_self * 1000.0 / len(verify_turns) if verify_turns else 0.0, "ms")
    out["postanswer.accept_ratio"] = metric(
        _mean(not t.attrs["fallback"] for t in verify_turns), "ratio")

    # pipeline and orchestrator
    out["pipeline.orchestrator_ms"] = metric(
        _mean(s.dur * 1000.0 for s in calls("pipeline.orchestrator")), "ms")
    out["orchestrator.self_ms"] = metric(self_ms("orchestrator.answer_turn"), "ms")

    # where the turn time goes: self time per layer over total turn time
    total = sum(t.dur for t in turns)
    layer_self = dict.fromkeys(TURN_LAYERS, 0.0)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if s.turn is not None and layer in layer_self:
            layer_self[layer] += s.self_time
    layer_self["encoders"] = enc.seconds
    for layer in TURN_LAYERS:
        out[f"share.{layer}"] = metric(100.0 * layer_self[layer] / total, "%")

    out["trace.turn_ms.p50"] = metric(traced.p50_ms(), "ms")
    out["trace.overhead_ms"] = metric(traced.p50_ms() - untraced.p50_ms(), "ms")
    out["trace.spans_per_turn"] = metric(
        sum(1 for s in spans if s.turn is not None) / n_turns, "count")
    return out


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# --- entry point -------------------------------------------------------------


def run(args, work: Path) -> tuple[dict, Phase]:
    config_path = prepare(args.workload, args.seed, args.scale, work)
    expected = expectations(args.workload, config_path)

    setup = Setup(config_path)
    setup.build()
    groups = sessions(config_path, setup.runtime.config.limits.turn_deadline_s, expected)
    # The session order is part of the seeded input; demo replays file order.
    if args.workload != "demo":
        random.Random(args.seed).shuffle(groups)
    warm = warm_up(setup, groups)

    if not args.trace:
        phase = Phase()
        drive(setup, groups, phase, args.seconds, MIN_PASSES, MIN_TIMED_TURNS,
              rebuild=True)
        phase.attempted += warm.attempted
        phase.failed += warm.failed
        phase.mismatches = warm.mismatches + phase.mismatches
        return end_to_end(phase, setup.times), phase

    # Traced and untraced passes alternate, so the tracing overhead is not
    # confounded with changes in how busy the machine is.
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        setup.build()
    finally:
        tracer.uninstall()
    untraced, traced = Phase(), Phase()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced.passes:
        drive(setup, groups, untraced, 0.0, min_passes=len(untraced.passes) + 1)
        tracer.install()
        try:
            drive(setup, groups, traced, 0.0, min_passes=len(traced.passes) + 1)
        finally:
            tracer.uninstall()
        tracer.encoders["turns"].end_pass()
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed, "machine": machine()})
    combined = Phase(
        passes=traced.passes,
        attempted=warm.attempted + untraced.attempted + traced.attempted,
        failed=warm.failed + untraced.failed + traced.failed,
        mismatches=warm.mismatches + untraced.mismatches + traced.mismatches,
    )
    return per_layer(tracer, traced, untraced), combined


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dynarag turn-latency benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus and session scale of the synthetic workloads")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dynarag").is_dir() or not GOLDEN.is_file():
        print("dynarag sources or golden traces not found next to perfbench/",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, phase = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = machine()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={info['python']} numpy={info['numpy']} cpus={info['cpus']} "
          f"{info['platform']}")
    print(f"# timed turns={phase.timed_turns} passes={len(phase.passes)} "
          f"attempted={phase.attempted} "
          f"failed={phase.failed} failed_pct="
          f"{100.0 * phase.failed / max(phase.attempted, 1):.4f} %")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6f} {m['unit']}")
    for problem in phase.mismatches[:10]:
        print(f"MISMATCH {problem}", file=sys.stderr)

    correct = not phase.mismatches and phase.failed == 0
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
