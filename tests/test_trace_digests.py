"""Every turn's full trace and every demo's stdout, pinned by digest.

A turn's digest is the sha256 of ``json.dumps([final_answer,
trace_to_dict(trace)], sort_keys=True)``. The turns run through
``Orchestrator.run_session`` in ``group_sessions`` order, each session on a
fresh ``SimulatedClock``, over worlds loaded from files (see ``worlds``): the
demo world and the seed-1 ``worldgen`` worlds at scale 0.1. Each world also
pins the running sha256 over all its turns' texts.

``tests/data/trace_digests.json`` keeps, next to each turn's digest, a short
digest of each leaf of its trace, so a moved turn is reported with its first
differing key path (say ``evidence.chunks[3].coarse``). A change meant to
move digests re-pins the file with

    PYTHONPATH=src python3 tests/test_trace_digests.py

and lists the moved turns in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from dynarag.config import PipelineConfig
from dynarag.evalharness import group_sessions, load_dataset
from dynarag.orchestrator import trace_to_dict
from dynarag.pipeline import build_runtime
from dynarag.timing import SimulatedClock

ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = ROOT / "tests" / "data" / "trace_digests.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORLDS = ("demo", "web_scale", "long_docs")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def leaves(value, path: str = "", out: dict | None = None) -> dict[str, str]:
    """Short digest of each leaf of ``value`` by key path, in the order
    ``json.dumps(sort_keys=True)`` writes them. An empty list or object is a
    leaf."""
    out = {} if out is None else out
    if isinstance(value, dict) and value:
        for key in sorted(value):
            leaves(value[key], f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = sha256(json.dumps(value, sort_keys=True))[:8]
    return out


def world_digests(config_path: Path) -> dict:
    """The running sha256 of the world's turns and one record per turn."""
    config = PipelineConfig.from_file(config_path)
    runtime = build_runtime(config)
    records = load_dataset(Path(config_path).parent / "dataset.jsonl",
                           config.limits.turn_deadline_s)
    running = hashlib.sha256()
    turns = []
    for session_id, group in group_sessions(records).items():
        orchestrator = runtime.orchestrator(clock=SimulatedClock())
        for record, (final_answer, trace) in zip(
                group, orchestrator.run_session([r.turn for r in group])):
            trace_dict = trace_to_dict(trace)
            text = json.dumps([final_answer, trace_dict], sort_keys=True)
            running.update(text.encode())
            turns.append({
                "turn": f"{session_id}:{record.turn.turn_index}",
                "sha256": sha256(text),
                "leaves": leaves({"final_answer": final_answer, **trace_dict}),
            })
    return {"sha256": running.hexdigest(), "turns": turns}


def demo_stdout(demo: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, check=True, timeout=120)
    return hashlib.sha256(result.stdout).hexdigest()


def first_difference(pinned: dict[str, str], current: dict[str, str]) -> str:
    for path, digest in current.items():
        if pinned.get(path) != digest:
            return path
    return next(path for path in pinned if path not in current)


def moved_turns(pinned: list[dict], current: list[dict]) -> list[str]:
    """One line per turn whose digest moved, in pinned order, naming its first
    differing key path; a turn present on one side only is named as such."""
    pinned_by_turn = {t["turn"]: t for t in pinned}
    current_by_turn = {t["turn"]: t for t in current}
    moved = []
    for turn in [*pinned_by_turn, *(t for t in current_by_turn if t not in pinned_by_turn)]:
        old, new = pinned_by_turn.get(turn), current_by_turn.get(turn)
        if old is None or new is None:
            moved.append(f"{turn}: {'added' if old is None else 'missing'}")
        elif old["sha256"] != new["sha256"]:
            moved.append(f"{turn}: {first_difference(old['leaves'], new['leaves'])}")
    return moved


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", WORLDS)
def test_every_turn_of_the_world_keeps_its_pinned_trace(pins, input_worlds, name):
    pinned = pins["worlds"][name]
    current = world_digests(input_worlds[name])
    moved = moved_turns(pinned["turns"], current["turns"])
    assert not moved, f"{name}: turns moved (turn: first differing key path):\n" + \
        "\n".join(moved)
    assert [t["turn"] for t in current["turns"]] == [t["turn"] for t in pinned["turns"]]
    assert current["sha256"] == pinned["sha256"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_is_pinned(pins, demo):
    assert demo_stdout(demo) == pins["demo_stdout"][demo.name]


def test_every_demo_is_pinned(pins):
    assert sorted(pins["demo_stdout"]) == [d.name for d in DEMOS]


def test_a_moved_leaf_is_named_by_its_key_path():
    old = leaves({"answer": {"final_answer": "a"},
                  "evidence": {"chunks": [{"coarse": 0.5, "fine": 1.0}] * 4}})
    new = leaves({"answer": {"final_answer": "a"},
                  "evidence": {"chunks": [{"coarse": 0.5, "fine": 1.0}] * 3
                               + [{"coarse": 0.25, "fine": 2.0}]}})
    record = {"turn": "s:0", "sha256": "x", "leaves": old}
    assert moved_turns([record], [{**record, "sha256": "y", "leaves": new}]) == \
        ["s:0: evidence.chunks[3].coarse"]
    shorter = leaves({"evidence": {"chunks": [{"coarse": 0.5}]}})
    longer = leaves({"evidence": {"chunks": [{"coarse": 0.5}] * 2}})
    assert first_difference(longer, shorter) == "evidence.chunks[1].coarse"
    assert moved_turns([record], []) == ["s:0: missing"]


if __name__ == "__main__":
    from worlds import write_worlds

    with tempfile.TemporaryDirectory() as root:
        configs = write_worlds(Path(root))
        data = {
            "demo_stdout": {demo.name: demo_stdout(demo) for demo in DEMOS},
            "worlds": {name: world_digests(configs[name]) for name in WORLDS},
        }
    PINS_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for name in WORLDS:
        print(name, data["worlds"][name]["sha256"])
