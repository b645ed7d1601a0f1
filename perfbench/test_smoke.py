"""Smoke tests for the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

They check the output schema against BENCHMARK.json, that the world
generator is deterministic, and that the correctness gate trips on a wrong
expectation. They time nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worldgen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = "0.02"


def _bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", TINY],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_schema(workload):
    code, result = _bench(workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_TIMED_TURNS
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_schema():
    code, result = _bench("long_docs", trace=1)
    assert code == 0 and result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(worldgen.SPECS))
def test_generator_is_deterministic(tmp_path, workload):
    worldgen.generate(workload, 11, tmp_path / "a", float(TINY))
    worldgen.generate(workload, 11, tmp_path / "b", float(TINY))
    worldgen.generate(workload, 12, tmp_path / "c", float(TINY))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_every_turn_has_all_fixtures(tmp_path):
    config = worldgen.generate("web_scale", 5, tmp_path, float(TINY))
    turns = (config.parent / "dataset.jsonl").read_text().splitlines()
    fixtures = [json.loads(line) for line in
                (config.parent / "model_fixtures.jsonl").read_text().splitlines()]
    keys = {(f["template_id"], f["fixture_key"]) for f in fixtures}
    for row in map(json.loads, turns):
        key = f"{row['session_id']}:{row['turn_index']}"
        assert {(t, key) for t in worldgen.TEMPLATES} <= keys


def test_gate_trips_on_corrupted_answer(monkeypatch, capsys):
    real = run.expectations

    def corrupted(workload, config_path):
        expected = real(workload, config_path)
        first = next(iter(expected))
        expected[first] = dict(expected[first], final_answer="corrupted answer")
        return expected

    monkeypatch.setattr(run, "expectations", corrupted)
    code = run.main(["--workload", "long_docs", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--scale", TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
