"""``errors.read_jsonl`` decodes each line with orjson and falls back to
``json.loads`` only for a line orjson rejects. These tests hold the values,
and the error text, to what ``json.loads`` alone gives, and pin the one kind
of line the two read differently: an integer outside [-2**63, 2**64)."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynarag
import dynarag.errors
from dynarag.config import PipelineConfig
from dynarag.errors import ParseError, read_jsonl
from dynarag.evalharness import load_dataset
from dynarag.fixtures import write_world
from dynarag.gateway import FixtureEntry
from dynarag.pipeline import build_runtime
from dynarag.search import ImageRecord, KgEntry, WebDoc

FORMS = ("{!r}", "{:.17g}", "{:.15g}", "{:.20e}")
PER_LINE = 256


def identical(a, b) -> bool:
    """Equal values of equal types, floats compared bit for bit (so -0.0 is
    not 0.0 and NaN is NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    return a == b


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def json_loads_of_each_line(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def seeded_floats(seed: int = 7, n: int = 64 * PER_LINE) -> np.ndarray:
    """Finite float64s from random bit patterns (every exponent equally
    likely), random subnormals, unit-vector-like values and the edge cases
    +-0, +-max and the smallest subnormal and normal."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    patterns = bits.view(np.float64)
    subnormals = (bits[: n // 4] & np.uint64(0x800F_FFFF_FFFF_FFFF)).view(np.float64)
    edges = np.array([0.0, -0.0, np.finfo(np.float64).max, -np.finfo(np.float64).max,
                      5e-324, -5e-324, np.finfo(np.float64).tiny, 1.0, -1.0])
    values = np.concatenate([edges, subnormals, rng.standard_normal(n // 4) / 16,
                             patterns[np.isfinite(patterns)]])
    return values[: len(values) - len(values) % PER_LINE]


@pytest.mark.parametrize("form", FORMS)
def test_seeded_float_bit_patterns_read_as_json_loads_reads_them(tmp_path, form):
    values = seeded_floats()
    texts = [form.format(float(v)) for v in values]
    lines = ['{"v": [' + ", ".join(texts[i:i + PER_LINE]) + "]}"
             for i in range(0, len(texts), PER_LINE)]
    path = write_lines(tmp_path / "floats.jsonl", lines)
    read = [x for row in read_jsonl(path, lambda raw: raw["v"]) for x in row]
    expected = [x for row in json_loads_of_each_line(path) for x in row["v"]]
    assert [type(x) for x in read] == [type(x) for x in expected]
    assert np.array_equal(np.array(read, dtype=np.float64).view(np.uint64),
                          np.array(expected, dtype=np.float64).view(np.uint64))


@pytest.mark.parametrize("world", ["demo", "web_scale", "long_docs"])
def test_every_input_line_reads_as_json_loads_reads_it(input_worlds, world):
    paths = sorted(input_worlds[world].parent.glob("*.jsonl"))
    assert {p.name for p in paths} >= {"web_corpus.jsonl", "kg_corpus.jsonl",
                                       "image_fixtures.jsonl", "model_fixtures.jsonl",
                                       "dataset.jsonl"}
    for path in paths:
        read = read_jsonl(path, lambda raw: raw)
        expected = json_loads_of_each_line(path)
        assert len(read) == len(expected), path.name
        assert all(identical(a, b) for a, b in zip(read, expected)), path.name


RECORD_TYPES = {"web_corpus.jsonl": WebDoc, "kg_corpus.jsonl": KgEntry,
                "image_fixtures.jsonl": ImageRecord, "model_fixtures.jsonl": FixtureEntry}


@pytest.mark.parametrize("world", ["demo", "web_scale", "long_docs"])
def test_every_record_line_is_the_to_dict_of_what_it_loads_as(input_worlds, world):
    """The world writers dump each record's ``to_dict``, so a record line read
    back and dumped again is the same line: no field is lost, added or
    reordered on the way."""
    for name, kind in RECORD_TYPES.items():
        lines = (input_worlds[world].parent / name).read_text(encoding="utf-8").splitlines()
        assert lines, name
        for line in lines:
            assert json.dumps(kind.from_dict(json.loads(line)).to_dict()) == line, name


@pytest.mark.parametrize("line", [
    '{"x": NaN}',
    '{"x": Infinity}',
    '{"x": -Infinity}',
    '{"x": 1e309}',
    '{"x": "\\ud800"}',
    '{"x": -0, "y": -0.0, "z": 1e-400}',
    '{"x": 1, "x": 2}',
    '{"x": 18446744073709551615, "y": -9223372036854775808}',
    '{"x": "\\ud83d\\ude00 caf\\u00e9", "y": "\\u0000"}',
])
def test_an_edge_case_line_reads_as_json_loads_reads_it(tmp_path, line):
    path = write_lines(tmp_path / "edge.jsonl", [line])
    [read] = read_jsonl(path, lambda raw: raw)
    assert identical(read, json.loads(line))


def test_lines_are_read_in_text_mode_with_universal_newlines(tmp_path):
    path = tmp_path / "newlines.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n  \n{"a": 2}\r{"a": 3}')
    assert read_jsonl(path, lambda raw: raw["a"]) == [1, 2, 3]


@pytest.mark.parametrize("lines, line, message", [
    (['{"a": 1}', "", '{"a": 1}x'], 3, "Extra data: line 1 column 9 (char 8)"),
    (['\ufeff{"a": 1}'], 1,
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (['{"a": 1}', '{"a": "b\tc"}'], 2, "Invalid control character at: line 1 column 9 (char 8)"),
    (['{"a": 1}', "not json"], 2, "Expecting value: line 1 column 1 (char 0)"),
    (['{"a": 01}'], 1, "Expecting ',' delimiter: line 1 column 8 (char 7)"),
    (['{"a": 1}', "[1, 2]"], 2, "expected a JSON object, got list"),
])
def test_a_malformed_line_keeps_the_json_module_error_text(tmp_path, lines, line, message):
    path = write_lines(tmp_path / "bad.jsonl", lines)
    with pytest.raises(ParseError) as info:
        read_jsonl(path, lambda raw: raw)
    assert str(info.value) == f"{path}: line {line}: {message}"
    assert info.value.line == line


def test_a_non_finite_value_is_still_rejected_on_its_line(tmp_path):
    row = {"session_id": "s", "question": "q", "image_ref": "img", "ground_truth": "a"}
    path = write_lines(tmp_path / "dataset.jsonl",
                       [json.dumps(row), json.dumps({**row, "deadline_s": math.nan})])
    with pytest.raises(ParseError, match="line 2: deadline_s must be finite"):
        load_dataset(path, 10.0)


@pytest.mark.parametrize("world", ["demo", "web_scale"])
def test_loading_a_world_never_falls_back_to_json_loads(input_worlds, world, monkeypatch,
                                                       tmp_path):
    config_path = input_worlds[world]
    config = PipelineConfig.from_file(config_path)  # a JSON config is read by json
    calls = []
    real = dynarag.errors.json.loads
    monkeypatch.setattr("dynarag.errors.json.loads",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    runtime = build_runtime(config)
    records = load_dataset(config_path.parent / "dataset.jsonl", 10.0)
    assert len(runtime.web_index) and len(runtime.kg_index) and records
    assert calls == []
    # the counter does see the fallback, on a line that needs it
    read_jsonl(write_lines(tmp_path / "nan.jsonl", ['{"x": NaN}']), lambda raw: raw)
    assert len(calls) == 1


def test_an_integer_beyond_64_bits_reads_as_the_nearest_float(tmp_path):
    """orjson reads an integer literal outside [-2**63, 2**64) as the nearest
    float, where ``json`` gives the exact int. A whole-number ``turn_index``
    so loads as that float's integer, and a KG attribute as its float text."""
    row = {"session_id": "s", "question": "q", "image_ref": "img", "ground_truth": "a"}
    dataset = write_lines(tmp_path / "dataset.jsonl", [
        json.dumps({**row, "turn_index": 18446744073709551617})])
    [record] = load_dataset(dataset, 10.0)
    assert record.turn.turn_index == 18446744073709551616
    embedding = [1.0] + [0.0] * 255
    kg = write_lines(tmp_path / "kg.jsonl", [json.dumps({
        "entity_name": "e", "url": "u", "image_embedding": embedding,
        "attributes": {"Serial": 123456789012345678901234}})])
    [entry] = read_jsonl(kg, KgEntry.from_dict)
    assert entry.attributes == {"serial": "1.2345678901234569e+23"}


def nested(depth: int) -> str:
    return '{"a": ' * depth + "1" + "}" * depth


def test_a_line_with_many_brackets_but_little_nesting_reads_as_json_loads_reads_it(
        tmp_path):
    line = json.dumps({"x": [[]] * 12_000, "y": [{}] * 12_000})
    [read] = read_jsonl(write_lines(tmp_path / "wide.jsonl", [line]), lambda raw: raw)
    assert identical(read, json.loads(line))


def test_a_line_nested_past_the_recursion_limit_is_its_parse_error(tmp_path):
    path = write_lines(tmp_path / "deep.jsonl", ['{"a": 1}', nested(20_000)])
    with pytest.raises(ParseError, match="line 2: maximum recursion depth exceeded"):
        read_jsonl(path, lambda raw: raw)


@pytest.mark.parametrize("command, name", [("ingest", "web_corpus"), ("eval", "dataset")])
def test_a_line_nested_deep_enough_to_crash_orjson_is_one_error_line(tmp_path, command,
                                                                     name):
    """orjson overflows the C stack on some 60,000 nested objects, which kills
    the process (exit 139), so the command runs in a subprocess."""
    world = write_world(tmp_path)
    with open(world[name], "a", encoding="utf-8") as fh:
        fh.write(nested(60_000) + "\n")
    line = len(world[name].read_text().splitlines())
    args = [sys.executable, "-m", "dynarag.cli", command, "--config", str(world["config"])]
    if command == "eval":
        args += ["--dataset", str(world["dataset"]),
                 "--report-out", str(tmp_path / "report.json")]
    src = str(Path(dynarag.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, result.stderr[-500:]
    [error] = result.stderr.splitlines()
    assert error.startswith(f"error: {world[name]}: line {line}: maximum recursion depth")
