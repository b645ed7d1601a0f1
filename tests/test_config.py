import json
from pathlib import Path

import pytest
import yaml

from cases import WRONG_TYPED_FIELDS, with_wrong_type
from dynarag.config import AgentConfig, PipelineConfig, RerankConfig
from dynarag.errors import ParseError
from dynarag.evalharness import load_dataset
from dynarag.fixtures import write_world
from dynarag.gateway import ScriptedBackend
from dynarag.pipeline import build_runtime
from dynarag.search import ImageKgIndex, ImageStore, WebSearchIndex


def test_defaults_are_usable():
    config = PipelineConfig()
    assert config.rerank.k2 <= config.rerank.k1
    assert config.limits.turn_deadline_s == 10.0
    assert config.limits.session_budget_s == 30.0
    assert "other" in config.domains.taxonomy


def test_yaml_overrides_merge_with_defaults(tmp_path):
    doc = {
        "encoder": {"dim": 128},
        "hard_negative": {"rate": 0.5},
        "rerank": {"k1": 10, "k2": 2, "tau_coarse": 0.1},
        "verifier": {"tau_white": 0.6},
        "limits": {"turn_deadline_s": 5.0},
        "routing": {"open_world_cues": ["price", "year"]},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    config = PipelineConfig.from_file(path)
    assert config.encoder.dim == 128
    assert config.hard_negative.rate == 0.5
    assert config.rerank.k1 == 10 and config.rerank.k2 == 2
    assert config.rerank.tau_fine == 0.3  # untouched default
    assert config.verifier.tau_white == 0.6
    assert config.limits.turn_deadline_s == 5.0
    assert config.limits.session_budget_s == 30.0
    assert config.routing.open_world_cues == ("price", "year")


def test_json_config_also_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": {"k_total": 3}}))
    config = PipelineConfig.from_file(path)
    assert config.agents.k_total == 3
    assert config.agents.k_per_query == 10


def test_rerank_config_validation():
    with pytest.raises(ValueError):
        RerankConfig(k1=5, k2=6)
    with pytest.raises(ValueError):
        RerankConfig(tau_coarse=1.5)
    with pytest.raises(ValueError):
        RerankConfig(max_chunk_chars=100, chunk_overlap=100)
    with pytest.raises(ValueError):
        RerankConfig(n_query_tokens=0)


@pytest.mark.parametrize("key", ["k_per_query", "k_total", "object_num"])
@pytest.mark.parametrize("value", [0, -1])
def test_agent_config_validation(key, value):
    with pytest.raises(ValueError, match=key):
        AgentConfig(**{key: value})
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_dict({"agents": {key: value}})
    assert getattr(AgentConfig(**{key: 1}), key) == 1


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    config = PipelineConfig.from_file(path)
    assert config.encoder.dim == 256


@pytest.mark.parametrize("doc, key", [
    ({"rerank": {"k_1": 5}}, "k_1"),
    ({"agents": {"image_width": 640}}, "image_width"),
    ({"rerankers": {"k1": 5}}, "rerankers"),
])
def test_unknown_config_keys_are_rejected(tmp_path, doc, key):
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_dict(doc)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_file(path)


# --- the files a config names -------------------------------------------------------


def test_relative_paths_resolve_against_the_config_directory(tmp_path, monkeypatch):
    world = write_world(tmp_path / "world")
    doc = yaml.safe_load(world["config"].read_text())
    assert doc["paths"]["web_corpus"] == "web_corpus.jsonl"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    config = PipelineConfig.from_file(world["config"])
    assert Path(config.paths.web_corpus) == world["web_corpus"]
    assert len(build_runtime(config).web_index) == 14


def test_absolute_paths_keep_their_meaning(tmp_path):
    corpus = write_world(tmp_path / "world")["web_corpus"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": {"web_corpus": str(corpus)}}))
    assert PipelineConfig.from_file(path).paths.web_corpus == str(corpus)
    assert PipelineConfig.from_file(path).paths.kg_corpus is None


def test_a_world_written_to_a_relative_directory_loads_from_any_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_world("w")
    for cwd, config_path in [(tmp_path, "w/config.yaml"), (tmp_path / "w", "config.yaml")]:
        monkeypatch.chdir(cwd)
        runtime = build_runtime(PipelineConfig.from_file(config_path))
        assert (len(runtime.web_index), len(runtime.kg_index), len(runtime.image_store)) \
            == (14, 6, 19)


LOADERS = {
    "web_corpus": WebSearchIndex.ingest,
    "kg_corpus": ImageKgIndex.ingest,
    "image_fixtures": ImageStore.from_jsonl,
    "model_fixtures": ScriptedBackend.from_jsonl,
    "dataset": lambda path: load_dataset(path, 10.0),
}


@pytest.mark.parametrize("bad_line, message", [
    ("{not json", "Expecting property name"),
    ("[1, 2]", "expected a JSON object, got list"),
    ("{}", "missing key"),
])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_a_malformed_line_in_any_input_file_names_its_line(tmp_path, name, bad_line, message):
    path = write_world(tmp_path)[name]
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], bad_line, *lines[2:]]) + "\n")
    with pytest.raises(ParseError) as err:
        LOADERS[name](path)
    assert (err.value.path, err.value.line) == (path, 3)
    assert str(err.value).startswith(f"{path}: line 3: ")
    assert message in str(err.value)


@pytest.mark.parametrize("name, field, value", WRONG_TYPED_FIELDS)
def test_a_wrong_typed_value_in_any_input_file_names_its_line(tmp_path, name, field,
                                                              value):
    path = write_world(tmp_path)[name]
    with_wrong_type(path, field, value)
    with pytest.raises(ParseError) as err:
        LOADERS[name](path)
    assert (err.value.path, err.value.line) == (path, 3)
    assert str(err.value).startswith(f"{path}: line 3: {field}: expected ")


@pytest.mark.parametrize("name, field", [("dataset", "turn_index"),
                                         ("image_fixtures", "width")])
def test_an_infinite_integer_field_names_its_line(tmp_path, name, field):
    path = write_world(tmp_path)[name]
    with_wrong_type(path, field, float("inf"))
    with pytest.raises(ParseError, match="line 3: cannot convert float infinity"):
        LOADERS[name](path)


def test_a_fixture_line_without_a_key_names_the_key(tmp_path):
    path = tmp_path / "model_fixtures.jsonl"
    path.write_text('{"template_id": "evaluator"}\n')
    with pytest.raises(ParseError, match="line 1: missing key 'fixture_key'"):
        ScriptedBackend.from_jsonl(path)


def test_a_fixture_probability_out_of_range_names_its_line(tmp_path):
    path = tmp_path / "model_fixtures.jsonl"
    row = {"template_id": "evaluator", "fixture_key": "k", "text": "t"}
    path.write_text(json.dumps({**row, "token_probs": [0.5]}) + "\n"
                    + json.dumps({**row, "token_probs": [1.5]}) + "\n")
    with pytest.raises(ParseError, match="line 2: .*outside"):
        ScriptedBackend.from_jsonl(path)
