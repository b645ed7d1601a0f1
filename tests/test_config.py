import json
from pathlib import Path

import pytest
import yaml

from cases import WRONG_TYPED_FIELDS, with_wrong_type
from dynarag.config import (
    AgentConfig,
    EncoderConfig,
    HardNegativeConfig,
    LimitsConfig,
    PipelineConfig,
    RerankConfig,
)
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


@pytest.mark.parametrize("doc, key", [
    ({"hard_negative": {"rate": "0.5"}}, "rate"),
    ({"encoder": {"dim": "256"}}, "dim"),
    ({"verifier": {"tau_white": "0.7"}}, "tau_white"),
    ({"agents": {"entity_threshold": "x"}}, "entity_threshold"),
    ({"agents": {"k_total": "3"}}, "k_total"),
    ({"rerank": {"k1": "20"}}, "k1"),
    ({"rerank": {"k1": 20.0}}, "k1"),
    ({"rerank": {"tau_coarse": "0.2"}}, "tau_coarse"),
    ({"verifier": {"w_min": float("nan")}}, "w_min"),
    ({"verifier": {"w_mean": float("inf")}}, "w_mean"),
    ({"hard_negative": {"rate": float("nan")}}, "rate"),
    ({"hard_negative": {"rate": -1}}, "rate"),
    ({"agents": {"object_num": True}}, "object_num"),
    ({"rerank": {"tau_fine": False}}, "tau_fine"),
    ({"agents": 5}, "agents"),
    ([1, 2], "config"),
    ({"routing": {"open_world_cues": "price"}}, "open_world_cues"),
    ({"routing": {"open_world_cues": [1]}}, "open_world_cues"),
    ({"routing": {"generic_labels": None}}, "generic_labels"),
    ({"domains": {"taxonomy": "other"}}, "taxonomy"),
    ({"domains": {"keywords": {"food": "dish"}}}, "keywords.food"),
    ({"domains": {"keywords": ["food"]}}, "keywords"),
    ({"routing": {"exclusion_categories": {"book": [["novel"]]}}},
     "exclusion_categories.book"),
    ({"paths": {"web_corpus": 5}}, "web_corpus"),
    ({"paths": {"model_fixtures": ["fixtures.jsonl"]}}, "model_fixtures"),
    ({"paths": {"kg_corpus": ""}}, "kg_corpus"),
])
def test_a_numeric_setting_must_be_a_finite_number_of_its_kind(tmp_path, doc, key):
    """Every setting must be a value of its default's kind: a finite number
    of the right kind, a list of strings for a lexicon, an object of such
    lists for a table of lexicons."""
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_dict(doc)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_file(path)


def test_a_float_setting_takes_an_int():
    config = PipelineConfig.from_dict({"verifier": {"w_min": 1}, "hard_negative": {"rate": 0}})
    assert config.verifier.w_min == 1 and config.hard_negative.rate == 0


@pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
def test_hard_negative_rate_is_checked_however_the_config_is_built(rate):
    with pytest.raises(ValueError, match="rate"):
        HardNegativeConfig(rate=rate)


@pytest.mark.parametrize("limits, key", [
    ({"session_budget_s": float("nan")}, "session_budget_s"),
    ({"turn_deadline_s": 0}, "turn_deadline_s"),
    ({"turn_deadline_s": -1.0}, "turn_deadline_s"),
    ({"session_budget_s": float("inf")}, "session_budget_s"),
    ({"turn_deadline_s": "5"}, "turn_deadline_s"),
    ({"turn_deadline_s": True}, "turn_deadline_s"),
])
def test_limits_config_validation(tmp_path, limits, key):
    with pytest.raises(ValueError, match=key):
        LimitsConfig(**limits)
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_dict({"limits": limits})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"limits": limits}))
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("dim", [0, -3, 2.5, 256.0, True, "256"])
def test_encoder_dim_must_be_a_whole_number_of_at_least_one(tmp_path, dim):
    with pytest.raises(ValueError, match="dim"):
        EncoderConfig(dim=dim)
    with pytest.raises(ValueError, match="dim"):
        PipelineConfig.from_dict({"encoder": {"dim": dim}})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"encoder": {"dim": dim}}))
    with pytest.raises(ValueError, match="dim"):
        PipelineConfig.from_file(path)
    assert PipelineConfig.from_dict({"encoder": {"dim": 1}}).encoder.dim == 1


def config_at_dim_512(world, **paths):
    """The world's config with a 512-d encoder and some paths overridden."""
    doc = yaml.safe_load(world["config"].read_text())
    world["config"].write_text(yaml.safe_dump(
        {**doc, "paths": {**doc["paths"], **paths}, "encoder": {"dim": 512}}))
    return PipelineConfig.from_file(world["config"])


def test_the_domain_classifier_embeds_with_the_runtime_encoder(tmp_path):
    # The world's KG rows and images are 256-d: without them a 512-d encoder runs.
    world = write_world(tmp_path / "world")
    runtime = build_runtime(config_at_dim_512(world, kg_corpus=None, image_fixtures=None))
    assert runtime.text_encoder.dim == 512
    assert runtime.pre_answer.classifier.encoder is runtime.text_encoder


@pytest.mark.parametrize("dropped, named", [("image_fixtures", "kg entry "),
                                            ("kg_corpus", "image ")])
def test_a_kg_row_or_image_of_another_dimension_than_the_encoder_is_rejected(
        tmp_path, dropped, named):
    world = write_world(tmp_path / "world")
    with pytest.raises(ValueError, match=f"^{named}.* has dim 256, not the encoder's 512$"):
        build_runtime(config_at_dim_512(world, **{dropped: None}))


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
    if isinstance(value, dict):  # a taxonomy label is named by its axis
        field = f"{field}.{next(iter(value))}"
    assert str(err.value).startswith(f"{path}: line 3: {field}: expected ")


@pytest.mark.parametrize("name, field", [("dataset", "turn_index"),
                                         ("image_fixtures", "width")])
def test_an_infinite_integer_field_names_its_line(tmp_path, name, field):
    path = write_world(tmp_path)[name]
    with_wrong_type(path, field, float("inf"))
    with pytest.raises(ParseError, match="line 3: cannot convert float infinity"):
        LOADERS[name](path)


@pytest.mark.parametrize("field, value", [("width", 640.7), ("height", -5), ("width", 0),
                                          ("height", float("nan"))])
def test_an_image_side_must_be_a_whole_number_above_zero(tmp_path, field, value):
    path = write_world(tmp_path)["image_fixtures"]
    with_wrong_type(path, field, value)
    with pytest.raises(ParseError, match=f"line 3: {field} must be a whole number > 0"):
        ImageStore.from_jsonl(path)


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
