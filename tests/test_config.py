import json

import pytest
import yaml

from dynarag.config import PipelineConfig, RerankConfig


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
