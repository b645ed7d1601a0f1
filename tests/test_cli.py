import json

import pytest

from cases import WRONG_TYPED_FIELDS, with_wrong_type
from dynarag.cli import main
from dynarag.fixtures import write_world


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    return write_world(root)


def test_ingest_reports_corpus_stats(world, tmp_path, capsys):
    out = tmp_path / "stats.json"
    code = main(["ingest", "--config", str(world["config"]), "--out", str(out)])
    assert code == 0
    stats = json.loads(out.read_text())
    assert stats["web_docs"] == 14
    assert stats["kg_entries"] == 6
    assert stats["images"] == 19
    assert stats["encoder_dim"] == 256


def test_eval_writes_json_and_markdown(world, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "eval", "--config", str(world["config"]),
        "--dataset", str(world["dataset"]),
        "--report-out", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["n"] == 23
    assert payload["accuracy"] > 50.0
    md = report_path.with_suffix(".json.md").read_text()
    assert "Accuracy ↑" in md
    out = capsys.readouterr().out
    assert "n=23" in out


def test_trace_dumps_pipeline_json(world, capsys):
    code = main([
        "trace", "--config", str(world["config"]),
        "--dataset", str(world["dataset"]), "--index", "10",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["question"]
    assert payload["trace"]["route"]["branch"] in (
        "direct_output", "search_verify", "rag_augment"
    )
    assert payload["trace"]["stages"]


def test_trace_replays_session_context(world, capsys):
    # record index 21 is the third dialogue turn; its answer needs turn 0+1 state
    code = main([
        "trace", "--config", str(world["config"]),
        "--dataset", str(world["dataset"]), "--index", "21",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["question"] == "Who designed it?"
    assert "Porsche 911" in payload["final_answer"]


def test_trace_index_out_of_range(world, capsys):
    code = main([
        "trace", "--config", str(world["config"]),
        "--dataset", str(world["dataset"]), "--index", "999",
    ])
    assert code == 2
    one_error_line(capsys, "999")


def test_trace_matches_eval_row_for_every_record(world, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main([
        "eval", "--config", str(world["config"]),
        "--dataset", str(world["dataset"]), "--report-out", str(report_path),
    ]) == 0
    rows = {(r["session_id"], r["turn_index"]): r
            for r in json.loads(report_path.read_text())["records"]}
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()
               if line.strip()]
    assert len(records) == len(rows) == 23
    capsys.readouterr()
    for index, record in enumerate(records):
        assert main([
            "trace", "--config", str(world["config"]),
            "--dataset", str(world["dataset"]), "--index", str(index),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = rows[(record["session_id"], record["turn_index"])]
        assert payload["final_answer"] == row["final_answer"], index
        assert payload["trace"]["route"]["branch"] == row["branch"], index
        assert payload["trace"]["stages"] == row["stages"], index


def gapped_dataset(world, tmp_path):
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()
               if line.strip()]
    gapped = [r for r in records
              if not (r["session_id"] == "dialog-1" and r["turn_index"] == 1)]
    dataset = tmp_path / "gapped.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in gapped) + "\n")
    first = next(i for i, r in enumerate(gapped) if r["session_id"] == "dialog-1")
    return dataset, first


def one_error_line(capsys, *needles):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    for needle in needles:
        assert needle in lines[0]


def test_trace_rejects_a_session_with_a_gap(world, tmp_path, capsys):
    dataset, first = gapped_dataset(world, tmp_path)
    code = main(["trace", "--config", str(world["config"]),
                 "--dataset", str(dataset), "--index", str(first)])
    assert code == 2
    one_error_line(capsys, "contiguous", "dialog-1")


def test_eval_rejects_a_session_with_a_gap_before_any_turn(world, tmp_path, capsys,
                                                           monkeypatch):
    from dynarag.orchestrator import Orchestrator

    def no_turns(*args):
        raise AssertionError("a turn ran before the dataset was checked")

    monkeypatch.setattr(Orchestrator, "answer_turn", no_turns)
    dataset, _ = gapped_dataset(world, tmp_path)
    report_path = tmp_path / "report.json"
    code = main(["eval", "--config", str(world["config"]),
                 "--dataset", str(dataset), "--report-out", str(report_path)])
    assert code == 2
    one_error_line(capsys, "contiguous", "dialog-1")
    assert not report_path.exists()


@pytest.mark.parametrize("command", ["eval", "trace"])
def test_malformed_dataset_line_is_one_error_line(world, tmp_path, capsys, command):
    lines = world["dataset"].read_text().splitlines()
    dataset = tmp_path / "broken.jsonl"
    dataset.write_text("\n".join([lines[0], "{not json", *lines[1:]]) + "\n")
    extra = (["--report-out", str(tmp_path / "report.json")] if command == "eval"
             else ["--index", "0"])
    code = main([command, "--config", str(world["config"]),
                 "--dataset", str(dataset), *extra])
    assert code == 2
    one_error_line(capsys, "line 2")


def command_args(command, config, world, tmp_path):
    extra = {"ingest": [],
             "eval": ["--dataset", str(world["dataset"]),
                      "--report-out", str(tmp_path / "report.json")],
             "trace": ["--dataset", str(world["dataset"]), "--index", "0"]}
    return [command, "--config", str(config), *extra[command]]


COMMANDS = ["ingest", "eval", "trace"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("text, needle", [("rerank:\n  k_1: 5\n", "k_1"),
                                          ("paths: [\n", "invalid YAML"),
                                          ("agents:\n  object_num: 0\n", "object_num"),
                                          ("agents:\n  k_per_query: -1\n", "k_per_query"),
                                          ("agents:\n  k_total: 0\n", "k_total")])
def test_bad_config_is_one_error_line(world, tmp_path, capsys, command, text, needle):
    config = tmp_path / "config.yaml"
    config.write_text(text)
    assert main(command_args(command, config, world, tmp_path)) == 2
    one_error_line(capsys, str(config), needle)


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_config_file_is_one_error_line(world, tmp_path, capsys, command):
    config = tmp_path / "no-such-config.yaml"
    assert main(command_args(command, config, world, tmp_path)) == 2
    one_error_line(capsys, str(config), "No such file")


@pytest.mark.parametrize("command", COMMANDS)
def test_non_json_corpus_line_is_one_error_line(world, tmp_path, capsys, command):
    broken = write_world(tmp_path / "broken")
    lines = broken["web_corpus"].read_text().splitlines()
    broken["web_corpus"].write_text("\n".join([lines[0], "not json", *lines[1:]]) + "\n")
    assert main(command_args(command, broken["config"], world, tmp_path)) == 2
    one_error_line(capsys, str(broken["web_corpus"]), "line 2")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_corpus_file_is_one_error_line(world, tmp_path, capsys, command):
    broken = write_world(tmp_path / "broken")
    broken["kg_corpus"].unlink()
    assert main(command_args(command, broken["config"], world, tmp_path)) == 2
    one_error_line(capsys, str(broken["config"]), str(broken["kg_corpus"]))


def test_model_fixture_line_without_a_key_is_one_error_line(world, tmp_path, capsys):
    broken = write_world(tmp_path / "broken")
    broken["model_fixtures"].write_text('{"template_id": "evaluator"}\n')
    assert main(command_args("eval", broken["config"], world, tmp_path)) == 2
    one_error_line(capsys, str(broken["model_fixtures"]), "line 1", "'fixture_key'")


@pytest.mark.parametrize("name, field, value", WRONG_TYPED_FIELDS)
def test_wrong_typed_input_value_is_one_error_line(world, tmp_path, capsys, name, field,
                                                   value):
    broken = write_world(tmp_path / "broken")
    with_wrong_type(broken[name], field, value)
    args = command_args("eval", broken["config"], world, tmp_path)
    if name == "dataset":
        args[args.index("--dataset") + 1] = str(broken["dataset"])
    assert main(args) == 2
    one_error_line(capsys, str(broken[name]), "line 3", field)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["eval", "trace"])
@pytest.mark.parametrize("error", [ValueError, OSError, RuntimeError])
def test_an_exception_inside_a_turn_propagates(world, tmp_path, monkeypatch, command, error):
    from dynarag.orchestrator import Orchestrator

    def failing_turn(*args):
        raise error("raised inside a turn")

    monkeypatch.setattr(Orchestrator, "answer_turn", failing_turn)
    with pytest.raises(error, match="inside a turn"):
        main(command_args(command, world["config"], world, tmp_path))
