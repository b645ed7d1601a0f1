import json

import pytest

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


def test_trace_rejects_a_session_with_a_gap(world, tmp_path):
    records = [json.loads(line) for line in world["dataset"].read_text().splitlines()
               if line.strip()]
    gapped = [r for r in records
              if not (r["session_id"] == "dialog-1" and r["turn_index"] == 1)]
    dataset = tmp_path / "gapped.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in gapped) + "\n")
    first = next(i for i, r in enumerate(gapped) if r["session_id"] == "dialog-1")
    with pytest.raises(ValueError, match="contiguous"):
        main(["trace", "--config", str(world["config"]),
              "--dataset", str(dataset), "--index", str(first)])
