import dataclasses
import json

import pytest

from dynarag.errors import ParseError
from dynarag.evalharness import (
    build_report,
    load_dataset,
    run_eval,
    score_accuracy,
    score_overlap,
)
from dynarag.fixtures import eval_rows, model_entries
from dynarag.gateway import ModelGateway, ScriptedBackend
from dynarag.orchestrator import STAGE_ERROR_FALLBACK


# --- accuracy oracle ---------------------------------------------------------------


def test_substring_match_scores_one():
    assert score_accuracy("It is a blue whale.", "blue whale") == 1


def test_fallback_scores_zero():
    assert score_accuracy("I don't know", "blue whale") == 0
    assert score_accuracy("I don't know", "I don't know") == 0


def test_wrong_entity_scores_zero():
    assert score_accuracy("BMW M3", "BMW M4") == 0


def test_accuracy_normalizes_case_and_punctuation():
    assert score_accuracy("The answer is: BLUE-WHALE!", "blue whale") == 1


def test_exact_equality_counts():
    assert score_accuracy("blue whale", "blue whale") == 1


# --- overlap -----------------------------------------------------------------------


def test_identical_strings_overlap_one():
    assert score_overlap("red sports car", "red sports car") == 1.0


def test_disjoint_tokens_overlap_zero():
    assert score_overlap("entirely unrelated words", "blue whale") == 0.0


def test_overlap_two_thirds_case():
    # truth {red, sports, car}; answer {red, car} after stopword removal
    assert score_overlap("a red car", "red sports car") == pytest.approx(2 / 3)


def test_overlap_is_one_when_answer_superset():
    assert score_overlap("the shiny red sports car over there", "red sports car") == 1.0


def test_overlap_ignores_stopwords_both_sides():
    assert score_overlap("it is the whale", "the whale") == 1.0


# --- dataset loading ------------------------------------------------------------------


def test_load_dataset_parses_rows(tmp_path):
    path = tmp_path / "data.jsonl"
    with open(path, "w") as fh:
        for row in eval_rows()[:3]:
            fh.write(json.dumps(row) + "\n")
    records = load_dataset(path, default_deadline_s=10.0)
    assert len(records) == 3
    assert records[0].turn.deadline_s == 10.0
    assert records[0].ground_truth


def test_load_dataset_rejects_bad_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(eval_rows()[0]) + "\n{broken\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, 10.0)
    assert err.value.line == 2


def test_empty_ground_truth_rejected(tmp_path):
    row = dict(eval_rows()[0], ground_truth="")
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ParseError):
        load_dataset(path, 10.0)


@pytest.mark.parametrize("deadline_s", [float("nan"), float("inf"), 0, -2.5])
def test_a_deadline_that_is_not_finite_and_positive_is_rejected(tmp_path, deadline_s):
    rows = eval_rows()[:2]
    rows[1] = dict(rows[1], deadline_s=deadline_s)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError, match="deadline_s") as err:
        load_dataset(path, 10.0)
    assert err.value.line == 2


@pytest.mark.parametrize("question", ["", "   ", "\n\t"])
def test_a_blank_question_is_rejected(tmp_path, question):
    rows = eval_rows()[:2]
    rows[1] = dict(rows[1], question=question)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError, match="question") as err:
        load_dataset(path, 10.0)
    assert err.value.line == 2


@pytest.mark.parametrize("turn_index", [0.7, True])
def test_a_turn_index_that_is_not_an_integer_is_rejected(tmp_path, turn_index):
    rows = eval_rows()[:2]
    rows[1] = dict(rows[1], turn_index=turn_index)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError, match="turn_index") as err:
        load_dataset(path, 10.0)
    assert err.value.line == 2


# --- report construction -----------------------------------------------------------------


def rows_fixture():
    base = {"session_id": "s", "turn_index": 0, "question": "q",
            "final_answer": "a", "ground_truth": "a", "fallback": False,
            "stages": []}
    return [
        dict(base, accuracy=1, overlap=1.0, elapse=1.0, branch="direct_output",
             dynamism="static", category="c1", domain="d1"),
        dict(base, accuracy=0, overlap=0.5, elapse=3.0, branch="rag_augment",
             dynamism="static", category="c1", domain="d2"),
        dict(base, accuracy=1, overlap=0.25, elapse=2.0, branch="rag_augment",
             dynamism="slow", category="c2", domain="d1"),
    ]


def test_report_averages():
    report = build_report(rows_fixture())
    assert report.n == 3
    assert report.accuracy == pytest.approx(100 * 2 / 3)
    assert report.overlap == pytest.approx(100 * (1.0 + 0.5 + 0.25) / 3)
    assert report.elapse == pytest.approx(2.0)


def test_report_groups_partition_records():
    report = build_report(rows_fixture())
    for axis in ("branch", "dynamism", "category", "domain"):
        assert sum(g["n"] for g in report.per_taxonomy[axis].values()) == report.n


def test_headline_numbers_recompute_from_record_json():
    report = build_report(rows_fixture())
    payload = json.loads(report.to_json())
    records = payload["records"]
    n = len(records)
    assert payload["n"] == n
    assert payload["accuracy"] == pytest.approx(
        100 * sum(r["accuracy"] for r in records) / n
    )
    assert payload["overlap"] == pytest.approx(
        100 * sum(r["overlap"] for r in records) / n
    )
    assert payload["elapse"] == pytest.approx(
        sum(r["elapse"] for r in records) / n
    )
    assert payload["schema_version"] == 1


def test_markdown_table_has_metric_columns():
    md = build_report(rows_fixture()).to_markdown()
    assert "Accuracy ↑" in md and "Overlap ↑" in md and "Elapse ↓" in md
    assert md.count("|") > 10


# --- full harness runs ----------------------------------------------------------------------


def test_three_record_smoke_run(world_runtime, tmp_path):
    rows = [r for r in eval_rows() if r["session_id"] in
            ("umbrella-q1", "cafe-q1", "whale-q1")]
    path = tmp_path / "smoke.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report = run_eval(path, world_runtime)
    assert report.n == 3
    assert report.accuracy == 100.0
    assert report.overlap == 100.0


def test_deadline_record_counts_with_zero_accuracy(world_runtime, tmp_path):
    rows = [r for r in eval_rows() if r["session_id"] == "deadline-q1"]
    path = tmp_path / "deadline.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report = run_eval(path, world_runtime)
    assert report.n == 1
    assert report.accuracy == 0.0
    assert report.records[0]["fallback"] is True
    assert report.records[0]["elapse"] <= 10.0


def test_full_world_eval_and_parallelism_agree(world_runtime, tmp_path):
    path = tmp_path / "all.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in eval_rows()) + "\n")
    first = run_eval(path, world_runtime)
    second = run_eval(path, world_runtime)
    assert first.n == second.n == len(eval_rows())
    assert first.accuracy == second.accuracy
    assert first.overlap == second.overlap
    first_answers = [r["final_answer"] for r in first.records]
    assert first_answers == [r["final_answer"] for r in second.records]


def test_partial_failure_scored_as_fallback(world_runtime, tmp_path):
    # an image-less record whose fixtures do not exist anywhere
    row = {
        "session_id": "ghost", "turn_index": 0, "question": "Who?",
        "image_ref": "img-cafe", "ground_truth": "nobody",
        "taxonomy": {"dynamism": "static", "category": "x", "domain": "other"},
    }
    path = tmp_path / "ghost.jsonl"
    path.write_text(json.dumps(row) + "\n")
    report = run_eval(path, world_runtime)
    assert report.n == 1
    assert report.records[0]["accuracy"] == 0


# --- the shared session runner ----------------------------------------------------------


def write_rows(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def test_library_error_scores_as_fallback_and_session_continues(world_runtime, tmp_path):
    entries = [e for e in model_entries()
               if (e.template_id, e.fixture_key) != ("evaluator", "dialog-1:0")]
    runtime = dataclasses.replace(world_runtime, gateway=ModelGateway(ScriptedBackend(entries)))
    rows = [r for r in eval_rows()
            if r["session_id"] == "dialog-1" and r["turn_index"] < 2]
    first, second = run_eval(write_rows(tmp_path, rows), runtime).records
    assert first["fallback"] is True
    assert first["accuracy"] == 0
    assert first["stages"] == ["pre_answer", STAGE_ERROR_FALLBACK]
    assert second["turn_index"] == 1
    assert second["fallback"] is False
    assert STAGE_ERROR_FALLBACK not in second["stages"]


def test_non_library_error_propagates_out_of_eval(world_runtime, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in backend")

    monkeypatch.setattr(world_runtime.gateway.backend, "complete", broken)
    with pytest.raises(RuntimeError, match="bug in backend"):
        run_eval(write_rows(tmp_path, eval_rows()[:1]), world_runtime)


@pytest.mark.parametrize("indices", [(0, 2), (0, 0), (1,)])
def test_session_turn_indices_must_be_contiguous(world_runtime, tmp_path, indices):
    rows = [dict(eval_rows()[0], turn_index=i) for i in indices]
    with pytest.raises(ValueError, match="contiguous"):
        run_eval(write_rows(tmp_path, rows), world_runtime)
