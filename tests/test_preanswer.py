import json

import numpy as np
import pytest

from cases import unlimited_budget
from dynarag.config import DomainConfig, PipelineConfig, RoutingConfig
from dynarag.encoders import HashedTextEncoder, tokenize
from dynarag.evalharness import load_dataset
from dynarag.gateway import FixtureEntry, ModelGateway, ScriptedBackend, TurnModel
from dynarag.preanswer import (
    DomainLabel,
    KeywordCentroidClassifier,
    PreAnswerModule,
    extract_flags,
    extract_object_name,
    is_specific_identity,
    parse_trace,
)

ROUTING = RoutingConfig()
DOMAINS = DomainConfig()


def make_module() -> PreAnswerModule:
    return PreAnswerModule(KeywordCentroidClassifier(DOMAINS), ROUTING)


def turn_model(entries, query, image_ref, key) -> TurnModel:
    return TurnModel(ModelGateway(ScriptedBackend(entries)), key, image_ref, query,
                     "", unlimited_budget())


def evaluator_entry(key, text, probs=(0.9, 0.9)):
    return FixtureEntry("evaluator", key, text, probs, 0.0)


# --- domain classification -----------------------------------------------------


def test_cafe_query_classifies_to_food():
    # Golden value recorded from the default keyword-centroid classifier.
    label = KeywordCentroidClassifier(DOMAINS).classify("Who founded this cafe?")
    assert label.name == "food"
    assert label.confidence > 0


def test_integral_query_classifies_to_math():
    label = KeywordCentroidClassifier(DOMAINS).classify("What is the integral of x?")
    assert label.name == "math"


def test_empty_query_falls_back_to_other():
    label = KeywordCentroidClassifier(DOMAINS).classify("")
    assert label.name == "other"
    assert label.confidence == 0.0


def test_classifier_is_total():
    clf = KeywordCentroidClassifier(DOMAINS)
    for query in ("zzzz qqqq xxxx", "42", "?!", "the of and", "ünïcode tæxt"):
        label = clf.classify(query)
        assert label.name in DOMAINS.taxonomy


def reference_label(domains: DomainConfig, encoder, query: str) -> DomainLabel:
    """The classifier as it ran when it built every keyword set on each call."""
    tokens = set(tokenize(query))
    if not tokens:
        return DomainLabel("other", 0.0)
    hits = {name: len(tokens & {w.lower() for w in words})
            for name, words in domains.keywords.items() if name in domains.taxonomy}
    best = max(hits, key=lambda name: (hits[name], name), default=None)
    if best is not None and hits[best] > 0:
        return DomainLabel(best, min(1.0, hits[best] / max(len(tokens), 1) + 0.5))
    qvec = encoder.encode(query)
    scored = {name: float(np.dot(qvec, encoder.encode(" ".join((name,) + tuple(words)))))
              for name, words in domains.keywords.items() if name in domains.taxonomy}
    best = max(scored, key=lambda name: (scored[name], name), default=None)
    if best is None or scored[best] <= 0.0:
        return DomainLabel("other", 0.0)
    return DomainLabel(best, max(0.0, min(1.0, scored[best])))


@pytest.mark.parametrize("world", ["demo", "web_scale", "long_docs"])
def test_every_world_question_keeps_its_label_and_confidence(input_worlds, world):
    config = PipelineConfig.from_file(input_worlds[world])
    records = load_dataset(input_worlds[world].parent / "dataset.jsonl",
                           config.limits.turn_deadline_s)
    encoder = HashedTextEncoder()
    classifier = KeywordCentroidClassifier(config.domains, encoder)
    questions = [record.turn.question for record in records]
    assert questions
    for question in questions:
        got = classifier.classify(question)
        want = reference_label(config.domains, encoder, question)
        assert (got.name, got.confidence.hex()) == (want.name, want.confidence.hex())


def test_taxonomy_requires_other():
    with pytest.raises(ValueError):
        DomainConfig(taxonomy=("food", "math"))


# --- trace parsing ----------------------------------------------------------------


def ocr_trace():
    return "\n".join([
        '1. The exact name of the object that the query "What is written '
        'on these umbrellas?" is about is the umbrellas.',
        '2. The text written on the umbrellas reads "Sunny Days".',
        json.dumps({"reasoning": "Read the canopy.",
                    "answer": 'The umbrellas say "Sunny Days".'}),
    ])


def test_scripted_ocr_fixture_parses_to_draft_and_flags():
    module = make_module()
    domain = module.classify_domain("What is written on these umbrellas?")
    trace = module.dcot_preanswer(
        turn_model([evaluator_entry("umbrella-q1", ocr_trace())],
                   "What is written on these umbrellas?", "img-1", "umbrella-q1"),
        domain,
    )
    assert trace.draft_answer == 'The umbrellas say "Sunny Days".'
    assert not trace.flags.has_idk
    assert trace.flags.is_ocr_answer
    assert trace.token_probs == (0.9, 0.9)


def test_cannot_determine_marks_unanswerable():
    text = "\n".join([
        "1. I cannot determine the name of the cafe that the query is about.",
        json.dumps({"reasoning": "r", "answer": "I cannot determine the name."}),
    ])
    trace = parse_trace(text, ROUTING)
    assert trace.flags.has_idk
    assert "cannot determine" in trace.draft_answer.lower()
    assert trace.object_name is None


def test_seven_steps_truncate_to_five(caplog):
    steps = [f"{i}. Step number {i} of the reasoning." for i in range(1, 8)]
    text = "\n".join(steps + [json.dumps({"reasoning": "r", "answer": "x"})])
    with caplog.at_level("WARNING"):
        trace = parse_trace(text, ROUTING)
    assert len(trace.steps) == 5
    assert any("truncating" in r.message for r in caplog.records)


def test_an_object_named_past_the_step_cut_is_kept():
    steps = [f"{i}. Step number {i} of the reasoning." for i in range(1, 7)]
    steps.append('7. The exact name of the object that the query "q" is about is '
                 "the Eiffel Tower.")
    text = "\n".join(steps + [json.dumps({"reasoning": "r", "answer": "x"})])
    trace = parse_trace(text, ROUTING)
    assert len(trace.steps) == 5
    assert trace.object_name == "Eiffel Tower"
    assert trace.flags.is_named_object
    assert extract_flags(text, ROUTING).is_named_object


def test_unparseable_output_is_conservatively_unanswerable():
    trace = parse_trace("complete nonsense with no structure", ROUTING)
    assert trace.flags.has_idk
    assert trace.steps == []


def test_a_summary_line_nested_past_the_recursion_limit_does_not_decode():
    deep = '{"a": ' * 100_000 + "1" + "}" * 100_000
    trace = parse_trace("1. The answer is 42.\n" + deep, ROUTING)
    assert trace.steps == ["The answer is 42."]
    assert trace.draft_answer == "The answer is 42."


@pytest.mark.parametrize("answer, draft", [
    (12, "12"),
    (2.5, "2.5"),
    # Any other value does not decode, so the draft is the last step.
    (None, 'The sign reads "Open".'),
    (True, 'The sign reads "Open".'),
    (["Open"], 'The sign reads "Open".'),
    ({"text": "Open"}, 'The sign reads "Open".'),
])
def test_only_a_string_or_number_summary_answer_gives_the_draft(answer, draft):
    text = "\n".join([
        '1. The exact name of the object that the query "q" is about is the sign.',
        '2. The sign reads "Open".',
        json.dumps({"reasoning": "read it", "answer": answer}),
    ])
    assert parse_trace(text, ROUTING).draft_answer == draft


def test_parse_failure_inside_module_is_conservative():
    module = make_module()
    domain = module.classify_domain("q")
    trace = module.dcot_preanswer(
        turn_model([evaluator_entry("bad", "garbage blob")], "q", "img", "bad"), domain)
    assert trace.flags.has_idk


def test_first_step_names_the_object():
    trace = parse_trace(ocr_trace(), ROUTING)
    assert trace.steps[0].startswith("The exact name of the object")
    assert trace.object_name == "umbrellas"


# --- flag extraction -----------------------------------------------------------------


def test_flags_are_pure_function_of_text():
    text = ocr_trace()
    assert extract_flags(text, ROUTING) == extract_flags(text, ROUTING)


def test_has_idk_iff_phrase_present():
    for phrase in ROUTING.unanswerable_phrases:
        assert extract_flags(f"1. Well, {phrase} here.", ROUTING).has_idk
    assert not extract_flags("1. A confident statement.", ROUTING).has_idk


def test_numeric_detection():
    numeric = "\n".join([
        "1. The receipt shows two amounts.",
        json.dumps({"reasoning": "r", "answer": "The total is $12.50."}),
    ])
    assert extract_flags(numeric, ROUTING).is_numeric_answer
    verbal = "\n".join([
        "1. The plate holds food.",
        json.dumps({"reasoning": "r", "answer": "A plate of pasta."}),
    ])
    assert not extract_flags(verbal, ROUTING).is_numeric_answer


def test_the_draft_and_the_numeric_flag_read_the_same_summary_line():
    # The last summary-shaped line does not decode, so the earlier one gives
    # the draft and must give the numeric flag too.
    text = "\n".join([
        '1. The exact name of the object that the query "q" is about is the receipt.',
        json.dumps({"reasoning": "added", "answer": "12"}),
        "{not json}",
    ])
    trace = parse_trace(text, ROUTING)
    assert trace.draft_answer == "12"
    assert trace.flags.is_numeric_answer
    assert extract_flags(text, ROUTING).is_numeric_answer


def test_speculative_detection():
    text = "1. The dish is probably shakshuka."
    assert extract_flags(text, ROUTING).speculative
    assert not extract_flags("1. The dish is shakshuka.", ROUTING).speculative


def test_open_world_cue_from_capitalized_span():
    named = '1. The exact name of the object that the query "q" is about is BMW M4.'
    assert extract_flags(named, ROUTING).open_world_cue
    plain = '1. The exact name of the object that the query "q" is about is the umbrellas.'
    assert not extract_flags(plain, ROUTING).open_world_cue


def test_quoted_ocr_spans_do_not_trigger_open_world():
    text = '2. The text written on the sign reads "Sunny Days Ahead".'
    flags = extract_flags(text, ROUTING)
    assert flags.is_ocr_answer
    assert not flags.open_world_cue


def test_specific_identity_heuristic():
    assert is_specific_identity("BMW M4", ROUTING)
    assert is_specific_identity("Blue Bottle Coffee", ROUTING)
    assert is_specific_identity("blue whale", ROUTING)
    assert not is_specific_identity("umbrellas", ROUTING)
    assert not is_specific_identity("red car", ROUTING)
    assert not is_specific_identity("cafe", ROUTING)
    assert not is_specific_identity(None, ROUTING)


def test_extract_object_name_variants():
    assert extract_object_name(
        '1. The exact name of the object that the query "q" is about is the Eiffel Tower.'
    ) == "Eiffel Tower"
    assert extract_object_name("no step lines at all") is None
