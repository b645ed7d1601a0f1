import difflib
import json
import random

import pytest

from cases import unlimited_budget
from dynarag.errors import BackendTimeout
from dynarag.gateway import FixtureEntry, ModelGateway, ScriptedBackend, TurnModel
from dynarag.image_agent import (
    ImageSearchAgent,
    Region,
    _nearest,
    visual_match,
)
from dynarag.timing import SimulatedClock, TimeBudget
from dynarag.search import (
    ImageKgIndex,
    ImageRecord,
    ImageStore,
    KgEntry,
    unit_embedding_for,
)


def kg_entry(name, url, seed, visual_match=None, **attrs):
    attributes = {"title": name, **attrs}
    if visual_match is not None:
        attributes["visual_match"] = visual_match
    return KgEntry.from_dict({
        "entity_name": name,
        "url": url,
        "image_embedding": list(unit_embedding_for(seed)),
        "attributes": attributes,
    })


KG_ENTRIES = [
    kg_entry("Porsche 911", "kg://car/911", "silver 911"),
    kg_entry("Fiat 500", "kg://car/fiat", "small italian car"),
    kg_entry("Decoy Sculpture", "kg://statue/decoy", "roadside sculpture",
             visual_match="false"),
]

IMAGE = ImageRecord(
    image_id="img-street",
    whole_embedding=unit_embedding_for("street scene"),
    regions=[
        {"label": "car", "bbox": (10, 20, 100, 80),
         "embedding": unit_embedding_for("silver 911"), "confidence": 0.9},
        {"label": "car", "bbox": (200, 30, 120, 90),
         "embedding": unit_embedding_for("small italian car parked"), "confidence": 0.8},
        {"label": "tree", "bbox": (400, 0, 50, 200),
         "embedding": unit_embedding_for("oak tree"), "confidence": 0.7},
        {"label": "sign", "bbox": (600, 400, 200, 300),  # overflows 640x480
         "embedding": unit_embedding_for("street sign"), "confidence": 0.6},
    ],
)


def make_agent() -> ImageSearchAgent:
    return ImageSearchAgent(
        kg_index=ImageKgIndex().build(KG_ENTRIES),
        image_store=ImageStore([IMAGE]),
    )


def turn_model(entries=(), query="q", image_ref="img-street",
               budget=None) -> TurnModel:
    """Turn "k" over the scripted ``entries``, on ``budget`` or, by default,
    one without a deadline."""
    return TurnModel(ModelGateway(ScriptedBackend(list(entries))), "k", image_ref,
                     query, "", budget or unlimited_budget())


def fe(template, key, text, latency_ms=0.0):
    return FixtureEntry(template, key, text, (0.9,), latency_ms)


# --- object extraction -----------------------------------------------------------


def test_extract_scripted_three_objects():
    model = turn_model([fe("object_list", "k",
                           json.dumps({"object_list": ["car", "building", "tree"]}))])
    out = make_agent().extract_objects(model, 5)
    assert out == ["car", "building", "tree"]


def test_extract_filters_actions():
    model = turn_model([fe("object_list", "k",
                           json.dumps({"object_list": ["car", "running", "tree"]}))])
    out = make_agent().extract_objects(model, 5)
    assert out == ["car", "tree"]


def test_extract_truncates_to_object_num():
    names = [f"thing{i}" for i in range(8)]
    model = turn_model([fe("object_list", "k", json.dumps({"object_list": names}))])
    out = make_agent().extract_objects(model, 5)
    assert len(out) == 5


def test_extract_caps_names_at_three_words():
    model = turn_model([fe("object_list", "k",
                           json.dumps({"object_list": ["very long object name here"]}))])
    out = make_agent().extract_objects(model, 5)
    assert out[0] == "very long object"


def test_extract_parse_failure_gives_empty_list():
    model = turn_model([fe("object_list", "k", "not json at all")])
    assert make_agent().extract_objects(model, 5) == []


def test_extract_rejects_nonpositive_object_num():
    with pytest.raises(ValueError):
        make_agent().extract_objects(turn_model(), 0)


# --- object selection -------------------------------------------------------------


def test_select_single_candidate_passthrough():
    assert make_agent().select_object(turn_model(), ["car"]) == "car"


def test_select_duplicates_get_the_model_choice():
    model = turn_model([fe("object_select", "k", json.dumps({"object": "car"}))],
                       query="the car on the right")
    out = make_agent().select_object(model, ["car", "car"])
    assert out == "car"


def test_select_model_attribute_preserved():
    model = turn_model([fe("object_select", "k", json.dumps({"object": "red car"}))])
    # the head word wins over the closer spelling "red cart"
    out = make_agent().select_object(model, ["red cart", "car"])
    assert out == "car"


def test_select_unknown_name_repaired_to_nearest():
    model = turn_model([fe("object_select", "k", json.dumps({"object": "vehicle"}))])
    out = make_agent().select_object(model, ["car", "tree"])
    assert out in ("car", "tree")


@pytest.mark.parametrize("reply", ["xyz", "qqq"])
@pytest.mark.parametrize("candidates", [["awning", "cafe"], ["cafe", "awning"]])
def test_select_sharing_no_character_gives_the_first_candidate(reply, candidates):
    # Every candidate scores 0; get_close_matches would pick the greatest string.
    model = turn_model([fe("object_select", "k", json.dumps({"object": reply}))])
    assert make_agent().select_object(model, candidates) == candidates[0]


def test_select_nearest_keeps_every_untied_close_match():
    rng = random.Random(7)
    names = ["".join(rng.choice("abcdeor ") for _ in range(rng.randint(1, 9))).strip() or "a"
             for _ in range(400)]
    checked = 0
    for i in range(0, 396, 4):
        chosen, candidates = names[i], names[i + 1:i + 4]
        matcher = difflib.SequenceMatcher()
        matcher.set_seq2(chosen)
        ratios = []
        for candidate in candidates:
            matcher.set_seq1(candidate)
            ratios.append(matcher.ratio())
        if max(ratios) > 0 and ratios.count(max(ratios)) == 1:
            want = difflib.get_close_matches(chosen, candidates, n=1, cutoff=0.0)
            assert [_nearest(chosen, candidates)] == want
            checked += 1
    assert checked > 50


def test_select_empty_candidates_raises():
    with pytest.raises(ValueError):
        make_agent().select_object(turn_model(), [])


# --- region detection ----------------------------------------------------------------


def test_detect_two_car_regions():
    regions = make_agent().detect_regions(IMAGE, "car")
    assert len(regions) == 2
    assert all(r.label == "car" for r in regions)


def test_detect_no_match_falls_back_to_whole_image():
    regions = make_agent().detect_regions(IMAGE, "bicycle")
    assert len(regions) == 1
    assert regions[0].bbox == (0, 0, 640, 480)
    assert regions[0].embedding is not None


def test_detect_clamps_overflowing_box():
    regions = make_agent().detect_regions(IMAGE, "sign")
    (x, y, w, h) = regions[0].bbox
    assert x + w <= 640 and y + h <= 480
    assert regions[0].detector_confidence == 0.6


def test_detect_requires_object_name():
    with pytest.raises(ValueError):
        make_agent().detect_regions(IMAGE, "")


# --- fused multi-region search ----------------------------------------------------------


def region(seed, label="r") -> Region:
    return Region((0, 0, 10, 10), label, 1.0, unit_embedding_for(seed))


def test_single_region_equals_plain_kg_search():
    agent = make_agent()
    r = region("silver 911")
    fused = agent.multi_image_search([r], 3)
    plain = agent.kg_index.search(r.embedding, 3)
    assert [(h.url, h.score) for h in fused] == [(h.url, h.score) for h in plain]


def test_fusion_dedups_by_max_score():
    agent = make_agent()
    strong = region("silver 911")           # cosine 1.0 with kg://car/911
    weak = region("silver 911 plus noise")  # lower cosine, same top hit
    fused = agent.multi_image_search([strong, weak], 5)
    urls = [h.url for h in fused]
    assert urls.count("kg://car/911") == 1
    top = next(h for h in fused if h.url == "kg://car/911")
    assert abs(top.score - 1.0) < 1e-9


def test_fusion_of_disjoint_lists_is_merged_descending():
    agent = make_agent()
    fused = agent.multi_image_search(
        [region("silver 911"), region("small italian car")], 5
    )
    # brute-force expectation: per-region searches merged by url, max score,
    # sorted descending
    expected: dict[str, float] = {}
    for r in (region("silver 911"), region("small italian car")):
        for hit in agent.kg_index.search(r.embedding, 5):
            expected[hit.url] = max(expected.get(hit.url, -2.0), hit.score)
    assert {h.url: h.score for h in fused} == pytest.approx(expected)
    scores = [h.score for h in fused]
    assert scores == sorted(scores, reverse=True)
    assert len(fused) <= 5


def test_fusion_idempotent_and_commutative():
    agent = make_agent()
    a, b = region("silver 911"), region("oak tree")
    once = agent.multi_image_search([a], 4)
    twice = agent.multi_image_search([a, a], 4)
    assert [(h.url, h.score) for h in once] == [(h.url, h.score) for h in twice]
    ab = agent.multi_image_search([a, b], 4)
    ba = agent.multi_image_search([b, a], 4)
    assert [(h.url, h.score) for h in ab] == [(h.url, h.score) for h in ba]


def test_fusion_requires_regions():
    with pytest.raises(ValueError):
        make_agent().multi_image_search([], 3)


# --- entity selection -----------------------------------------------------------------


def test_select_entity_top_visual_match():
    agent = make_agent()
    hits = agent.kg_index.search(unit_embedding_for("silver 911"), 3)
    entity = agent.select_entity(hits)
    assert entity is not None
    assert entity.entity_name == "Porsche 911"
    assert entity.match_score >= agent.entity_threshold
    assert entity.kg_entry in [h.payload for h in hits]


def test_select_entity_all_mismatches_gives_none():
    agent = make_agent()
    decoy = agent.kg_index.search(unit_embedding_for("roadside sculpture"), 1)
    assert decoy[0].payload.entity_name == "Decoy Sculpture"
    # explicit visual_match=false on the only strong hit, weak scores elsewhere
    assert agent.select_entity(decoy) is None


def test_select_entity_empty_hits():
    assert make_agent().select_entity([]) is None


def test_low_similarity_without_flag_does_not_verify():
    agent = make_agent()
    hits = agent.kg_index.search(unit_embedding_for("completely unrelated pastry"), 2)
    assert all(abs(h.score) < 0.5 for h in hits)
    assert agent.select_entity(hits) is None


# --- whole toolchain -----------------------------------------------------------------


def test_ground_happy_path():
    model = turn_model([
        fe("object_list", "k", json.dumps({"object_list": ["car", "tree"]})),
        fe("object_select", "k", json.dumps({"object": "car"})),
    ], query="What car is this?")
    hits, entity = make_agent().ground(model, 5, 5)
    assert entity is not None and entity.entity_name == "Porsche 911"
    assert hits


def test_ground_extraction_failure_uses_whole_image():
    model = turn_model([fe("object_list", "k", "garbage")])
    hits, entity = make_agent().ground(model, 5, 5)
    # whole-image embedding is unrelated to the KG: hits exist, none verified
    assert entity is None


def test_ground_without_image_fixture_finds_nothing():
    agent = make_agent()
    listed = [fe("object_list", "k", json.dumps({"object_list": ["car"]}))]
    assert agent.ground(turn_model(listed, image_ref="img-nope"), 5, 5) == ([], None)
    assert agent.ground(turn_model([fe("object_list", "k", "garbage")],
                                   image_ref="img-nope"), 5, 5) == ([], None)


@pytest.mark.parametrize("raw, score", [
    ("true", 1.0), ("Yes", 1.0), ("false", 0.0), ("no", 0.0),
    ("0.7", 0.7), ("1.5", 1.0), ("-2", 0.0), ("maybe", 0.0), (None, None),
    ("nan", 0.0), ("NaN", 0.0), ("-nan", 0.0),
])
def test_visual_match_reads_the_scripted_flag(raw, score):
    attributes = {} if raw is None else {"visual_match": raw}
    entry = KgEntry("e", "kg://e", unit_embedding_for("e"), attributes)
    assert visual_match(entry) == score


# --- deadlines -------------------------------------------------------------------------


def ten_second_budget() -> TimeBudget:
    return TimeBudget(SimulatedClock(), deadline_at=10.0)


def spy_kg_searches(agent, monkeypatch) -> list:
    calls = []
    original = agent.kg_index.search

    def spy(embedding, k):
        calls.append(k)
        return original(embedding, k)

    monkeypatch.setattr(agent.kg_index, "search", spy)
    return calls


def test_slow_object_list_raises_timeout_and_searches_nothing(monkeypatch):
    agent = make_agent()
    model = turn_model([
        fe("object_list", "k", json.dumps({"object_list": ["car"]}), 20_000.0),
    ], query="What car is this?", budget=ten_second_budget())
    searches = spy_kg_searches(agent, monkeypatch)
    with pytest.raises(BackendTimeout):
        agent.ground(model, 5, 5)
    assert searches == []


def test_slow_object_select_raises_timeout_and_searches_nothing(monkeypatch):
    agent = make_agent()
    model = turn_model([
        fe("object_list", "k", json.dumps({"object_list": ["car", "tree"]})),
        fe("object_select", "k", json.dumps({"object": "car"}), 20_000.0),
    ], query="What car is this?", budget=ten_second_budget())
    searches = spy_kg_searches(agent, monkeypatch)
    with pytest.raises(BackendTimeout):
        agent.ground(model, 5, 5)
    assert searches == []


def test_failed_object_select_still_falls_back_to_first_candidate():
    model = turn_model([
        fe("object_list", "k", json.dumps({"object_list": ["car", "tree"]})),
    ], query="What car is this?", budget=ten_second_budget())
    hits, entity = make_agent().ground(model, 5, 5)
    assert entity is not None and entity.entity_name == "Porsche 911"
