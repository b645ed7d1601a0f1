import json

import pytest

from cases import unlimited_budget
from dynarag.config import RoutingConfig
from dynarag.errors import BackendTimeout
from dynarag.gateway import FixtureEntry, ModelGateway, ScriptedBackend, TurnModel
from dynarag.image_agent import VerifiedEntity
from dynarag.preanswer import parse_trace
from dynarag.search import KgEntry, WebDoc, WebSearchIndex, unit_embedding_for
from dynarag.text_agent import TextSearchAgent, enhance
from dynarag.timing import SimulatedClock, TimeBudget

ROUTING = RoutingConfig()

DOCS = [
    WebDoc("https://w/bmw-m4", "BMW M4 - Production",
           "The BMW M4 is a high performance coupe whose production began in 2014."),
    WebDoc("https://w/bmw-ipo", "BMW Group - Listing",
           "BMW went public on the Frankfurt stock exchange decades ago."),
    WebDoc("https://w/kettle", "Alessi 9093 - Retail",
           "The Alessi 9093 kettle retails for a price of $179."),
    WebDoc("https://w/misc", "Gardening tips",
           "Water your succulent plants sparingly in winter."),
]


def trace(text: str):
    return parse_trace(text, ROUTING)


BMW_TRACE = trace("\n".join([
    '1. The exact name of the object that the query "In which year did the '
    'company that makes this car go public?" is about is BMW M4.',
    "2. The company that makes the BMW M4 is BMW.",
    json.dumps({"reasoning": "r", "answer": "I would need the listing year."}),
]))


def make_agent(docs=DOCS, k_total=10) -> TextSearchAgent:
    return TextSearchAgent(
        web_index=WebSearchIndex().build(docs),
        k_per_query=10,
        k_total=k_total,
    )


def turn_model(entries, query, key, budget=None) -> TurnModel:
    """Turn ``key`` asking ``query`` over the scripted ``entries``, on
    ``budget`` or, by default, one without a deadline."""
    return TurnModel(ModelGateway(ScriptedBackend(entries)), key, "img", query, "",
                     budget or unlimited_budget())


def decompose_entry(key, subs):
    return FixtureEntry(
        "decompose", key,
        json.dumps({"sub_queries": [{"text": t, "step": s} for t, s in subs]}),
        (0.9,), 0.0,
    )


# --- decomposition -------------------------------------------------------------


def test_scripted_multi_hop_decomposition_golden():
    model = turn_model([decompose_entry("bmw", [
        ("Which company makes the BMW M4?", 0),
        ("In which year did BMW go public?", 1),
    ])], "In which year did the company that makes this car go public?", "bmw")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, visual_context="BMW M4")
    assert subs == [
        "Which company makes the BMW M4?",
        "In which year did BMW go public?",
    ]


def test_single_hop_yields_one_subquery():
    model = turn_model([decompose_entry("one", [("When was X built?", 0)])],
                       "When was X built?", "one")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, None)
    assert subs == ["When was X built?"]


def test_pronoun_resolved_from_visual_context():
    model = turn_model([decompose_entry("kettle", [("How much does it cost?", 0)])],
                       "How much does it cost?", "kettle")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, visual_context="red kettle")
    assert "red kettle" in subs[0]
    assert "it" not in subs[0].split()


def test_parse_failure_falls_back_to_original_query():
    model = turn_model([FixtureEntry("decompose", "bad", "garbage", (0.9,), 0.0)],
                       "Original question?", "bad")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, None)
    assert subs == ["Original question?"]


def test_missing_fixture_falls_back_to_original_query():
    model = turn_model([], "Original question?", "nope")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, None)
    assert subs == ["Original question?"]


def test_slow_decomposition_raises_timeout_and_searches_nothing(monkeypatch):
    agent = make_agent()
    model = turn_model([FixtureEntry(
        "decompose", "k", json.dumps({"sub_queries": [{"text": "a?"}]}),
        (0.9,), 20_000.0,
    )], "Original question?", "k", TimeBudget(SimulatedClock(), deadline_at=10.0))
    searches = []
    monkeypatch.setattr(agent.web_index, "search",
                        lambda query, k: searches.append(query) or [])
    with pytest.raises(BackendTimeout):
        agent.rephrase_and_split(model, BMW_TRACE, None)
    assert searches == []


def test_decomposition_steps_map_into_trace():
    model = turn_model([decompose_entry("k", [("a?", 0), ("b?", 7)])], "a? b?", "k")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, None)
    # step 7 is out of range for a 2-step trace; the sub-query still counts
    assert subs == ["a?", "b?"]


def test_blank_subquery_text_falls_back_to_original_query():
    model = turn_model([decompose_entry("k", [("a?", 0), ("   ", 1)])],
                       "Original question?", "k")
    subs = make_agent().rephrase_and_split(model, BMW_TRACE, None)
    assert subs == ["Original question?"]


def test_enhance_swaps_deictic_noun_pairs():
    text, changed = enhance("Who founded this cafe?", "Blue Bottle Coffee")
    assert changed and text == "Who founded Blue Bottle Coffee?"
    text, changed = enhance("When did it begin production?", "Porsche 911")
    assert changed and text == "When did Porsche 911 begin production?"
    text, changed = enhance("No referents here.", "entity")
    assert not changed


# --- object fusion ----------------------------------------------------------------


def entity(name: str) -> VerifiedEntity:
    entry = KgEntry.from_dict({
        "entity_name": name, "url": f"kg://{name}",
        "image_embedding": list(unit_embedding_for(name)),
        "attributes": {"title": name},
    })
    return VerifiedEntity(name, entry, 1.0)


def test_fuse_object_price_example():
    agent = make_agent()
    fused = agent.fuse_object("What's the price of this?", entity("red sports car BMW M4"))
    assert fused == "Price of red sports car BMW M4"


def test_fuse_object_query_already_contains_entity():
    agent = make_agent()
    fused = agent.fuse_object("How fast is the BMW M4?", entity("BMW M4"))
    assert fused == "How fast is the BMW M4?"


def test_fuse_object_empty_query_gives_entity_alone():
    agent = make_agent()
    assert agent.fuse_object("", entity("BMW M4")) == "BMW M4"


def test_fuse_object_always_contains_entity_name():
    agent = make_agent()
    queries = ["What's the price of this?", "", "Who makes it?",
               "Where can I buy one?", "How heavy is that thing?"]
    for q in queries:
        fused = agent.fuse_object(q, entity("Alessi 9093 Kettle"))
        assert "alessi 9093 kettle" in fused.casefold()


# --- fused web retrieval --------------------------------------------------------------


def test_single_subquery_equals_search_web():
    agent = make_agent()
    fused = agent.text_search(["BMW M4 production began"])
    plain = agent.web_index.search("BMW M4 production began", 10)
    assert [(h.url, h.score) for h in fused] == [(h.url, h.score) for h in plain]


def test_shared_doc_keeps_max_score():
    agent = make_agent()
    a = "BMW M4 production coupe"
    b = "production began"
    fused = agent.text_search([a, b])
    per_query = {}
    for q in (a, b):
        for hit in agent.web_index.search(q, 10):
            per_query[hit.url] = max(per_query.get(hit.url, -2.0), hit.score)
    got = {h.url: h.score for h in fused}
    assert got == pytest.approx(per_query)


def test_three_subqueries_top5_matches_bruteforce_merge():
    agent = make_agent(k_total=5)
    queries = ["BMW M4 production", "Alessi kettle price", "succulent plants winter"]
    fused = agent.text_search(queries)

    pool: dict[str, float] = {}
    for q in queries:
        for hit in agent.web_index.search(q, 10):
            pool[hit.url] = max(pool.get(hit.url, -2.0), hit.score)
    expected = sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert [(h.url, h.score) for h in fused] == expected


def test_text_search_requires_subqueries():
    with pytest.raises(ValueError):
        make_agent().text_search([])


def test_fusion_order_independent():
    agent = make_agent()
    a, b = "BMW M4 production", "kettle price retail"
    ab = [(h.url, h.score) for h in agent.text_search([a, b])]
    ba = [(h.url, h.score) for h in agent.text_search([b, a])]
    assert ab == ba
