"""The reranker's chunk-code store: a per-runtime cache of each evidence doc's
token codes that must never change a score."""

import json

import numpy as np
import pytest

from dynarag.config import RerankConfig
from dynarag.encoders import HashedTextEncoder, tokenize
from dynarag.fixtures import EVAL_ROWS, build_world_runtime
from dynarag.orchestrator import QueryTurn, trace_to_dict
from dynarag.reranker import ChunkCodeStore, chunk_evidence
from dynarag.search import KgEntry, SearchHit, Source, WebDoc, unit_embedding_for
from dynarag.timing import SimulatedClock

from test_encoders import oracle_encode_tokens

ENCODER = HashedTextEncoder()


def web_hit(url, html, title="") -> SearchHit:
    return SearchHit(Source.WEB, 0.5, WebDoc(url=url, title=title, snippet="s", html=html))


def kg_hit(entity, url, attributes) -> SearchHit:
    entry = KgEntry.from_dict({
        "entity_name": entity, "url": url,
        "image_embedding": list(unit_embedding_for(entity)),
        "attributes": attributes,
    })
    return SearchHit(Source.IMAGE_KG, 0.5, entry)


def encoded(chunks) -> np.ndarray:
    """Each chunk's text through the per-token loop, one chunk at a time."""
    return np.vstack([oracle_encode_tokens(tokenize(c.text)) for c in chunks])


def assert_rows(store, hits, config):
    chunks = chunk_evidence(hits, config)
    got = store.embed(chunks, config)
    assert got.tobytes() == encoded(chunks).tobytes()


LONG_HTML = "<h1>History</h1>" + "".join(
    f"<p>{' '.join(f'word{i}x{j}' for j in range(60))}</p>" for i in range(6))


# --- the pipeline ---------------------------------------------------------------


def demo_traces(runtime) -> list[str]:
    sessions: dict[str, list[QueryTurn]] = {}
    for sid, ti, q, img, _truth, _tax in EVAL_ROWS:
        sessions.setdefault(sid, []).append(QueryTurn(sid, ti, q, img, 10.0))
    out = []
    for sid in sorted(sessions):
        turns = sorted(sessions[sid], key=lambda t: t.turn_index)
        for _answer, trace in runtime.orchestrator(clock=SimulatedClock()).run_session(turns):
            out.append(json.dumps(trace_to_dict(trace), sort_keys=True))
    return out


def test_warm_and_cold_stores_give_the_traces_of_per_chunk_encoding(monkeypatch):
    cold = demo_traces(build_world_runtime())
    warm_runtime = build_world_runtime()
    demo_traces(warm_runtime)
    assert warm_runtime.chunk_store._docs  # filled by the first pass
    warm = demo_traces(warm_runtime)

    # The reference embeds every chunk's text on every turn, as the reranker
    # did before it had a store.
    monkeypatch.setattr(ChunkCodeStore, "embed",
                        lambda self, chunks, config: encoded(chunks))
    reference = demo_traces(build_world_runtime())

    assert len(reference) == len(EVAL_ROWS) == 23
    assert any('"evidence": {' in trace for trace in reference)
    assert cold == reference
    assert warm == reference


def test_each_runtime_builds_one_store_over_its_text_encoder():
    runtime = build_world_runtime()
    assert runtime.chunk_store.encoder is runtime.text_encoder
    assert runtime.orchestrator().runtime.chunk_store is runtime.chunk_store


# --- keys -----------------------------------------------------------------------


def test_web_doc_and_kg_entry_sharing_a_url_do_not_collide():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig()
    web = web_hit("https://shared", "<p>web page text about kettles</p>")
    kg = kg_hit("Kettle", "https://shared", {"brand": "Alessi", "price": "$90"})
    assert_rows(store, [web, kg], config)
    assert_rows(store, [kg], config)
    assert_rows(store, [web], config)
    assert len(store._docs) == 2


@pytest.mark.parametrize("first, second", [((512, 64), (120, 20)), ((120, 20), (512, 64)),
                                           ((200, 0), (200, 50))])
def test_chunking_parameters_always_come_from_the_config_given(first, second):
    store = ChunkCodeStore(ENCODER)
    hits = [web_hit("https://long", LONG_HTML, "Title")]
    for max_chars, overlap in (first, second, first):
        config = RerankConfig(max_chunk_chars=max_chars, chunk_overlap=overlap)
        assert_rows(store, hits, config)
    assert len(store._docs) == 2


def test_a_doc_hit_twice_in_a_row_embeds_both_copies():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig(max_chunk_chars=120, chunk_overlap=20)
    hit = web_hit("https://long", LONG_HTML)
    assert_rows(store, [hit, hit], config)
    assert_rows(store, [hit], config)
    assert_rows(store, [hit, kg_hit("K", "kg://k", {"a": "b"}), hit, hit], config)


def test_a_url_whose_chunk_count_changed_is_rejected():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig(max_chunk_chars=120, chunk_overlap=20)
    store.embed(chunk_evidence([web_hit("https://u", LONG_HTML)], config), config)
    changed = chunk_evidence([web_hit("https://u", "<p>short</p>")], config)
    with pytest.raises(ValueError, match="https://u"):
        store.embed(changed, config)


# --- contents -------------------------------------------------------------------


def test_store_keeps_only_integer_codes():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig()
    hits = [web_hit("https://long", LONG_HTML, "Title"),
            kg_hit("K", "kg://k", {"brand": "Acme", "price": "$5"})]
    chunks = chunk_evidence(hits, config)
    store.embed(chunks, config)
    tokens = sum(len(tokenize(c.text)) for c in chunks)
    stored = 0
    for codes, lengths in store._docs.values():
        assert codes.dtype == np.uint16  # 2 bytes a token at the default dim
        assert np.issubdtype(lengths.dtype, np.integer)
        assert codes.size == lengths.sum()
        stored += codes.size
    assert stored == tokens
