"""The reranker's chunk store: a per-runtime cache of each evidence doc's chunk
texts, token sets and sparse unit rows, whose chunks and traces must equal
those of encoding every chunk on every turn."""

import json

import numpy as np
import pytest

import dynarag.reranker as reranker
from dynarag.config import PipelineConfig, RerankConfig
from dynarag.encoders import HashedTextEncoder, tokenize
from dynarag.evalharness import group_sessions, load_dataset
from dynarag.fixtures import EVAL_ROWS, build_world_runtime
from dynarag.orchestrator import QueryTurn, trace_to_dict
from dynarag.pipeline import build_runtime
from dynarag.reranker import Chunk, ChunkCodeStore, chunk_evidence
from dynarag.search import KgEntry, SearchHit, Source, WebDoc, unit_embedding_for
from dynarag.timing import SimulatedClock

from test_encoders import oracle_encode_tokens
from worlds import load_worldgen

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


# --- the reference: every hit chunked and every chunk embedded on every turn ------


def reference_chunks(hits, config) -> list[Chunk]:
    """The reranker's chunking as it ran before the store kept chunk texts."""
    chunks = []
    for hit in hits:
        if hit.source is Source.WEB:
            text = reranker._doc_text(hit.payload)
        else:
            text = reranker._kg_paragraph(hit.payload)
        prefix = f"{hit.source.value}:{hit.url}#"
        position = 0
        for block in reranker._split_blocks(text):
            for span in reranker._fixed_spans(block, config.max_chunk_chars,
                                              config.chunk_overlap):
                span = span.strip()
                if not span:
                    continue
                chunks.append(Chunk(text=span, source=hit.source, doc_url=hit.url,
                                    position=position, chunk_id=f"{prefix}{position}"))
                position += 1
    return chunks


def encoded(chunks) -> np.ndarray:
    """Each chunk's text through the per-token loop, one chunk at a time."""
    return np.vstack([oracle_encode_tokens(tokenize(c.text)) for c in chunks])


def reference_coarse_score(question, image_embedding, chunks, config, query_encoder):
    if not chunks:
        return []
    qvecs = query_encoder.encode(question, image_embedding, config.n_query_tokens)
    scores = (qvecs @ encoded(chunks).T).max(axis=0)
    survivors = [(c, float(s)) for c, s in zip(chunks, scores) if s >= config.tau_coarse]
    survivors.sort(key=lambda pair: -pair[1])
    return survivors[: config.k1]


def use_reference(monkeypatch):
    """Route ``rerank`` through the reference chunking and coarse stage."""
    monkeypatch.setattr(reranker, "chunk_evidence",
                        lambda hits, config, store: reference_chunks(hits, config))
    monkeypatch.setattr(reranker, "coarse_score", reference_coarse_score)


def stored_rows(evidence) -> np.ndarray:
    """The evidence's unit rows, made dense from the entries it keeps."""
    slots, values, bounds = evidence.entries()
    rows = np.zeros((len(evidence), ENCODER.dim))
    rows[np.repeat(np.arange(len(evidence)), np.diff(bounds)), slots] = values
    return rows


def assert_matches_reference(store, hits, config):
    evidence = chunk_evidence(hits, config, store)
    want = reference_chunks(hits, config)
    assert list(evidence) == want
    assert len(evidence) == len(want)
    assert [c.tokens for c in evidence] == \
        [" ".join(dict.fromkeys(tokenize(c.text))) for c in want]
    if want:
        assert stored_rows(evidence).tobytes() == encoded(want).tobytes()


LONG_HTML = "<h1>History</h1>" + "".join(
    f"<p>{' '.join(f'word{i}x{j}' for j in range(60))}</p>" for i in range(6))


# --- the pipeline ---------------------------------------------------------------


def turn_records(runtime, sessions) -> list[str]:
    """Each turn's trace, plus the bits of each selected chunk's scores."""
    out = []
    for turns in sessions:
        for _answer, trace in runtime.orchestrator(clock=SimulatedClock()).run_session(turns):
            bits = [] if trace.evidence is None else [
                (score.coarse.hex(), score.fine.hex(), score.cumulative.hex())
                for _chunk, score in trace.evidence.chunks
            ]
            out.append(json.dumps([trace_to_dict(trace), bits], sort_keys=True))
    return out


def demo_sessions() -> list[list[QueryTurn]]:
    sessions: dict[str, list[QueryTurn]] = {}
    for sid, ti, q, img, _truth, _tax in EVAL_ROWS:
        sessions.setdefault(sid, []).append(QueryTurn(sid, ti, q, img, 10.0))
    return [sorted(sessions[sid], key=lambda t: t.turn_index) for sid in sorted(sessions)]


@pytest.fixture(scope="module")
def long_docs_world(tmp_path_factory):
    """A small ``long_docs`` benchmark world: 100 html docs of 10-15 KB, 30 turns."""
    config_path = load_worldgen().generate("long_docs", seed=3,
                                    out=tmp_path_factory.mktemp("long_docs"), scale=0.05)
    config = PipelineConfig.from_file(config_path)
    records = load_dataset(config_path.parent / "dataset.jsonl",
                           config.limits.turn_deadline_s)
    sessions = [[r.turn for r in group] for group in group_sessions(records).values()]
    return config, sessions


def assert_cold_and_warm_stores_match_the_reference(build, sessions, monkeypatch):
    cold = turn_records(build(), sessions)
    warm_runtime = build()
    turn_records(warm_runtime, sessions)
    assert warm_runtime.chunk_store._docs  # filled by the first pass
    warm = turn_records(warm_runtime, sessions)

    use_reference(monkeypatch)
    reference = turn_records(build(), sessions)

    assert any('"evidence": {' in record for record in reference)
    assert cold == reference
    assert warm == reference
    return reference


def test_warm_and_cold_stores_give_the_traces_of_per_chunk_encoding(monkeypatch):
    reference = assert_cold_and_warm_stores_match_the_reference(
        build_world_runtime, demo_sessions(), monkeypatch)
    assert len(reference) == len(EVAL_ROWS) == 23


def test_long_html_docs_give_the_traces_of_per_chunk_encoding(long_docs_world,
                                                              monkeypatch):
    config, sessions = long_docs_world
    runtime = build_runtime(config)
    docs = runtime.web_index._docs
    assert len(docs) == 100
    assert all(len(doc.html) > 10_000 for doc in docs)
    reference = assert_cold_and_warm_stores_match_the_reference(
        lambda: build_runtime(config), sessions, monkeypatch)
    assert len(reference) == 30


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
    assert_matches_reference(store, [web, kg], config)
    assert_matches_reference(store, [kg], config)
    assert_matches_reference(store, [web], config)
    assert len(store._docs) == 2


@pytest.mark.parametrize("first, second", [((512, 64), (120, 20)), ((120, 20), (512, 64)),
                                           ((200, 0), (200, 50))])
def test_chunking_parameters_always_come_from_the_config_given(first, second):
    store = ChunkCodeStore(ENCODER)
    hits = [web_hit("https://long", LONG_HTML, "Title")]
    for max_chars, overlap in (first, second, first):
        config = RerankConfig(max_chunk_chars=max_chars, chunk_overlap=overlap)
        assert_matches_reference(store, hits, config)
    assert len(store._docs) == 2


def test_a_doc_hit_twice_in_a_row_embeds_both_copies():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig(max_chunk_chars=120, chunk_overlap=20)
    hit = web_hit("https://long", LONG_HTML)
    kg = kg_hit("K", "kg://k", {"a": "b"})
    assert_matches_reference(store, [hit, hit], config)
    assert_matches_reference(store, [hit], config)
    assert_matches_reference(store, [hit, kg, hit, hit], config)
    once = len(chunk_evidence([hit], config, store))
    assert len(chunk_evidence([hit, kg, hit, hit], config, store)) == 3 * once + 1


def test_a_url_that_names_another_payload_is_rejected():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig(max_chunk_chars=120, chunk_overlap=20)
    chunk_evidence([web_hit("https://u", LONG_HTML)], config, store)
    # Equal content is not enough: the store answers for one payload per url.
    for changed in (web_hit("https://u", "<p>short</p>"), web_hit("https://u", LONG_HTML)):
        with pytest.raises(ValueError, match="https://u"):
            chunk_evidence([changed], config, store)


def test_empty_hits_give_no_chunks():
    evidence = chunk_evidence([], RerankConfig(), ChunkCodeStore(ENCODER))
    assert len(evidence) == 0 and list(evidence) == []


def test_a_doc_without_chunks_takes_no_row():
    store = ChunkCodeStore(ENCODER)
    empty = kg_hit("E", "kg://e", {"visual_match": "true"})
    assert_matches_reference(store, [empty, web_hit("https://w", "<p>text</p>"), empty],
                             RerankConfig())


# --- contents -------------------------------------------------------------------


def test_an_entry_holds_its_payload_texts_token_sets_and_sparse_unit_rows_only():
    store = ChunkCodeStore(ENCODER)
    config = RerankConfig()
    hits = [web_hit("https://long", LONG_HTML, "Title"),
            kg_hit("K", "kg://k", {"brand": "Acme", "price": "$5"})]
    chunks = reference_chunks(hits, config)
    chunk_evidence(hits, config, store)
    no_tokens = WebDoc("https://none", "", "")
    entries = [*zip(hits, store._docs.values()),
               (SearchHit(Source.WEB, 0.5, no_tokens), store.build(no_tokens, ["?!", "a b"]))]
    texts = []
    for hit, entry in entries:
        assert entry.payload is hit.payload
        assert set(vars(type(entry))["__slots__"]) == {"payload", "texts", "tokens",
                                                       "slots", "values", "sizes"}
        assert type(entry.texts) is tuple and type(entry.tokens) is tuple
        assert all(type(text) is str for text in entry.texts)
        assert entry.slots.dtype == np.uint8  # 1 byte a slot at the default dim
        assert entry.values.dtype == np.float64
        assert len(entry.sizes) == len(entry.tokens) == len(entry.texts)
        assert entry.slots.size == entry.values.size == entry.sizes.sum()
        ends = np.cumsum(entry.sizes)
        for text, tokens, end, size in zip(entry.texts, entry.tokens, ends, entry.sizes):
            want = oracle_encode_tokens(tokenize(text))
            slots = entry.slots[end - size:end]
            # Non-zero slots ascending; a row without any keeps slot 0.
            assert slots.tolist() == (np.flatnonzero(want).tolist() or [0])
            assert entry.values[end - size:end].tobytes() == want[slots].tobytes()
            assert type(tokens) is str
            assert tokens.split() == list(dict.fromkeys(tokenize(text)))  # distinct
        texts += entry.texts
    assert texts == [c.text for c in chunks] + ["?!", "a b"]
