import math

import numpy as np
import pytest

from dynarag.config import RerankConfig
from dynarag.encoders import HashedTextEncoder, MultiVectorQueryEncoder
from dynarag.errors import ScorerUnavailable
from dynarag.reranker import (
    AssembledContext,
    Chunk,
    ChunkCodeStore,
    ChunkScore,
    TokenOverlapScorer,
    assemble_context,
    chunk_evidence,
    coarse_score,
    fine_score,
    rerank,
)
from dynarag.search import KgEntry, SearchHit, Source, WebDoc, unit_embedding_for

TEXT_ENC = HashedTextEncoder()
QUERY_ENC = MultiVectorQueryEncoder(TEXT_ENC)


def web_hit(url, snippet, title="") -> SearchHit:
    return SearchHit(Source.WEB, 0.5, WebDoc(url=url, title=title, snippet=snippet))


def kg_hit(entity, url, attributes) -> SearchHit:
    entry = KgEntry.from_dict({
        "entity_name": entity, "url": url,
        "image_embedding": list(unit_embedding_for(entity)),
        "attributes": attributes,
    })
    return SearchHit(Source.IMAGE_KG, 0.5, entry)


def chunk(i, text, source=Source.WEB, position=0) -> Chunk:
    return Chunk(text=text, source=source, doc_url=f"https://c/{i}",
                 position=position, chunk_id=f"c{i}")


# --- chunking ---------------------------------------------------------------------


def test_kg_attribute_block_renders_template_sentences():
    hit = kg_hit("WidgetX", "kg://w", {"brand": "Acme", "price": "$5"})
    chunks = chunk_evidence([hit], RerankConfig())
    assert len(chunks) == 1
    assert chunks[0].text == "The brand of WidgetX is Acme. The price of WidgetX is $5."
    assert chunks[0].source is Source.IMAGE_KG


def test_visual_match_attribute_never_leaks_into_evidence():
    hit = kg_hit("W", "kg://w", {"brand": "Acme", "visual_match": "true"})
    chunks = chunk_evidence([hit], RerankConfig())
    assert "visual_match" not in chunks[0].text


def test_long_paragraph_splits_with_overlap():
    # 1200 chars, max 512, overlap 64: spans [0:512], [448:960], [896:1200]
    text = "".join(chr(ord("a") + (i % 26)) for i in range(1200))
    hit = web_hit("https://d/long", text)
    chunks = chunk_evidence([hit], RerankConfig())
    assert len(chunks) == 3
    assert chunks[0].text == text[0:512]
    assert chunks[1].text == text[448:960]
    assert chunks[2].text == text[896:1200]
    assert [c.position for c in chunks] == [0, 1, 2]


def test_empty_hits_give_empty_chunks():
    assert chunk_evidence([], RerankConfig()) == []


def test_chunk_ids_unique_and_lengths_bounded():
    cfg = RerankConfig(max_chunk_chars=100, chunk_overlap=10)
    hits = [
        web_hit("https://d/1", "x" * 350, title="One"),
        web_hit("https://d/2", "y" * 40, title="Two"),
        kg_hit("E", "kg://e", {"brand": "B", "price": "$1"}),
    ]
    chunks = chunk_evidence(hits, cfg)
    ids = [c.chunk_id for c in chunks]
    assert len(ids) == len(set(ids))
    assert all(len(c.text) <= cfg.max_chunk_chars for c in chunks)


def test_html_is_stripped_when_present():
    doc = WebDoc(url="https://d/h", title="", snippet="ignored",
                 html="<html><body><p>visible words</p></body></html>")
    chunks = chunk_evidence([SearchHit(Source.WEB, 0.1, doc)], RerankConfig())
    assert any("visible words" in c.text for c in chunks)
    assert all("<p>" not in c.text for c in chunks)


# --- coarse stage -----------------------------------------------------------------


def test_chunk_matching_one_query_vector_scores_one():
    # n=3 query slots: whole, tokens[0::2], tokens[1::2]. Chunk equal to the
    # second token group matches that slot exactly.
    cfg = RerankConfig(tau_coarse=0.9, n_query_tokens=3)
    c = chunk(0, "beta delta")
    out = coarse_score("alpha beta gamma delta", None, [c], cfg, QUERY_ENC, ChunkCodeStore(TEXT_ENC))
    assert len(out) == 1
    assert out[0][1] > 1.0 - 1e-9


def test_all_chunks_below_tau_gives_empty_survivors():
    cfg = RerankConfig(tau_coarse=0.99)
    chunks = [chunk(i, f"unrelated tokens {i}") for i in range(5)]
    out = coarse_score("completely different question", None, chunks, cfg,
                       QUERY_ENC, ChunkCodeStore(TEXT_ENC))
    assert out == []


def test_coarse_top_k1_matches_bruteforce_double_loop():
    rng = np.random.default_rng(5)
    vocab = [f"w{j}" for j in range(40)]
    chunks = [chunk(i, " ".join(rng.choice(vocab, size=6))) for i in range(30)]
    cfg = RerankConfig(k1=20, tau_coarse=0.0, n_query_tokens=8)
    question = "w1 w2 w3 w4 w5"

    out = coarse_score(question, None, chunks, cfg, QUERY_ENC, ChunkCodeStore(TEXT_ENC))

    qvecs = QUERY_ENC.encode(question, None, cfg.n_query_tokens)
    oracle_scores = []
    for c in chunks:
        emb = TEXT_ENC.encode(c.text)
        best = max(
            math.fsum(float(a) * float(b) for a, b in zip(qv, emb))
            for qv in qvecs
        )
        oracle_scores.append(best)
    survivors = [(c, s) for c, s in zip(chunks, oracle_scores) if s >= cfg.tau_coarse]
    survivors.sort(key=lambda p: -p[1])
    expected = survivors[:20]

    assert [c.chunk_id for c, _ in out] == [c.chunk_id for c, _ in expected]
    for (_, got), (_, want) in zip(out, expected):
        assert abs(got - want) < 1e-9



# --- fine stage -----------------------------------------------------------------------


class PresetScorer:
    def __init__(self, table):
        self.table = table

    def score(self, question, chunk_text, instruction=""):
        return self.table[chunk_text]


def test_cumulative_is_product():
    score = ChunkScore.of(coarse=0.5, fine=0.8)
    assert score.cumulative == pytest.approx(0.4)


def test_negative_coarse_clamped_before_product():
    score = ChunkScore.of(coarse=-0.3, fine=0.8)
    assert score.cumulative == 0.0
    over = ChunkScore.of(coarse=1.7, fine=0.5)
    assert over.cumulative == pytest.approx(0.5)


def test_fine_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        ChunkScore.of(0.5, 1.2)


def test_retention_bar_is_strict():
    # tau_coarse 0.3, tau_fine 0.5: bar = 0.15; cumulative exactly 0.15 drops
    cfg = RerankConfig(tau_coarse=0.3, tau_fine=0.5, k2=5)
    at_bar = chunk(0, "at bar")
    above = chunk(1, "above bar")
    scorer = PresetScorer({"at bar": 0.3, "above bar": 0.5})
    out = fine_score("q", [(at_bar, 0.5), (above, 0.5)], "", cfg, scorer)
    assert [c.chunk_id for c, _ in out] == ["c1"]
    assert out[0][1].cumulative == pytest.approx(0.25)


def test_fine_top_k2_matches_bruteforce_sort():
    rng = np.random.default_rng(9)
    survivors = [(chunk(i, f"text {i}"), float(rng.uniform(0.2, 1.0))) for i in range(10)]
    fines = {f"text {i}": float(rng.uniform(0.0, 1.0)) for i in range(10)}
    cfg = RerankConfig(k1=20, k2=3, tau_coarse=0.0, tau_fine=0.0)
    out = fine_score("q", survivors, "", cfg, PresetScorer(fines))

    cumulative = [
        (c, min(1.0, max(0.0, s)) * fines[c.text]) for c, s in survivors
    ]
    cumulative.sort(key=lambda p: -p[1])
    expected = [c.chunk_id for c, cum in cumulative[:3] if cum > 0.0]
    assert [c.chunk_id for c, _ in out] == expected


def test_scorer_unavailable_degenerates_to_coarse():
    class Broken:
        def score(self, *args, **kwargs):
            raise ScorerUnavailable("down")

    cfg = RerankConfig(tau_coarse=0.0, tau_fine=0.0)
    out = fine_score("q", [(chunk(0, "t"), 0.7)], "", cfg, Broken())
    assert out[0][1].fine == pytest.approx(0.7)
    assert out[0][1].cumulative == pytest.approx(0.49)


def test_token_overlap_scorer_bounds_and_value():
    scorer = TokenOverlapScorer()
    value = scorer.score("red sports car", "a red car parked")
    assert value == pytest.approx(2 / 3)
    assert scorer.score("", "anything") == 0.0
    assert 0.0 <= scorer.score("a b c", "c d e") <= 1.0


# --- assembly ---------------------------------------------------------------------------


def scored(c: Chunk, cum: float) -> tuple[Chunk, ChunkScore]:
    return (c, ChunkScore(coarse=cum, fine=1.0, cumulative=cum))


def test_empty_selection_assembles_empty_context():
    ctx = assemble_context([])
    assert ctx.text == ""
    assert ctx.chunks == ()


def test_higher_cumulative_comes_first():
    low = chunk(0, "low text")
    high = chunk(1, "high text")
    ctx = assemble_context([scored(low, 0.4), scored(high, 0.9)])
    assert [c.chunk_id for c, _ in ctx.chunks] == ["c1", "c0"]
    assert ctx.text.index("high text") < ctx.text.index("low text")


def test_tie_breaks_web_before_kg_then_position():
    web2 = Chunk("w2", Source.WEB, "https://a", 2, "w2")
    web0 = Chunk("w0", Source.WEB, "https://a", 0, "w0")
    kg0 = Chunk("k0", Source.IMAGE_KG, "kg://a", 0, "k0")
    ctx = assemble_context([scored(kg0, 0.5), scored(web2, 0.5), scored(web0, 0.5)])
    assert [c.chunk_id for c, _ in ctx.chunks] == ["w0", "w2", "k0"]


def test_rendering_carries_provenance_header():
    c = Chunk("some text", Source.WEB, "https://a/b", 0, "x")
    ctx = assemble_context([scored(c, 0.5)])
    assert ctx.text == "[web:https://a/b]\nsome text"


def test_assembled_text_joined_with_blank_lines():
    a = chunk(0, "first")
    b = chunk(1, "second")
    ctx = assemble_context([scored(a, 0.9), scored(b, 0.8)])
    assert "\n\n" in ctx.text


# --- cascade properties -------------------------------------------------------------------


def random_hits(rng, n_docs=8) -> list[SearchHit]:
    vocab = [f"word{j}" for j in range(30)]
    hits = []
    for i in range(n_docs):
        snippet = " ".join(rng.choice(vocab, size=int(rng.integers(5, 30))))
        hits.append(web_hit(f"https://r/{i}", snippet))
    return hits


def cascade(question, hits, cfg) -> AssembledContext:
    return rerank(question, None, hits, cfg, QUERY_ENC, ChunkCodeStore(TEXT_ENC))


def test_threshold_monotonicity():
    rng = np.random.default_rng(21)
    hits = random_hits(rng)
    question = "word1 word2 word3 word4"
    base_cfg = RerankConfig(k1=20, k2=10, tau_coarse=0.05, tau_fine=0.05)
    base = {c.chunk_id for c, _ in cascade(question, hits, base_cfg).chunks}
    for tau_c, tau_f in [(0.2, 0.05), (0.05, 0.3), (0.3, 0.4)]:
        cfg = RerankConfig(k1=20, k2=10, tau_coarse=tau_c, tau_fine=tau_f)
        tightened = {c.chunk_id for c, _ in cascade(question, hits, cfg).chunks}
        assert tightened <= base


def test_k2_prefix_monotonicity():
    rng = np.random.default_rng(22)
    hits = random_hits(rng)
    question = "word5 word6 word7"
    for k2 in (1, 2, 3, 4):
        small = RerankConfig(k1=20, k2=k2, tau_coarse=0.0, tau_fine=0.0)
        big = RerankConfig(k1=20, k2=k2 + 1, tau_coarse=0.0, tau_fine=0.0)
        ids_small = [c.chunk_id for c, _ in cascade(question, hits, small).chunks]
        ids_big = [c.chunk_id for c, _ in cascade(question, hits, big).chunks]
        assert ids_big[: len(ids_small)] == ids_small


def test_scores_stay_in_bounds_through_cascade():
    rng = np.random.default_rng(23)
    hits = random_hits(rng)
    ctx = cascade("word1 word9 word12", hits,
                  RerankConfig(k1=20, k2=10, tau_coarse=0.0, tau_fine=0.0))
    for _, score in ctx.chunks:
        assert 0.0 <= score.fine <= 1.0
        assert 0.0 <= score.cumulative <= 1.0
