import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynarag.reranker as reranker
from dynarag.config import RerankConfig
from dynarag.encoders import HashedTextEncoder, MultiVectorQueryEncoder, tokenize
from dynarag.reranker import (
    AssembledContext,
    Chunk,
    ChunkCodeStore,
    ChunkScore,
    Evidence,
    assemble_context,
    chunk_evidence,
    coarse_score,
    fine_score,
    rerank,
)
from dynarag.search import KgEntry, SearchHit, Source, WebDoc, unit_embedding_for

from test_encoders import oracle_slot_counts

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


def chunks_of(hits, cfg=RerankConfig()) -> list[Chunk]:
    return list(chunk_evidence(hits, cfg, ChunkCodeStore(TEXT_ENC)))


def one_chunk_docs(*texts) -> Evidence:
    """Evidence of one single-chunk web doc per text, urls https://c/0, 1, ..."""
    store = ChunkCodeStore(TEXT_ENC)
    docs = []
    for i, text in enumerate(texts):
        url = f"https://c/{i}"
        docs.append((Source.WEB, url, store.build(WebDoc(url, "", text), [text])))
    return Evidence(docs, TEXT_ENC)


# --- chunking ---------------------------------------------------------------------


def test_kg_attribute_block_renders_template_sentences():
    hit = kg_hit("WidgetX", "kg://w", {"brand": "Acme", "price": "$5"})
    chunks = chunks_of([hit])
    assert len(chunks) == 1
    assert chunks[0].text == "The brand of WidgetX is Acme. The price of WidgetX is $5."
    assert chunks[0].source is Source.IMAGE_KG


def test_visual_match_attribute_never_leaks_into_evidence():
    hit = kg_hit("W", "kg://w", {"brand": "Acme", "visual_match": "true"})
    chunks = chunks_of([hit])
    assert "visual_match" not in chunks[0].text


def test_long_paragraph_splits_with_overlap():
    # 1200 chars, max 512, overlap 64: spans [0:512], [448:960], [896:1200]
    text = "".join(chr(ord("a") + (i % 26)) for i in range(1200))
    hit = web_hit("https://d/long", text)
    chunks = chunks_of([hit])
    assert len(chunks) == 3
    assert chunks[0].text == text[0:512]
    assert chunks[1].text == text[448:960]
    assert chunks[2].text == text[896:1200]
    assert [c.position for c in chunks] == [0, 1, 2]


def test_empty_hits_give_empty_chunks():
    assert chunks_of([]) == []


def test_chunk_ids_unique_and_lengths_bounded():
    cfg = RerankConfig(max_chunk_chars=100, chunk_overlap=10)
    hits = [
        web_hit("https://d/1", "x" * 350, title="One"),
        web_hit("https://d/2", "y" * 40, title="Two"),
        kg_hit("E", "kg://e", {"brand": "B", "price": "$1"}),
    ]
    chunks = chunks_of(hits, cfg)
    ids = [c.chunk_id for c in chunks]
    assert len(ids) == len(set(ids))
    assert all(len(c.text) <= cfg.max_chunk_chars for c in chunks)


def test_html_is_stripped_when_present():
    doc = WebDoc(url="https://d/h", title="", snippet="ignored",
                 html="<html><body><p>visible words</p></body></html>")
    chunks = chunks_of([SearchHit(Source.WEB, 0.1, doc)])
    assert any("visible words" in c.text for c in chunks)
    assert all("<p>" not in c.text for c in chunks)


@pytest.mark.parametrize("html", ["<div></div>", "<html>\n <body> </body>\n</html>"])
def test_tag_only_html_falls_back_to_the_snippet(html):
    doc = WebDoc(url="https://d/t", title="Title", snippet="snippet words", html=html)
    chunks = chunks_of([SearchHit(Source.WEB, 0.1, doc)])
    assert [c.text for c in chunks] == ["Title", "snippet words"]


# --- coarse stage -----------------------------------------------------------------


def test_chunk_matching_one_query_vector_scores_one():
    # n=3 query slots: whole, tokens[0::2], tokens[1::2]. Chunk equal to the
    # second token group matches that slot exactly.
    cfg = RerankConfig(tau_coarse=0.9, n_query_tokens=3)
    out = coarse_score("alpha beta gamma delta", None, one_chunk_docs("beta delta"), cfg,
                       QUERY_ENC)
    assert len(out) == 1
    assert out[0][1] > 1.0 - 1e-9


def test_all_chunks_below_tau_gives_empty_survivors():
    cfg = RerankConfig(tau_coarse=0.99)
    evidence = one_chunk_docs(*(f"unrelated tokens {i}" for i in range(5)))
    out = coarse_score("completely different question", None, evidence, cfg, QUERY_ENC)
    assert out == []


def test_coarse_top_k1_matches_bruteforce_double_loop():
    rng = np.random.default_rng(5)
    vocab = [f"w{j}" for j in range(40)]
    evidence = one_chunk_docs(*(" ".join(rng.choice(vocab, size=6)) for _ in range(30)))
    chunks = list(evidence)
    cfg = RerankConfig(k1=20, tau_coarse=0.0, n_query_tokens=8)
    question = "w1 w2 w3 w4 w5"

    out = coarse_score(question, None, evidence, cfg, QUERY_ENC)

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



def slot_order_scores(question, image_embedding, evidence, n_query_tokens=8):
    """Each chunk's coarse score by a python loop: per query vector, the
    products over the chunk's non-zero slots added in slot order; the max."""
    qvecs = QUERY_ENC.encode(question, image_embedding, n_query_tokens)
    scores = []
    for c in evidence:
        row = TEXT_ENC.encode(c.text)
        best = -math.inf
        for qv in qvecs:
            total = 0.0
            for slot in np.flatnonzero(row):
                total += float(qv[slot]) * float(row[slot])
            best = max(best, total)
        scores.append(best)
    return scores


def all_scores(question, image_embedding, evidence) -> list[tuple[str, float]]:
    cfg = RerankConfig(k1=len(evidence), k2=1, tau_coarse=0.0)
    return [(c.chunk_id, s)
            for c, s in coarse_score(question, image_embedding, evidence, cfg, QUERY_ENC)]


def test_chunks_sharing_no_slot_with_the_question_score_float_zero():
    question = "alpha beta"
    taken = set(oracle_slot_counts(tokenize(question)))
    words = [w for w in (f"w{j}" for j in range(200))
             if TEXT_ENC.row_codes([[w]])[0][0] % TEXT_ENC.dim not in taken]
    evidence = one_chunk_docs(" ".join(words[:10]), " ".join(words[10:13]), "?!")
    scores = all_scores(question, None, evidence)
    assert len(scores) == 3
    assert all(type(s) is float and s.hex() == "0x0.0p+0" for _, s in scores)


@pytest.mark.parametrize("image", [None, unit_embedding_for("some object")])
def test_a_chunk_without_tokens_scores_zero(image):
    evidence = one_chunk_docs("?!", "red car parked", "--", "")
    scores = dict(all_scores("red sports car", image, evidence))
    assert [scores[f"web:https://c/{i}#0"] for i in (0, 2, 3)] == [0.0] * 3
    assert scores["web:https://c/1#0"] == slot_order_scores("red sports car", image,
                                                            evidence)[1] > 0.0


@pytest.mark.parametrize("image", [None, np.zeros(TEXT_ENC.dim)])
def test_an_all_zero_query_scores_zero(image):
    evidence = one_chunk_docs("red car parked", "blue bike", "?!")
    scores = all_scores("?!", image, evidence)
    assert len(scores) == 3
    assert all(type(s) is float and s.hex() == "0x0.0p+0" for _, s in scores)


def test_a_blended_query_without_plain_rows_scores_through_the_image():
    # No question tokens: every query vector is the image alone.
    image = unit_embedding_for("red car parked")
    evidence = one_chunk_docs("red car parked", "blue bike", "red bike car", "?!")
    got = dict(all_scores("?!", image, evidence))
    want = slot_order_scores("?!", image, evidence)
    assert got["web:https://c/0#0"] > 1.0 - 1e-12
    for i, score in enumerate(want):
        if score >= 0.0:
            assert got[f"web:https://c/{i}#0"].hex() == score.hex()


def random_one_chunk_docs(seed, n=40) -> Evidence:
    rng = np.random.default_rng(seed)
    vocab = [f"w{j}" for j in range(30)]
    return one_chunk_docs(*(" ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
                            for _ in range(n)))


def test_plain_query_vectors_add_their_products_in_slot_order():
    evidence = random_one_chunk_docs(11)
    question = "w1 w2 w3 w5 w8 w13"
    got = {chunk_id: score.hex() for chunk_id, score in all_scores(question, None, evidence)}
    assert got == {c.chunk_id: score.hex()
                   for c, score in zip(evidence, slot_order_scores(question, None, evidence))
                   if score >= 0.0}


def test_an_image_blended_query_scores_the_exact_cosines():
    rng = np.random.default_rng(12)
    image = rng.standard_normal(TEXT_ENC.dim)
    image /= np.linalg.norm(image)
    evidence = random_one_chunk_docs(13)
    question = "w1 w2 w3 w5 w8 w13"
    qvecs = QUERY_ENC.encode(question, image)
    got = dict(all_scores(question, image, evidence))
    assert len(got) > 20
    for c in evidence:
        row = TEXT_ENC.encode(c.text)
        want = max(math.fsum(float(a) * float(b) for a, b in zip(qv, row)) for qv in qvecs)
        if c.chunk_id in got:
            assert abs(got[c.chunk_id] - want) < 1e-15
        else:
            assert want < 1e-15


# --- a chunk's coarse score depends on the question and the chunk alone ----------


def batch_case():
    """500 random 60-token chunks in docs of 1-5 chunks, and 10 questions, every
    other one with a dense random image embedding."""
    rng = np.random.default_rng(1234)
    vocab = [f"v{j}" for j in range(150)]
    texts = [" ".join(rng.choice(vocab, size=60)) for _ in range(500)]
    store = ChunkCodeStore(TEXT_ENC)
    docs, left = [], list(texts)
    while left:
        size = min(len(left), int(rng.integers(1, 6)))
        url = f"https://b/{len(docs)}"
        docs.append((Source.WEB, url, store.build(WebDoc(url, "", ""), left[:size])))
        left = left[size:]
    questions = []
    for q in range(10):
        image = None
        if q % 2:
            image = rng.standard_normal(TEXT_ENC.dim)
            image /= np.linalg.norm(image)
        questions.append((" ".join(rng.choice(vocab, size=8)), image))
    return texts, Evidence(docs, TEXT_ENC), questions


def batch_bits() -> list[str]:
    """Every chunk's score bits (or "-" below 0) for every question, in the batch."""
    texts, evidence, questions = batch_case()
    out = []
    for question, image in questions:
        got = dict(all_scores(question, image, evidence))
        out.extend(got[c.chunk_id].hex() if c.chunk_id in got else "-" for c in evidence)
    return out


def test_a_chunk_scores_the_same_bits_alone_and_in_a_batch():
    texts, evidence, questions = batch_case()
    chunks = list(evidence)
    assert len(chunks) == 500 and len(evidence.docs) < 500
    store = ChunkCodeStore(TEXT_ENC)
    alone = [Evidence([(Source.WEB, "https://a", store.build(WebDoc("https://a", "", ""),
                                                             [text]))], TEXT_ENC)
             for text in texts]
    differ = 0
    for (question, image), batch in zip(questions, np.split(np.array(batch_bits()), 10)):
        for bits, single in zip(batch, alone):
            differ += [bits] != ([s.hex() for _, s in all_scores(question, image, single)]
                                 or ["-"])
    assert differ == 0, f"{differ} of 5000 scores depend on the batch"


def test_batch_scores_do_not_depend_on_the_blas_thread_count():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"),
                                                       str(tests)])}
    code = "import test_reranker; print(' '.join(test_reranker.batch_bits()))"
    runs = [subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": n},
                           capture_output=True, text=True, check=True, timeout=120).stdout
            for n in ("1", "2")]
    assert runs[0].split() == runs[1].split() == batch_bits()


# --- fine stage -----------------------------------------------------------------------


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
    # Of the question's ten tokens, "at bar" holds three (fine 0.3) and
    # "above bar" five (fine 0.5).
    cfg = RerankConfig(tau_coarse=0.3, tau_fine=0.5, k2=5)
    question = " ".join(f"w{j}" for j in range(10))
    at_bar = chunk(0, "at bar w0 w1 w2")
    above = chunk(1, "above bar w0 w1 w2 w3 w4")
    out = fine_score(question, [(at_bar, 0.5), (above, 0.5)], "", cfg)
    assert [c.chunk_id for c, _ in out] == ["c1"]
    assert out[0][1].cumulative == pytest.approx(0.25)


def test_fine_top_k2_matches_bruteforce_sort():
    rng = np.random.default_rng(9)
    words = [f"w{j}" for j in range(10)]
    texts = [" ".join(rng.choice(words + ["other", "noise"], size=int(rng.integers(0, 12))))
             for _ in range(10)]
    fines = {text: len(set(words) & set(text.split())) / len(words) for text in texts}
    survivors = [(chunk(i, text), float(rng.uniform(0.2, 1.0))) for i, text in enumerate(texts)]
    cfg = RerankConfig(k1=20, k2=3, tau_coarse=0.0, tau_fine=0.0)
    out = fine_score(" ".join(words), survivors, "", cfg)

    cumulative = [
        (c, min(1.0, max(0.0, s)) * fines[c.text]) for c, s in survivors
    ]
    cumulative.sort(key=lambda p: -p[1])
    expected = [c.chunk_id for c, cum in cumulative[:3] if cum > 0.0]
    assert [c.chunk_id for c, _ in out] == expected


def test_fine_score_is_question_token_recall():
    cfg = RerankConfig(k1=20, k2=5, tau_coarse=0.0, tau_fine=0.0)

    def fine(question, c):
        [(_, score)] = fine_score(question, [(c, 1.0)], "", cfg)
        return score.fine

    assert fine("red sports car", chunk(0, "a red car parked")) == 2 / 3
    assert fine("a b c", chunk(0, "c d e")) == 1 / 3
    assert fine("red red car", chunk(0, "car")) == 1 / 2  # distinct question tokens
    # A chunk's stored tokens are read in place of its text.
    stored = Chunk("unrelated", Source.WEB, "https://c/0", 0, "c0", tokens="car red")
    assert fine("red sports car", stored) == 2 / 3
    # A question without tokens recalls nothing: every fine score is 0.0,
    # and no cumulative clears a bar of 0.0.
    assert fine_score("", [(chunk(0, "anything"), 1.0)], "", cfg) == []


def test_fine_stage_tokenizes_the_question_once_and_keeps_each_score(monkeypatch):
    questions = ["red sports car", "", "What's the PRICE of the red car?"]
    texts = ["a red car parked", "sports news", "", "price: $5 for the red car", "car car"]
    want = {
        (q, t): (len(set(tokenize(q)) & set(tokenize(t))) / len(set(tokenize(q)))
                 if tokenize(q) else 0.0)
        for q in questions for t in texts
    }
    seen = []
    monkeypatch.setattr(reranker, "tokenize", lambda text: seen.append(text) or tokenize(text))
    cfg = RerankConfig(k1=20, k2=5, tau_coarse=0.0, tau_fine=0.0)
    survivors = [(chunk(i, t), 1.0) for i, t in enumerate(texts)]
    for question in questions:
        seen.clear()
        out = fine_score(question, survivors, "", cfg)
        assert seen.count(question) == 1
        for c, score in out:
            assert score.fine.hex() == want[question, c.text].hex()


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
