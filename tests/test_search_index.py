import json
import math

import numpy as np
import pytest

from dynarag.encoders import HashedTextEncoder
from dynarag.errors import DimensionMismatch, IndexNotBuilt, ParseError
from dynarag.search import (
    ImageKgIndex,
    ImageRecord,
    ImageStore,
    KgEntry,
    WebDoc,
    WebSearchIndex,
    _interleave,
    _top_k,
    unit_embedding_for,
)


def doc(i: int, snippet: str, hard=False) -> WebDoc:
    return WebDoc(url=f"https://d/{i:03d}", title=f"Doc {i}", snippet=snippet,
                  is_hard_negative=hard)


def kg(i: int, vec) -> KgEntry:
    return KgEntry.from_dict({
        "entity_name": f"entity-{i}",
        "url": f"kg://e/{i:03d}",
        "image_embedding": list(vec),
        "attributes": {"title": f"entity-{i}"},
    })


def brute_force_cosine(query_vec, matrix):
    """Independent oracle: plain python dot products per row."""
    return [
        math.fsum(float(a) * float(b) for a, b in zip(row, query_vec))
        for row in matrix
    ]


# --- ingest -------------------------------------------------------------------


def test_ingest_ten_doc_fixture(tmp_path):
    path = tmp_path / "web.jsonl"
    with open(path, "w") as fh:
        for i in range(10):
            fh.write(json.dumps(doc(i, f"snippet number {i}").to_dict()) + "\n")
    index = WebSearchIndex.ingest(path)
    assert len(index) == 10


def test_ingest_empty_file_gives_empty_results(tmp_path):
    path = tmp_path / "web.jsonl"
    path.write_text("")
    index = WebSearchIndex.ingest(path)
    assert len(index) == 0
    assert index.search("anything", 5) == []


def test_ingest_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "web.jsonl"
    rows = [json.dumps(doc(0, "fine").to_dict()),
            json.dumps(doc(1, "fine").to_dict()),
            "{not json"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        WebSearchIndex.ingest(path)
    assert err.value.line == 3


def test_duplicate_url_rejected():
    with pytest.raises(ValueError):
        WebSearchIndex().build([doc(1, "a"), WebDoc("https://d/001", "t", "b")])


def test_kg_duplicate_url_rejected():
    twin = KgEntry("entity-9", "kg://e/001", np.eye(4)[1], {})
    with pytest.raises(ValueError, match="duplicate url"):
        ImageKgIndex().build([kg(1, np.eye(4)[0]), twin])


def test_search_before_build_raises():
    with pytest.raises(IndexNotBuilt):
        WebSearchIndex().search("q", 3)
    with pytest.raises(IndexNotBuilt):
        ImageKgIndex().search(np.zeros(4), 3)


# --- web search ------------------------------------------------------------------


def test_exact_title_snippet_query_ranks_first_with_unit_score():
    docs = [doc(0, "completely different words"), doc(1, "unique tokens here")]
    index = WebSearchIndex().build(docs)
    hits = index.search("Doc 1 unique tokens here", 2)
    assert hits[0].url == "https://d/001"
    assert abs(hits[0].score - 1.0) < 1e-9


def test_k_larger_than_corpus_returns_all():
    docs = [doc(i, f"words {i}") for i in range(6)]
    index = WebSearchIndex().build(docs)
    assert len(index.search("words", 20)) == 6


def test_k_zero_returns_empty():
    index = WebSearchIndex().build([doc(0, "x")])
    assert index.search("x", 0) == []
    with pytest.raises(ValueError):
        index.search("x", -1)


def test_result_cap_at_fifty():
    docs = [doc(i, f"shared words plus {i}") for i in range(60)]
    index = WebSearchIndex().build(docs)
    assert len(index.search("shared words", 200)) == 50


def test_hard_negative_interleave_positions():
    # 4 positives + 2 negatives at one negative per two positives:
    # positions 3 and 6 (1-based) must hold the negatives.
    docs = [doc(i, f"relevant topic words {i}") for i in range(4)]
    docs += [doc(10, "noise page", hard=True), doc(11, "more noise", hard=True)]
    index = WebSearchIndex(hard_negative_rate=0.5).build(docs)
    hits = index.search("relevant topic words", 6)
    assert len(hits) == 6
    flags = [h.payload.is_hard_negative for h in hits]
    assert flags == [False, False, True, False, False, True]


def test_interleave_keeps_positives_after_negatives_run_out():
    docs = [doc(i, f"relevant topic words {i}") for i in range(100)]
    docs += [doc(200 + i, f"noise page {i}", hard=True) for i in range(3)]
    index = WebSearchIndex(hard_negative_rate=0.5).build(docs)
    hits = index.search("relevant topic words", 20)
    assert len(hits) == 20
    flags = [h.payload.is_hard_negative for h in hits]
    assert [pos for pos, hard in enumerate(flags, start=1) if hard] == [3, 6, 9]
    assert _interleave(["p1", "p2", "p3"], ["n1"], 1.0) == ["p1", "n1", "p2", "p3"]


def test_rate_zero_returns_no_negatives():
    docs = [doc(0, "real content"), doc(1, "noise", hard=True)]
    index = WebSearchIndex(hard_negative_rate=0.0).build(docs)
    hits = index.search("real content", 5)
    assert [h.url for h in hits] == ["https://d/000"]


def test_web_results_sorted_nonincreasing_at_rate_zero():
    docs = [doc(i, f"some mix of words {i} tokens") for i in range(20)]
    index = WebSearchIndex().build(docs)
    hits = index.search("mix of tokens", 20)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


# --- image kg search ----------------------------------------------------------------


def test_kg_identical_embedding_scores_one():
    v = unit_embedding_for("target entity look")
    index = ImageKgIndex().build([kg(0, unit_embedding_for("something else")), kg(1, v)])
    hits = index.search(v, 2)
    assert hits[0].payload.entity_name == "entity-1"
    assert abs(hits[0].score - 1.0) < 1e-9


def test_kg_orthogonal_query_scores_zero_with_url_tiebreak():
    # One-hot corpus vectors; query on a dimension none of them use.
    dim = 8
    entries = []
    for i, axis in enumerate((0, 1, 2)):
        vec = np.zeros(dim)
        vec[axis] = 1.0
        entries.append(kg(i, vec))
    query = np.zeros(dim)
    query[7] = 1.0
    hits = ImageKgIndex().build(entries).search(query, 3)
    assert [h.score for h in hits] == [0.0, 0.0, 0.0]
    assert [h.url for h in hits] == ["kg://e/000", "kg://e/001", "kg://e/002"]


def test_kg_k_zero_empty():
    index = ImageKgIndex().build([kg(0, unit_embedding_for("x"))])
    assert index.search(unit_embedding_for("x"), 0) == []


def test_kg_dimension_mismatch():
    index = ImageKgIndex().build([kg(0, unit_embedding_for("x"))])
    with pytest.raises(DimensionMismatch):
        index.search(np.ones(5) / math.sqrt(5), 1)


def test_kg_embedding_norm_validated():
    with pytest.raises(ValueError):
        KgEntry.from_dict({
            "entity_name": "bad", "url": "kg://bad",
            "image_embedding": [1.0, 1.0], "attributes": {},
        })


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kg_embedding_must_be_finite(bad):
    with pytest.raises(ValueError):
        KgEntry.from_dict({
            "entity_name": "bad", "url": "kg://bad",
            "image_embedding": [bad, bad], "attributes": {},
        })


def test_image_record_embeddings_must_be_finite(tmp_path):
    good = {"image_id": "img", "whole_embedding": [1.0, 0.0],
            "regions": [{"label": "cup", "bbox": [0, 0, 5, 5],
                         "embedding": [0.0, 1.0]}]}
    ImageRecord.from_dict(good)
    with pytest.raises(ValueError):
        ImageRecord.from_dict({**good, "whole_embedding": [math.nan, 0.0]})
    bad_region = {**good["regions"][0], "embedding": [0.0, math.inf]}
    with pytest.raises(ValueError):
        ImageRecord.from_dict({**good, "regions": [bad_region]})

    path = tmp_path / "images.jsonl"
    path.write_text(json.dumps(good) + "\n"
                    + json.dumps({**good, "whole_embedding": [math.nan, 0.0]}) + "\n")
    with pytest.raises(ParseError) as err:
        ImageStore.from_jsonl(path)
    assert err.value.line == 2


def test_kg_search_rejects_non_finite_query():
    index = ImageKgIndex().build([kg(0, unit_embedding_for("x", dim=4))])
    with pytest.raises(ValueError):
        index.search(np.array([math.nan, 0.0, 0.0, 0.0]), 1)


def test_kg_attribute_keys_lowercased():
    entry = KgEntry.from_dict({
        "entity_name": "e", "url": "kg://e",
        "image_embedding": list(unit_embedding_for("e")),
        "attributes": {"Brand": "Acme", "PRICE": "$5"},
    })
    assert list(entry.attributes) == ["brand", "price"]


# --- exactness against the brute-force oracle ------------------------------------------


def test_web_search_matches_brute_force_scan():
    rng = np.random.default_rng(7)
    vocab = [f"tok{j}" for j in range(300)]
    docs = [
        doc(i, " ".join(rng.choice(vocab, size=12)))
        for i in range(400)
    ]
    encoder = HashedTextEncoder()
    index = WebSearchIndex(encoder).build(docs)
    query = "tok1 tok5 tok250 tok42"
    hits = index.search(query, 25)

    qvec = encoder.encode(query)
    matrix = [encoder.encode(f"{d.title} {d.snippet}") for d in docs]
    oracle_scores = brute_force_cosine(qvec, matrix)
    oracle = sorted(
        zip(docs, oracle_scores), key=lambda pair: (-pair[1], pair[0].url)
    )[:25]

    assert [h.url for h in hits] == [d.url for d, _ in oracle]
    for hit, (_, score) in zip(hits, oracle):
        assert abs(hit.score - score) < 1e-9


def test_kg_search_matches_brute_force_scan():
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(200, 64))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    entries = [kg(i, vecs[i]) for i in range(200)]
    index = ImageKgIndex().build(entries)

    query = rng.normal(size=64)
    query /= np.linalg.norm(query)
    hits = index.search(query, 30)

    oracle_scores = brute_force_cosine(query, vecs)
    oracle = sorted(
        zip(entries, oracle_scores), key=lambda pair: (-pair[1], pair[0].url)
    )[:30]
    assert [h.url for h in hits] == [e.url for e, _ in oracle]
    for hit, (_, score) in zip(hits, oracle):
        assert abs(hit.score - score) < 1e-9


def test_topk_prefix_monotonicity():
    rng = np.random.default_rng(3)
    vocab = [f"w{j}" for j in range(100)]
    docs = [doc(i, " ".join(rng.choice(vocab, size=8))) for i in range(50)]
    index = WebSearchIndex().build(docs)
    query = "w1 w2 w3"
    for k1, k2 in [(1, 5), (3, 10), (10, 50)]:
        top_k1 = [h.url for h in index.search(query, k1)]
        top_k2 = [h.url for h in index.search(query, k2)]
        assert top_k2[: len(top_k1)] == top_k1


def test_search_is_deterministic():
    docs = [doc(i, f"words {i % 4} common") for i in range(30)]
    index_a = WebSearchIndex().build(docs)
    index_b = WebSearchIndex().build(docs)
    a = [(h.url, h.score) for h in index_a.search("common words", 30)]
    b = [(h.url, h.score) for h in index_b.search("common words", 30)]
    assert a == b


# --- partial top-k against the full-sort oracle, compared with == ------------------


def full_sort(scores, urls, k):
    """Reference: sort every position by (-score, url), keep the first k."""
    order = sorted(range(len(urls)), key=lambda i: (-scores[i], urls[i]))
    return [(i, float(scores[i])) for i in order[:k]]


def tied_web_docs(rng, n, hard=False, prefix="d"):
    """Docs drawn from a small pool of (title, snippet) pairs, so many tie."""
    pool = [("Same", " ".join(rng.choice([f"t{j}" for j in range(12)], size=4)))
            for _ in range(max(2, n // 4))]
    return [
        WebDoc(url=f"https://{prefix}/{int(u):04d}", title=pool[i % len(pool)][0],
               snippet=pool[i % len(pool)][1], is_hard_negative=hard)
        for i, u in enumerate(rng.permutation(n))
    ]


def web_oracle(docs, encoder, query, rate, k):
    qvec = encoder.encode(query)

    def ranked(part):
        if not part:
            return []
        matrix = np.vstack([encoder.encode(f"{d.title} {d.snippet}") for d in part])
        return [(part[i], s) for i, s in
                full_sort(matrix @ qvec, [d.url for d in part], len(part))]

    positives = ranked([d for d in docs if not d.is_hard_negative])
    negatives = ranked([d for d in docs if d.is_hard_negative]) if rate > 0 else []
    merged = _interleave(positives, negatives, rate)
    return [(d.url, s) for d, s in merged[:min(k, 50)]]


@pytest.mark.parametrize("seed", range(4))
def test_top_k_matches_full_sort_with_straddling_ties(seed):
    rng = np.random.default_rng(seed)
    n = 60
    # Few distinct values, so ties straddle every k-th score.
    scores = rng.integers(0, 5, size=n).astype(np.float64) / 4
    urls = [f"u{int(u):03d}" for u in rng.permutation(n)]
    # An all-zero query vector ties every position at 0.0.
    for values in (scores, np.zeros(n)):
        for k in (1, 2, n - 1, n, n + 5, 50):
            assert _top_k(values, urls, k) == full_sort(values, urls, k)


@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_neg", [0, 3, 40])
def test_web_search_matches_full_sort(rate, n_neg):
    rng = np.random.default_rng(17)
    docs = tied_web_docs(rng, 80) + tied_web_docs(rng, n_neg, hard=True, prefix="n")
    encoder = HashedTextEncoder()
    index = WebSearchIndex(encoder, hard_negative_rate=rate).build(docs)
    n = len(docs)
    # The last three have no [a-z0-9] token, so they encode to the zero vector.
    for query in ("t1 t2 t3", "Same", "t7", "nothing matches", "", "???", "東京タワー"):
        for k in (1, n - 1, n, n + 5, 50):
            got = [(h.url, h.score) for h in index.search(query, k)]
            assert got == web_oracle(docs, encoder, query, rate, k), (query, k)


def test_kg_search_matches_full_sort_with_one_hot_ties():
    rng = np.random.default_rng(29)
    dim, n = 6, 40
    vecs = np.eye(dim)[rng.integers(0, dim, size=n)]
    order = rng.permutation(n)
    entries = [kg(int(order[i]), vecs[i]) for i in range(n)]
    index = ImageKgIndex().build(entries)
    matrix = np.vstack([e.image_embedding for e in entries])
    urls = [e.url for e in entries]
    queries = [np.eye(dim)[2], np.full(dim, 1 / math.sqrt(dim))]
    queries.append(rng.normal(size=dim))
    queries.append(np.zeros(dim))
    for query in queries:
        for k in (1, n - 1, n, n + 5, 50):
            got = [(h.url, h.score) for h in index.search(query, k)]
            want = [(urls[i], s) for i, s in full_sort(matrix @ query, urls, k)]
            assert got == want, k
