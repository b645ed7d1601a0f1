import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dynarag.config import PipelineConfig
from dynarag.encoders import HashedTextEncoder, tokenize
from dynarag.errors import DimensionMismatch, ParseError
from dynarag.search import (
    ImageKgIndex,
    ImageRecord,
    ImageStore,
    KgEntry,
    WebDoc,
    WebSearchIndex,
    _error_scale,
    _interleave,
    top_k,
    unit_embedding_for,
)
from dynarag.pipeline import build_runtime

from test_encoders import oracle_encode_tokens, oracle_slot_counts
from worlds import load_worldgen


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


class ExactWebOracle:
    """Reference web search from per-token slot counts: each partition ranked
    by the exact key dot * |dot| / nn (nn = 1 for a doc without tokens), ties
    by url, then interleaved; each key a Fraction and each score
    sign * sqrt(|key| / nq). Keys are compared as integer multiples of
    1 / lcm(nn), which orders them exactly as Fractions, only faster."""

    def __init__(self, docs, rate):
        self.rate = rate
        self.parts = []
        for hard in (False, True):
            part = [d for d in docs if d.is_hard_negative == hard]
            counts = [oracle_slot_counts(tokenize(f"{d.title} {d.snippet}")) for d in part]
            docs_of_slot = {}
            for i, doc_counts in enumerate(counts):
                for slot, count in doc_counts.items():
                    docs_of_slot.setdefault(slot, []).append((i, count))
            nn = [sum(c * c for c in dc.values()) or 1 for dc in counts]
            self.parts.append((part, docs_of_slot, nn, math.lcm(*nn),
                               sorted(range(len(part)), key=lambda i: part[i].url)))

    def ranked(self, part, query, k):
        """The k best (doc, key) of one partition, in exact order."""
        docs, docs_of_slot, nn, common, by_url = self.parts[part]
        dots = {}
        for slot, c in query.items():
            for i, count in docs_of_slot.get(slot, ()):
                dots[i] = dots.get(i, 0) + c * count
        scaled = {i: dot * abs(dot) * (common // nn[i]) for i, dot in dots.items() if dot}
        order = sorted(scaled, key=lambda i: (-scaled[i], docs[i].url))
        # Every other doc has key 0: after the positive keys, before the negative.
        zeros = [i for i in by_url if i not in scaled][:k]
        order = ([i for i in order if scaled[i] > 0] + zeros
                 + [i for i in order if scaled[i] < 0])
        return [(docs[i], Fraction(scaled.get(i, 0), common)) for i in order[:k]]

    def search(self, text, k):
        """(url, score, key) of each hit, as ``WebSearchIndex.search`` orders them."""
        query = oracle_slot_counts(tokenize(text))
        nq = sum(c * c for c in query.values())
        k = min(k, 50)
        positives = self.ranked(0, query, k)
        negatives = self.ranked(1, query, k) if self.rate > 0 else []
        return [(doc.url, oracle_score(key, nq), key)
                for doc, key in _interleave(positives, negatives, self.rate)[:k]]


def oracle_score(key, nq) -> float:
    return math.copysign(math.sqrt(abs(float(key)) / nq), key) if nq else 0.0


def fsum_cosine(query, d) -> float:
    return math.fsum(float(a) * float(b) for a, b in zip(
        oracle_encode_tokens(tokenize(query)),
        oracle_encode_tokens(tokenize(f"{d.title} {d.snippet}"))))


def assert_exact(index, oracle, query, k):
    """The index's hits equal the oracle's, urls in order and score bits;
    returns the oracle's hits."""
    want = oracle.search(query, k)
    got = [(h.url, h.score.hex()) for h in index.search(query, k)]
    assert got == [(url, score.hex()) for url, score, _ in want], (query, k)
    return want


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


def test_duplicate_url_across_partitions_rejected():
    with pytest.raises(ValueError, match="duplicate url"):
        WebSearchIndex().build([doc(1, "a"), doc(1, "b", hard=True)])


def test_kg_duplicate_url_rejected():
    twin = KgEntry("entity-9", "kg://e/001", np.eye(4)[1], {})
    with pytest.raises(ValueError, match="duplicate url"):
        ImageKgIndex().build([kg(1, np.eye(4)[0]), twin])


def test_a_new_index_is_the_empty_corpus():
    web, kg = WebSearchIndex(), ImageKgIndex()
    assert len(web) == len(kg) == 0
    assert list(kg) == []
    assert web.search("q", 3) == []
    assert kg.search(np.zeros(4), 3) == []


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


HUGE_RATE_SCRIPT = """
from dynarag.search import WebDoc, WebSearchIndex, _interleave
print(_interleave([1, 2], [3], 1e17))
docs = [WebDoc(f"https://d/{i}", "", f"topic words {i}", is_hard_negative=i < 2)
        for i in range(6)]
hits = WebSearchIndex(hard_negative_rate=1e17).build(docs).search("topic words", 10)
print([hit.payload.is_hard_negative for hit in hits])
"""


def test_interleave_returns_at_a_rate_too_large_to_count_down():
    # At 1e17, credit - 1.0 == credit: only running out of negatives ends
    # the loop. A subprocess, so a hang fails the test instead of the run.
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", HUGE_RATE_SCRIPT],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[1, 3, 2]", "[False, True, True, False, False, False]"]


@pytest.mark.parametrize("rate", [0.25, 0.5, 1.0, 1.5, 3.0])
def test_interleave_puts_each_negative_where_the_credit_falls_due(rate):
    positives, negatives = [f"p{i}" for i in range(8)], ["n0", "n1", "n2"]
    want, pool, credit = [], list(negatives), 0.0
    for item in positives:
        want.append(item)
        credit += rate
        while credit >= 1.0:
            credit -= 1.0
            if pool:
                want.append(pool.pop(0))
    assert _interleave(positives, negatives, rate) == want


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


@pytest.mark.parametrize("embedding", [
    [math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], [1.0, 1.0], [0.5, 0.0],
])
def test_kg_entry_built_in_code_is_checked(embedding):
    with pytest.raises(ValueError):
        KgEntry("bad", "kg://bad", np.array(embedding), {})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_image_record_built_in_code_is_checked(bad):
    region = {"label": "cup", "bbox": (0, 0, 5, 5), "embedding": np.array([0.0, 1.0])}
    ImageRecord("img", np.array([1.0, 0.0]), [region])
    with pytest.raises(ValueError):
        ImageRecord("img", np.array([bad, 0.0]), [region])
    with pytest.raises(ValueError):
        ImageRecord("img", np.array([1.0, 0.0]),
                    [{**region, "embedding": np.array([0.0, bad])}])


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


def test_kg_attribute_numbers_and_booleans_load_as_text():
    def entry(value):
        return KgEntry.from_dict({
            "entity_name": "e", "url": "kg://e",
            "image_embedding": list(unit_embedding_for("e")),
            "attributes": {"Price": value},
        })

    # null, lists and objects are rejected (WRONG_TYPED_FIELDS in cases.py).
    assert [entry(v).attributes["price"] for v in ("$5", 5, 2.5, True)] == [
        "$5", "5", "2.5", "True"]


def test_an_ingested_kg_holds_each_embedding_once(tmp_path):
    vecs = unit_rows(1, 3, 16)
    path = tmp_path / "kg.jsonl"
    path.write_text("".join(json.dumps(kg(i, vecs[i]).to_dict()) + "\n" for i in (2, 0, 1)))
    index = ImageKgIndex.ingest(path)
    assert not index._matrix.flags.writeable
    for entry, row, vec in zip(index, index._matrix, vecs):
        assert np.shares_memory(entry.image_embedding, row)
        assert np.array_equal(entry.image_embedding, vec)
    # Entries handed to build keep their own arrays.
    entries = [kg(i, vecs[i]) for i in range(3)]
    built = ImageKgIndex().build(entries)
    assert not any(np.shares_memory(e.image_embedding, built._matrix) for e in entries)


# --- exactness against the brute-force oracle ------------------------------------------


def test_web_search_matches_brute_force_scan():
    rng = np.random.default_rng(7)
    vocab = [f"tok{j}" for j in range(300)]
    docs = [
        doc(i, " ".join(rng.choice(vocab, size=12)))
        for i in range(400)
    ]
    index = WebSearchIndex(HashedTextEncoder()).build(docs)
    query = "tok1 tok5 tok250 tok42"
    hits = index.search(query, 25)
    oracle = ExactWebOracle(docs, 0.0).search(query, 25)

    assert [h.url for h in hits] == [url for url, _, _ in oracle]
    by_url = {d.url: d for d in docs}
    for hit, (url, score, _) in zip(hits, oracle):
        assert hit.score.hex() == score.hex()
        assert abs(hit.score - fsum_cosine(query, by_url[url])) < 1e-9


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


def unit_rows(seed: int, n: int, dim: int = 64) -> np.ndarray:
    rows = np.random.default_rng(seed).normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [7, 250])
def test_kg_score_depends_only_on_the_query_and_the_entry(n):
    """Each hit's score bits equal that entry's score from an index holding
    it alone: neither the entry's row nor the corpus size moves them."""
    vecs = unit_rows(n, n + 20)
    entries = [kg(i, vecs[i]) for i in range(n)]
    index = ImageKgIndex().build(entries)
    alone = {e.url: ImageKgIndex().build([e]) for e in entries}
    for query in vecs[n:]:
        for k in (1, 5, n):
            hits = index.search(query, k)
            assert len(hits) == k
            for hit in hits:
                assert hit.score.hex() == alone[hit.url].search(query, 1)[0].score.hex()


KG_SEARCH_SCRIPT = """
import numpy as np
from dynarag.search import ImageKgIndex, KgEntry
rng = np.random.default_rng(5)
rows = rng.normal(size=(2520, 256))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
index = ImageKgIndex().build(
    [KgEntry(f"e{i}", f"kg://e/{i:04d}", rows[i], {}) for i in range(2500)])
# Random queries, and near-ties: KG rows moved by 1e-9.
queries = np.vstack([rows[2500:], rows[:20] + rng.normal(size=(20, 256)) * 1e-9])
for query in queries:
    for k in (1, 10, 2500):
        for hit in index.search(query, k):
            print(hit.url, hit.score.hex())
"""


def test_kg_hits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", KG_SEARCH_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.splitlines())
    assert len(outputs[0]) == 40 * (1 + 10 + 2500)
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("seed", range(4))
def test_top_k_matches_full_sort_with_straddling_ties(seed):
    rng = np.random.default_rng(seed)
    n = 60
    # Few distinct values, so ties straddle every k-th score.
    scores = rng.integers(0, 5, size=n).astype(np.float64) / 4
    # An all-zero query vector ties every position at 0.0.
    for values in (scores, np.zeros(n)):
        for k in (1, 2, n - 1, n, n + 5, 50):
            assert top_k(values, k) == full_sort(values, range(n), k)


@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_neg", [0, 3, 40])
def test_web_search_matches_full_sort(rate, n_neg):
    rng = np.random.default_rng(17)
    docs = tied_web_docs(rng, 80) + tied_web_docs(rng, n_neg, hard=True, prefix="n")
    index = WebSearchIndex(HashedTextEncoder(), hard_negative_rate=rate).build(docs)
    oracle = ExactWebOracle(docs, rate)
    n = len(docs)
    # The last three have no [a-z0-9] token, so they encode to the zero vector.
    for query in ("t1 t2 t3", "Same", "t7", "nothing matches", "", "???", "東京タワー"):
        for k in (1, n - 1, n, n + 5, 50):
            assert_exact(index, oracle, query, k)


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


# --- float32 filter and refine in the KG index ----------------------------------------


def einsum_top_k(matrix, query, k):
    """The full scan: every row's einsum score, ranked by (-score, position)."""
    scores = np.einsum("ij,j->i", matrix, query)
    return [(i, score.hex()) for i, score in full_sort(scores, range(len(matrix)), k)]


def kg_hits(index, query, k):
    return [(int(h.url.rsplit("/", 1)[1]), h.score.hex()) for h in index.search(query, k)]


def near_tie_kg(seed, clusters=50, copies=4, dim=64):
    """An index over clusters of unit rows 1e-9 apart, plus exact duplicates
    of five rows, in url order; returns it with its rows."""
    rng = np.random.default_rng(seed)
    base = unit_rows(seed, clusters, dim)
    rows = np.repeat(base, copies, axis=0)
    rows += rng.normal(size=rows.shape) * 1e-9
    rows = np.vstack([rows, rows[:5 * copies:copies]])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return ImageKgIndex().build([kg(i, row) for i, row in enumerate(rows)]), rows


@pytest.mark.parametrize("seed", range(3))
def test_kg_filter_and_refine_matches_the_full_scan_on_near_ties(seed):
    index, rows = near_tie_kg(seed)
    rng = np.random.default_rng(seed + 100)
    queries = list(rows[::9]) + list(rows[::13] + rng.normal(size=rows[::13].shape) * 1e-9)
    queries += list(unit_rows(seed + 200, 10, rows.shape[1]))
    for query in queries:
        for k in (1, 2, 3, 5, 10, 50):
            assert kg_hits(index, query, k) == einsum_top_k(rows, query, k), k


@pytest.mark.parametrize("dim", [1, 6, 64, 256, 4096])
def test_kg_filter_bound_covers_float32_and_the_einsums_own_rounding(dim):
    def gamma(j, u):
        return j * u / (1 - j * u)

    # Rounding both vectors to float32 and a float32 dot product in any
    # order, plus the float64 einsum the kept rows are scored with.
    need = gamma(dim + 2, Fraction(1, 2 ** 24)) + gamma(dim, Fraction(1, 2 ** 53))
    assert Fraction(_error_scale(dim)) > need
    assert _error_scale(2 ** 23) == math.inf


@pytest.mark.parametrize("scale", [1e40, 1e20, 1e18, 1e-43, 1e-300, 0.0])
def test_kg_queries_at_the_edges_of_float32_rank_as_the_full_scan(scale):
    # 1e40 overflows a float32 cast and 1e20 passes 2**64: both take the full
    # scan. 1e-43 rounds to float32 subnormals with a few bits; 1e-300 and 0
    # round to zero, so only the absolute term keeps the bound above the error.
    index, rows = near_tie_kg(7)
    queries = [rows[11] * scale, (rows[11] + rows[40]) * scale]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in queries:
            for k in (1, 5, 10):
                assert kg_hits(index, query, k) == einsum_top_k(rows, query, k), k


# --- exact ties in the web index -----------------------------------------------------


def test_loading_worldgen_leaves_sys_path_as_it_was():
    # worldgen puts its checkout's src first on sys.path; left there, it would
    # pick the dynarag that later imports find, whatever PYTHONPATH says.
    before = list(sys.path)
    worldgen = load_worldgen()
    assert sys.path == before
    assert callable(worldgen.generate)


@pytest.fixture(scope="module")
def web_scale_world(tmp_path_factory):
    """A seed-1 ``web_scale`` benchmark world at scale 0.1: 1k docs, 10% hard
    negatives."""
    config_path = load_worldgen().generate("web_scale", seed=1,
                                    out=tmp_path_factory.mktemp("web_scale"), scale=0.1)
    questions = [json.loads(line)["question"] for line in
                 (config_path.parent / "dataset.jsonl").read_text().splitlines()]
    return build_runtime(PipelineConfig.from_file(config_path)).web_index, questions


def test_generated_world_top_10_matches_the_fraction_oracle(web_scale_world):
    index, questions = web_scale_world
    docs = index._docs
    assert len(docs) == 1000 and index.hard_negative_rate > 0
    oracle = ExactWebOracle(docs, index.hard_negative_rate)
    queries = questions + [d.title for d in docs[:300]]
    start = time.perf_counter()
    ties = 0
    for query in queries:
        keys = [key for _, _, key in assert_exact(index, oracle, query, 10)]
        ties += len(keys) - len(set(keys))
    assert ties > 100  # the probes do exercise exact ties
    assert time.perf_counter() - start < 2.0


def distinct_slot_tokens(count, taken=()):
    """``count`` tokens whose slots differ from each other and from ``taken``."""
    tokens, slots = [], set(taken)
    for j in range(10_000):
        token = f"w{j}"
        (slot,) = oracle_slot_counts([token])
        if slot not in slots:
            tokens.append(token)
            slots.add(slot)
            if len(tokens) == count:
                return tokens, slots
    raise AssertionError("not enough distinct slots")


def test_exact_ties_between_different_texts_fall_in_url_order_across_the_kth_place():
    (a, b, c), slots = distinct_slot_tokens(3)
    fill, _ = distinct_slot_tokens(40, slots)
    query = f"{a} {b} {c}"
    # Each tied text has cosine 1 / sqrt(6) to the query (key 1/2), through
    # different shared tokens, counts and lengths.
    tied = [f"{a} {fill[0]}", f"{b} {fill[1]}", f"{c} {fill[2]}",
            f"{a} {a} " + " ".join(fill[3:7]),
            f"{a} {b} " + " ".join(fill[7:13]),
            f"{b} {b} {fill[13]} {fill[14]} {fill[15]} {fill[16]}",
            f"{a} {b} {c} " + " ".join(fill[17:32])]
    above = [f"{a} {b}", f"{a}", f"{a} {b} {c}"]
    below = [f"{a} {fill[32]} {fill[33]}", " ".join(fill[34:37]), f"{c} {fill[37]} {fill[38]}"]
    texts = tied + above + below
    rng = np.random.default_rng(5)
    docs = [WebDoc(url=f"https://t/{int(u):02d}", title="", snippet=text)
            for u, text in zip(rng.permutation(len(texts)), texts)]
    index = WebSearchIndex().build(docs)
    oracle = ExactWebOracle(docs, 0.0)
    want = oracle.search(query, len(docs))
    tie_keys = [key for url, _, key in want if key == Fraction(1, 2)]
    assert len(tie_keys) == len(tied)
    for k in range(1, len(docs) + 1):
        assert_exact(index, oracle, query, k)
    scores = {h.score for h in index.search(query, len(docs))
              if h.payload.snippet in tied}
    assert len(scores) == 1 and abs(scores.pop() - 1 / math.sqrt(6)) < 1e-15


def test_web_index_holds_no_dense_matrix():
    rng = np.random.default_rng(11)
    vocab = np.array([f"v{j}" for j in range(5000)])
    docs = [WebDoc(url=f"https://m/{i:04d}", title=f"Page {i}",
                   snippet=" ".join(rng.choice(vocab, size=int(rng.integers(5, 40)))),
                   is_hard_negative=bool(i % 10 == 0))
            for i in range(2000)]
    index = WebSearchIndex(hard_negative_rate=0.1).build(docs)
    arrays = [v for v in vars(index).values() if isinstance(v, np.ndarray)]
    entries = len(index._ids)
    dim = index.encoder.dim
    assert sum(a.nbytes for a in arrays) <= 16 * entries + 16 * (dim + 1) + 16 * len(docs)
    # The dense float64 matrices this replaces held dim floats per doc.
    assert sum(a.nbytes for a in arrays) * 5 < 8 * dim * len(docs)


def test_web_index_raises_beyond_the_exactness_bound():
    # A doc of 4096 copies of one token has nn = 2**24, so nq * nn**2 < 2**50
    # leaves room for queries of squared norm at most 3.
    long_doc = WebDoc(url="https://b/long", title="", snippet="w " * 4096)
    index = WebSearchIndex().build([long_doc, doc(1, "other words")])
    assert [h.url for h in index.search("w", 2)] == ["https://b/long", "https://d/001"]
    # nq 3; both docs have cosine 1 / sqrt(3), so they tie and keep url order.
    assert [h.url for h in index.search("w other words", 2)] == ["https://b/long",
                                                                 "https://d/001"]
    with pytest.raises(ValueError, match="too long for exact ranking"):
        index.search("w w", 2)  # one slot counted twice: nq 4
    with pytest.raises(ValueError, match="too large for exact ranking"):
        WebSearchIndex().build([WebDoc(url="https://b/longer", title="",
                                       snippet="w " * 5793)])
    WebSearchIndex().build([WebDoc(url="https://b/longest", title="", snippet="w " * 5792)])


def test_one_exactness_bound_covers_the_hard_negatives_at_rate_zero():
    # One bound for the whole corpus: a long hard negative limits the query
    # length even at rate 0, where no hard negative is ranked.
    long_doc = WebDoc(url="https://b/long", title="", snippet="w " * 4096,
                      is_hard_negative=True)
    index = WebSearchIndex(hard_negative_rate=0.0).build([long_doc, doc(1, "other words")])
    assert [(h.url, h.score) for h in index.search("w", 2)] == [("https://d/001", 0.0)]
    with pytest.raises(ValueError, match="too long for exact ranking"):
        index.search("w w", 2)  # nq 4 > 3, the long doc's bound


def brute_force_web(docs, rate, dim, text, k):
    """Reference web search: every doc of each partition scored on its own
    from per-token slot counts, sorted by (-score, url) and cut to k; then
    interleaved. Returns (url, score bits) and the number of docs of each
    partition with a positive dot product."""
    query = oracle_slot_counts(tokenize(text), dim)
    nq = sum(c * c for c in query.values())
    k = min(k, 50)
    parts, positive = [], []
    for hard in (False, True):
        scored, dots = [], []
        for d in docs:
            if d.is_hard_negative == hard:
                counts = oracle_slot_counts(tokenize(f"{d.title} {d.snippet}"), dim)
                dot = sum(c * counts.get(slot, 0) for slot, c in query.items())
                nn = sum(c * c for c in counts.values()) or 1
                scored.append((d.url, oracle_score(Fraction(dot * abs(dot), nn), nq)))
                dots.append(dot)
        parts.append(sorted(scored, key=lambda hit: (-hit[1], hit[0]))[:k])
        positive.append(sum(dot > 0 for dot in dots))
    merged = _interleave(parts[0], parts[1] if rate > 0 else [], rate)[:k]
    return [(url, score.hex()) for url, score in merged], positive


@pytest.mark.parametrize("rate", [0.0, 0.5])
@pytest.mark.parametrize("dim", [16, 256])
def test_web_top_k_matches_the_brute_force_oracle_with_few_positive_dots(rate, dim):
    # At dim 16 slots collide with opposite signs, so many dots are negative.
    rng = np.random.default_rng(dim)
    vocab = [f"v{j}" for j in range(40)]
    rare, negative_only = "rare", "negonly"
    if dim == 256:  # two tokens whose slots no vocab token shares
        (rare, negative_only), _ = distinct_slot_tokens(
            2, {slot for token in vocab for slot in oracle_slot_counts([token])})
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(2, 9)))) for _ in range(150)]
    texts += [f"{rare} v1", f"{rare} {rare} v2", f"{negative_only} v3", f"{negative_only}"]
    hard = [bool(i % 3 == 0) for i in range(150)] + [False, False, True, True]
    docs = [WebDoc(url=f"https://p/{int(u):03d}", title="", snippet=text, is_hard_negative=h)
            for u, text, h in zip(rng.permutation(len(texts)), texts, hard)]
    index = WebSearchIndex(HashedTextEncoder(dim), hard_negative_rate=rate).build(docs)
    few = only_negatives = 0
    for query in ("v1 v2 v3", "v7", "v1 v1 v9 v30 v31", rare, negative_only,
                  f"{rare} {negative_only}", f"v5 {rare}", "", "???"):
        for k in (1, 2, 3, 5, 10, 50):
            want, positive = brute_force_web(docs, rate, dim, query, k)
            assert [(h.url, h.score.hex()) for h in index.search(query, k)] == want, (query, k)
            few += 0 < positive[0] < k
            only_negatives += positive[0] == 0 < positive[1]
    assert few > 0
    assert only_negatives > 0 or dim != 256
