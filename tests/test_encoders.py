import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dynarag import encoders, search
from dynarag.encoders import (
    HashedTextEncoder,
    MultiVectorQueryEncoder,
    normalize,
    tokenize,
)
from dynarag.config import RerankConfig
from dynarag.reranker import ChunkCodeStore
from dynarag.search import WebDoc, WebSearchIndex


def oracle_encode_tokens(tokens, dim=256):
    """The per-token loop the encoder used before its batched path: every
    embedding must keep these bits."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % dim
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[index] += sign
    norm = float(np.linalg.norm(vec))
    return vec if norm == 0.0 else vec / norm


def oracle_slot_counts(tokens, dim=256) -> dict[int, int]:
    """Each slot's signed token count from the same per-token loop, zeros
    left out."""
    counts: dict[int, int] = {}
    for token in tokens:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % dim
        counts[index] = counts.get(index, 0) + (1 if digest[4] & 1 else -1)
    return {index: count for index, count in counts.items() if count}


def oracle_multivector(question, image_embedding, n, dim=256):
    whole = oracle_encode_tokens(tokenize(question), dim)
    if image_embedding is not None:
        whole = normalize(whole + image_embedding)
    tokens = tokenize(question)
    groups = n - 1
    rows = [tokens[j::groups] for j in range(groups)] if groups else []
    return np.vstack([whole] + [oracle_encode_tokens(row, dim) for row in rows if row])


def random_token_lists(seed, count=60, max_len=80):
    rng = np.random.default_rng(seed)
    vocab = ["".join(rng.choice(list("abcdefghij0123456789"), size=int(rng.integers(1, 9))))
             for _ in range(300)]
    return [list(rng.choice(vocab, size=int(rng.integers(0, max_len))))
            for _ in range(count)]


def embed_all(encoder, token_lists):
    parts = [encoder.row_codes([tokens])[0] for tokens in token_lists]
    return encoder.embed(np.concatenate(parts), [len(p) for p in parts])


def assert_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 7, 256, 16384, 40000])
def test_every_path_matches_the_per_token_oracle_bit_for_bit(dim):
    encoder = HashedTextEncoder(dim)
    token_lists = random_token_lists(seed=dim)
    batched = embed_all(encoder, token_lists)
    for row, tokens in zip(batched, token_lists):
        want = oracle_encode_tokens(tokens, dim)
        assert_bits(encoder.encode_tokens(tokens), want)
        assert_bits(encoder.encode(" ".join(tokens)), want)
        assert_bits(row, want)


@pytest.mark.parametrize("text", ["", "???", "東京タワー", "--- ..."])
def test_text_without_tokens_is_the_zero_vector_on_every_path(text):
    encoder = HashedTextEncoder()
    zero = oracle_encode_tokens([])
    assert tokenize(text) == []
    assert_bits(encoder.encode(text), zero)
    assert_bits(encoder.encode_tokens([]), zero)
    codes = encoder.row_codes([tokenize(text)])[0]
    assert_bits(encoder.embed(codes, [0])[0], zero)


def test_rows_without_codes_are_zero_between_rows_with_codes():
    encoder = HashedTextEncoder()
    token_lists = [[], ["alpha", "beta"], [], ["gamma"], []]
    batched = embed_all(encoder, token_lists)
    for row, tokens in zip(batched, token_lists):
        assert_bits(row, oracle_encode_tokens(tokens))


def test_all_rows_empty_is_float_zero_not_an_integer_bincount():
    encoder = HashedTextEncoder()
    codes = np.zeros(0, dtype=encoder.code_dtype)
    assert_bits(encoder.embed(codes, [0, 0, 0]), np.zeros((3, 256)))
    counts, squares = encoder.count_rows(codes, [0, 0, 0])
    assert_bits(counts, np.zeros((3, 256)))
    assert_bits(squares, np.zeros(3))


def cancelling_pair(encoder) -> list[str]:
    """Two tokens in one slot with opposite signs."""
    dim, seen = encoder.dim, {}
    for i in itertools.count():
        token = f"t{i}"
        [code] = encoder.row_codes([[token]])[0].tolist()
        partner = seen.get((code + dim) % (2 * dim))
        if partner is not None:
            return [partner, token]
        seen[code] = token


def test_tokens_that_cancel_in_one_slot_give_the_zero_vector():
    dim = 8
    encoder = HashedTextEncoder(dim)
    tokens = cancelling_pair(encoder)
    zero = oracle_encode_tokens(tokens, dim)
    assert not zero.any()
    assert_bits(encoder.encode_tokens(tokens), zero)
    assert_bits(embed_all(encoder, [tokens, ["x"]])[0], zero)


def test_one_token_repeated_300_times_is_a_signed_unit_axis():
    encoder = HashedTextEncoder()
    tokens = ["coffee"] * 300
    want = oracle_encode_tokens(tokens)
    assert np.count_nonzero(want) == 1 and abs(want.sum()) == 1.0
    assert_bits(encoder.encode_tokens(tokens), want)
    assert_bits(embed_all(encoder, [tokens, ["tea"] * 7])[0], want)


@pytest.mark.parametrize("dim, dtype", [(1, np.uint8), (128, np.uint8),
                                        (256, np.uint16), (16384, np.uint16),
                                        (32768, np.uint16), (32769, np.uint32)])
def test_code_dtype_holds_every_code_of_its_dim(dim, dtype):
    encoder = HashedTextEncoder(dim)
    assert encoder.code_dtype == dtype
    assert np.iinfo(encoder.code_dtype).max >= 2 * dim - 1
    tokens = [f"w{i}" for i in range(2000)]
    codes = encoder.row_codes([tokens])[0]
    expected = []
    for token in tokens:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        slot = int.from_bytes(digest[:4], "big") % dim
        expected.append(slot if digest[4] & 1 else slot + dim)
    assert codes.tolist() == expected


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_multivector_matches_the_per_group_oracle_bit_for_bit(n):
    encoder = MultiVectorQueryEncoder()
    image = oracle_encode_tokens(["storefront", "image"])
    for question in ["", "hi", "who founded this cafe in oakland",
                     "What's the price of the Alessi 9093 kettle in this shop?"]:
        for embedding in (None, image):
            assert_bits(encoder.encode(question, embedding, n),
                        oracle_multivector(question, embedding, n))


def postings_by_doc(index) -> list[dict[int, int]]:
    """Each doc's ``{slot: count}`` read back from the index's postings,
    after checking that every slot lists its docs ascending, each once."""
    got = [{} for _ in index._docs]
    for slot in range(index.encoder.dim):
        lo, hi = index._indptr[slot], index._indptr[slot + 1]
        ids = index._ids[lo:hi].tolist()
        assert ids == sorted(set(ids))
        for i, count in zip(ids, index._counts[lo:hi].tolist()):
            got[i][slot] = count
    return got


def test_web_index_postings_match_the_per_token_oracle_bit_for_bit():
    docs = [WebDoc(url=f"https://d/{i}", title=f"Doc {i}" if i % 7 else "",
                   snippet=" ".join(tokens) or "???",
                   is_hard_negative=bool(i % 4 == 0))
            for i, tokens in enumerate(random_token_lists(seed=3, count=40))]
    index = WebSearchIndex(HashedTextEncoder(), hard_negative_rate=0.5).build(docs)
    ordered = sorted(docs, key=lambda d: d.url)
    want = [oracle_slot_counts(tokenize(f"{d.title} {d.snippet}")) for d in ordered]
    assert index._docs == ordered
    assert index._is_hard_negative.tolist() == [d.is_hard_negative for d in ordered]
    assert 0 < sum(index._is_hard_negative) < len(docs)
    assert index._ids.dtype == np.int32 and index._counts.dtype == np.int16
    assert index._indptr[0] == 0 and index._indptr[-1] == len(index._ids)
    assert postings_by_doc(index) == want
    nn = np.array([float(sum(c * c for c in counts.values()) or 1) for counts in want])
    assert_bits(index._nn, nn)
    # A snippet without a token gives a doc with no postings and nn 1.
    assert any(not counts for counts in want)


def oracle_code(token, dim=256) -> int:
    """A token's code from its own sha1: the slot, plus ``dim`` for sign -1."""
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    slot = int.from_bytes(digest[:4], "big") % dim
    return slot if digest[4] & 1 else slot + dim


@pytest.mark.parametrize("dim", [1, 7, 256, 40000])
def test_row_codes_match_the_per_token_oracle_row_by_row(dim):
    encoder = HashedTextEncoder(dim)
    middle = random_token_lists(seed=dim)
    token_lists = [[]] + middle[:30] + [[]] + middle[30:] + [["solo"], []]
    codes, lengths = encoder.row_codes(iter(token_lists))
    assert codes.dtype == encoder.code_dtype
    assert lengths.tolist() == [len(tokens) for tokens in token_lists]
    assert codes.tolist() == [oracle_code(t, dim) for tokens in token_lists for t in tokens]
    for tokens in token_lists:
        assert encoder.row_codes([tokens])[0].tolist() == [oracle_code(t, dim) for t in tokens]


@pytest.mark.parametrize("rows", [[], iter(()), [[]], [[], []]])
def test_row_codes_without_tokens_are_empty_code_arrays(rows):
    encoder = HashedTextEncoder()
    codes, lengths = encoder.row_codes(rows)
    assert codes.dtype == encoder.code_dtype and codes.shape == (0,)
    assert lengths.tolist() == [0] * len(lengths)


@pytest.mark.parametrize("dim", [1, 7, 256, 40000])
def test_count_rows_match_the_per_token_oracle_bit_for_bit(dim):
    encoder = HashedTextEncoder(dim)
    middle = random_token_lists(seed=dim)
    pair = cancelling_pair(encoder)
    token_lists = ([[]] + middle[:30] + [[], pair] + middle[30:]
                   + [[], pair + ["solo"], []])
    counts, squares = encoder.count_rows(*encoder.row_codes(token_lists))
    assert counts.shape == (len(token_lists), dim) and squares.shape == (len(token_lists),)
    for row, square, tokens in zip(counts, squares, token_lists):
        want = np.zeros(dim)
        for slot, count in oracle_slot_counts(tokens, dim).items():
            want[slot] = count
        assert_bits(row, want)
        assert_bits(square, np.float64(sum(c * c for c in want.tolist())))
    assert not counts[token_lists.index(pair)].any()


def count_sha1_inputs(monkeypatch) -> Counter:
    """Every input hashed through the encoder's own ``sha1`` binding from now
    on, counted."""
    seen: Counter = Counter()
    real = encoders.sha1

    def counting(data=b"", *args, **kwargs):
        seen[data] += 1
        return real(data, *args, **kwargs)

    monkeypatch.setattr(encoders, "sha1", counting)
    return seen


def corpus(seed=3, count=80):
    return [WebDoc(url=f"https://d/{i:03d}", title=f"Doc {i % 5}",
                   snippet=" ".join(tokens) or "???", is_hard_negative=i % 3 == 0)
            for i, tokens in enumerate(random_token_lists(seed=seed, count=count))]


def test_web_index_build_hashes_each_distinct_token_once_per_build(monkeypatch):
    docs = corpus()
    encoder = HashedTextEncoder()
    seen = count_sha1_inputs(monkeypatch)
    WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
    want = Counter({token.encode("utf-8"): 1 for d in docs
                    for token in tokenize(f"{d.title} {d.snippet}")})
    # "doc" is in positives and hard negatives alike, and is hashed once.
    assert {d.is_hard_negative for d in docs if "doc" in tokenize(d.title)} == {False, True}
    assert seen == want
    assert sum(seen.values()) < sum(len(tokenize(f"{d.title} {d.snippet}")) for d in docs) / 5


def encoder_state(encoder) -> dict:
    return {name: value.tobytes() if isinstance(value, np.ndarray) else copy.deepcopy(value)
            for name, value in vars(encoder).items()}


def test_building_and_chunking_leave_no_state_on_the_encoder():
    # A memo kept on the encoder would grow with the corpus and make a second
    # build on the same encoder look free.
    docs = corpus()
    encoder = HashedTextEncoder()
    before = encoder_state(encoder)
    first = WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
    store, config = ChunkCodeStore(encoder), RerankConfig(max_chunk_chars=40, chunk_overlap=8)
    hits = first.search("doc 1 " + docs[1].snippet, 10)
    assert len(hits) == 10
    for hit in hits:
        store.chunked(hit, config)
    assert encoder_state(encoder) == before
    second = WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
    assert first._indptr == second._indptr
    for name in ("_ids", "_counts", "_nn", "_is_hard_negative"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


@pytest.mark.parametrize("dim", [1, 7, 40000])
def test_postings_at_any_dim_match_the_per_token_oracle(dim):
    # dim 1 and 7 cancel many counts to zero; 40000 codes need uint32.
    docs = corpus(seed=dim, count=30) + [
        WebDoc(url="https://d/empty", title="", snippet="???"),
        WebDoc(url="https://d/twice", title="", snippet="a a b b a")]
    index = WebSearchIndex(HashedTextEncoder(dim)).build(docs)
    want = [oracle_slot_counts(tokenize(f"{d.title} {d.snippet}"), dim) for d in index._docs]
    assert postings_by_doc(index) == want
    assert index._nn.tolist() == [float(sum(c * c for c in w.values()) or 1) for w in want]
    empty = WebSearchIndex(HashedTextEncoder(dim))
    assert empty._indptr == [0] * (dim + 1)
    assert len(empty._ids) == len(empty._nn) == len(empty._is_hard_negative) == 0


def block_corpus(dim) -> list[WebDoc]:
    """``corpus()`` at ``dim``, where dims 1 and 7 cancel many counts to zero,
    plus a doc without tokens and one whose tokens repeat; hard negatives
    (every third doc) fall on both sides of block edges."""
    return corpus(seed=3 if dim == 256 else dim) + [
        WebDoc(url="https://d/empty", title="", snippet="???"),
        WebDoc(url="https://d/twice", title="", snippet="a a b b a", is_hard_negative=True)]


@pytest.mark.parametrize("dim", [1, 7, 256, 40000])
def test_the_block_build_matches_the_oracle_across_block_edges(monkeypatch, dim):
    docs = block_corpus(dim)
    encoder = HashedTextEncoder(dim)
    if dim == 40000:
        assert encoder.code_dtype.char == "I"  # uint32 codes in the typed buffer
    monkeypatch.setattr(search, "BUILD_BLOCK_DOCS", len(docs))
    whole = WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
    want = [oracle_slot_counts(tokenize(f"{d.title} {d.snippet}"), dim) for d in whole._docs]
    nn = np.array([float(sum(c * c for c in w.values()) or 1) for w in want])
    hard = whole._is_hard_negative.tolist()
    for block in (1, 2, 3, 7, len(docs), len(docs) + 5):
        monkeypatch.setattr(search, "BUILD_BLOCK_DOCS", block)
        index = WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
        edges = range(block, len(docs), block)
        assert block >= len(docs) or any(hard[e - 1] != hard[e] for e in edges)
        assert postings_by_doc(index) == want, block
        assert_bits(index._nn, nn)
        assert index._indptr == whole._indptr and index._max_nq == whole._max_nq
        for name in ("_ids", "_counts", "_is_hard_negative"):
            got, full = getattr(index, name), getattr(whole, name)
            assert got.dtype == full.dtype and got.tobytes() == full.tobytes(), (block, name)
    assert not want[[d.url for d in whole._docs].index("https://d/empty")]


def test_the_web_build_holds_no_whole_corpus_temporary():
    # 20,000 docs of 30 tokens from 300 words: the hash memo is tiny, so the
    # build's transient is its own arrays. A one-pass sort of every code held
    # an int64 order, repeated ids, a run mask and float64 squares of the
    # whole corpus: about 8 times the kept postings.
    rng = np.random.default_rng(5)
    vocab = [f"word{i}" for i in range(300)]
    docs = [WebDoc(url=f"https://d/{i:05d}", title="",
                   snippet=" ".join(vocab[j] for j in row), is_hard_negative=i % 10 == 0)
            for i, row in enumerate(rng.integers(0, len(vocab), size=(20_000, 30)).tolist())]
    encoder = HashedTextEncoder()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = WebSearchIndex(encoder, hard_negative_rate=0.1).build(docs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index._ids) > 400_000
    # Measured: 4.0 MB transient for 3.5 MB kept (28.1 MB before blocks).
    assert peak - kept < 2 * (kept - before)


def run_python(code: str) -> str:
    src = str(Path(encoders.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip()


def test_the_pipeline_hashes_without_loading_openssl():
    # hashlib's OpenSSL binding maps libcrypto, ~3.5 MB of resident memory.
    assert run_python("import sys, dynarag.pipeline\n"
                      "print('_hashlib' in sys.modules)") == "False"


def test_without_the_builtin_sha1_module_row_codes_hash_through_hashlib():
    tokens = [str(t) for row in random_token_lists(seed=11, count=2) for t in row] + ["東京"]
    code = ("import sys, json\n"
            "sys.modules['_sha1'] = None\n"
            "import hashlib\n"
            "from dynarag import encoders\n"
            "assert encoders.sha1 is hashlib.sha1\n"
            f"codes, lengths = encoders.HashedTextEncoder().row_codes([{tokens!r}, []])\n"
            "print(json.dumps([codes.dtype.str, codes.tolist(), lengths.tolist()]))")
    dtype, codes, lengths = json.loads(run_python(code))
    here = HashedTextEncoder().row_codes([tokens, []])
    assert dtype == here[0].dtype.str and codes == here[0].tolist()
    assert codes == [oracle_code(t) for t in tokens] and lengths == [len(tokens), 0]


def test_tokenize_lowercases_and_keeps_apostrophes():
    assert tokenize("What's the Price, of THIS?") == ["what's", "the", "price", "of", "this"]


def test_encoding_is_deterministic():
    enc = HashedTextEncoder()
    a = enc.encode("red sports car")
    b = enc.encode("red sports car")
    assert np.array_equal(a, b)


def test_encoding_is_unit_norm():
    enc = HashedTextEncoder()
    vec = enc.encode("the quick brown fox")
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_empty_text_encodes_to_zero_vector():
    enc = HashedTextEncoder()
    assert np.linalg.norm(enc.encode("")) == 0.0


def test_identical_texts_have_cosine_one():
    enc = HashedTextEncoder()
    a = enc.encode("blue bottle coffee history")
    b = enc.encode("blue bottle coffee history")
    assert abs(float(np.dot(a, b)) - 1.0) < 1e-9


def test_dimension_configurable():
    assert HashedTextEncoder(dim=32).encode("hello").shape == (32,)
    with pytest.raises(ValueError):
        HashedTextEncoder(dim=0)


def test_multivector_shape_and_unit_rows():
    enc = MultiVectorQueryEncoder()
    for n in (1, 3, 8, 16):
        vectors = enc.encode("who founded this cafe in oakland", None, n)  # 6 tokens
        assert vectors.shape == (1 + min(n - 1, 6), 256)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_multivector_returns_one_row_per_non_empty_group():
    enc = MultiVectorQueryEncoder()
    vectors = enc.encode("hi", None, 8)  # 1 token, 7 groups: one is not empty
    whole = HashedTextEncoder().encode("hi")
    # row 0 is the whole question, row 1 its one non-empty group
    assert vectors.shape == (2, 256)
    assert np.array_equal(vectors[0], whole)
    assert np.array_equal(vectors[1], whole)
    assert enc.encode("", None, 8).shape == (1, 256)


def test_multivector_blends_image_embedding_into_first_slot():
    enc = MultiVectorQueryEncoder()
    image = HashedTextEncoder().encode("storefront image")
    with_img = enc.encode("who founded this cafe", image, 4)
    without = enc.encode("who founded this cafe", None, 4)
    assert not np.array_equal(with_img[0], without[0])
    # token-group slots are unaffected by the image
    assert np.array_equal(with_img[1], without[1])


def test_multivector_rejects_an_image_of_another_dimension():
    # A skipped blend would leave slot 0 the plain question vector while the
    # coarse stage scores it as blended.
    image = HashedTextEncoder(128).encode("storefront image")
    with pytest.raises(ValueError, match=r"shape \(128,\), not the encoder's \(256,\)"):
        MultiVectorQueryEncoder().encode("who founded this cafe", image, 4)


def test_multivector_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        MultiVectorQueryEncoder().encode("q", None, 0)
