import copy
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from dynarag.encoders import (
    HashedTextEncoder,
    MultiVectorQueryEncoder,
    normalize,
    tokenize,
)
from dynarag.config import RerankConfig
from dynarag.reranker import ChunkCodeStore
from dynarag.search import SlotPostings, WebDoc, WebSearchIndex


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
    if image_embedding is not None and image_embedding.shape == whole.shape:
        whole = normalize(whole + image_embedding)
    vectors = np.tile(whole, (n, 1))
    tokens = tokenize(question)
    groups = n - 1
    if groups > 0 and tokens:
        for j in range(groups):
            if tokens[j::groups]:
                vectors[j + 1] = oracle_encode_tokens(tokens[j::groups], dim)
    return vectors


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


def test_web_index_postings_match_the_per_token_oracle_bit_for_bit():
    docs = [WebDoc(url=f"https://d/{i}", title=f"Doc {i}" if i % 7 else "",
                   snippet=" ".join(tokens) or "???",
                   is_hard_negative=bool(i % 4 == 0))
            for i, tokens in enumerate(random_token_lists(seed=3, count=40))]
    index = WebSearchIndex(HashedTextEncoder(), hard_negative_rate=0.5).build(docs)
    for postings, hard in ((index._positives, False), (index._negatives, True)):
        part = sorted((d for d in docs if d.is_hard_negative == hard), key=lambda d: d.url)
        want = [oracle_slot_counts(tokenize(f"{d.title} {d.snippet}")) for d in part]
        assert postings.docs == part
        assert postings.ids.dtype == np.int32 and postings.counts.dtype == np.int16
        assert postings.indptr[0] == 0 and postings.indptr[-1] == len(postings.ids)
        got = [{} for _ in part]
        for slot in range(256):
            lo, hi = postings.indptr[slot], postings.indptr[slot + 1]
            ids = postings.ids[lo:hi].tolist()
            assert ids == sorted(set(ids))
            for i, count in zip(ids, postings.counts[lo:hi].tolist()):
                got[i][slot] = count
        assert got == want
        nn = np.array([float(sum(c * c for c in counts.values()) or 1) for counts in want])
        assert_bits(postings.nn, nn)
    # A snippet without a token gives a doc with no postings and nn 1.
    assert any(not counts for counts in
               (oracle_slot_counts(tokenize(f"{d.title} {d.snippet}")) for d in docs))


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
    """Every input hashed through ``hashlib.sha1`` from now on, counted."""
    seen: Counter = Counter()
    real = hashlib.sha1

    def counting(data=b"", *args, **kwargs):
        seen[data] += 1
        return real(data, *args, **kwargs)

    monkeypatch.setattr(hashlib, "sha1", counting)
    return seen


def corpus(seed=3, count=80):
    return [WebDoc(url=f"https://d/{i:03d}", title=f"Doc {i % 5}",
                   snippet=" ".join(tokens) or "???", is_hard_negative=i % 3 == 0)
            for i, tokens in enumerate(random_token_lists(seed=seed, count=count))]


def test_web_index_build_hashes_each_distinct_token_once_per_partition(monkeypatch):
    docs = corpus()
    encoder = HashedTextEncoder()
    seen = count_sha1_inputs(monkeypatch)
    WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
    want: Counter = Counter()
    for hard in (False, True):
        want.update({token.encode("utf-8"): 1 for d in docs if d.is_hard_negative == hard
                     for token in tokenize(f"{d.title} {d.snippet}")})
    assert max(want.values()) == 2  # "doc" is in both partitions
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
    for a, b in ((first._positives, second._positives), (first._negatives, second._negatives)):
        assert a.indptr == b.indptr
        for name in ("ids", "counts", "nn"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("dim", [1, 7, 40000])
def test_postings_at_any_dim_match_the_per_token_oracle(dim):
    # dim 1 and 7 cancel many counts to zero; 40000 codes need uint32.
    docs = corpus(seed=dim, count=30) + [
        WebDoc(url="https://d/empty", title="", snippet="???"),
        WebDoc(url="https://d/twice", title="", snippet="a a b b a")]
    postings = SlotPostings.build(sorted(docs, key=lambda d: d.url), HashedTextEncoder(dim))
    want = [oracle_slot_counts(tokenize(f"{d.title} {d.snippet}"), dim) for d in postings.docs]
    got = [{} for _ in postings.docs]
    for slot in range(dim):
        lo, hi = postings.indptr[slot], postings.indptr[slot + 1]
        ids = postings.ids[lo:hi].tolist()
        assert ids == sorted(set(ids))
        for i, count in zip(ids, postings.counts[lo:hi].tolist()):
            got[i][slot] = count
    assert got == want
    assert postings.nn.tolist() == [float(sum(c * c for c in w.values()) or 1) for w in want]
    empty = SlotPostings.build([], HashedTextEncoder(dim))
    assert empty.indptr == [0] * (dim + 1) and len(empty.ids) == len(empty.nn) == 0


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
        vectors = enc.encode("who founded this cafe in oakland", None, n)
        assert vectors.shape == (n, 256)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_multivector_empty_slots_fall_back_to_whole_question():
    enc = MultiVectorQueryEncoder()
    vectors = enc.encode("hi", None, 8)  # 1 token, 7 groups: most are empty
    whole = HashedTextEncoder().encode("hi")
    # slot 0 is the whole question; empty group slots must equal it too
    assert np.array_equal(vectors[0], whole)
    assert np.array_equal(vectors[2], whole)


def test_multivector_blends_image_embedding_into_first_slot():
    enc = MultiVectorQueryEncoder()
    image = HashedTextEncoder().encode("storefront image")
    with_img = enc.encode("who founded this cafe", image, 4)
    without = enc.encode("who founded this cafe", None, 4)
    assert not np.array_equal(with_img[0], without[0])
    # token-group slots are unaffected by the image
    assert np.array_equal(with_img[1], without[1])


def test_multivector_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        MultiVectorQueryEncoder().encode("q", None, 0)
