"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dynarag.config import RerankConfig, VerifierConfig
from dynarag.encoders import HashedTextEncoder, MultiVectorQueryEncoder, tokenize
from dynarag.evalharness import build_report, score_accuracy, score_overlap
from dynarag.fixtures import EVAL_ROWS, build_world_runtime
from dynarag.orchestrator import QueryTurn, trace_to_dict
from dynarag.postanswer import (
    FALLBACK_ANSWER,
    TokenStats,
    Verdict,
    finalize,
    white_box_verify,
)
from dynarag.preanswer import parse_trace
from dynarag.reranker import (
    ChunkCodeStore,
    Evidence,
    assemble_context,
    coarse_score,
    fine_score,
)
from dynarag.routing import Branch, route_search, route_tools
from dynarag.search import ImageKgIndex, KgEntry, Source, WebDoc, WebSearchIndex
from dynarag.timing import SimulatedClock

from cases import ROUTING_CASES, TOOL_CASES

TEXT_ENC = HashedTextEncoder()
QUERY_ENC = MultiVectorQueryEncoder(TEXT_ENC)
ROUTING_CFG = build_world_runtime().config.routing

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _token_overlap(question: str, text: str) -> float:
    q = set(tokenize(question))
    if not q:
        return 0.0
    return len(q & set(tokenize(text))) / len(q)


def _oracle_coarse_scores(question, chunks, n_query_tokens):
    """Exhaustive max-over-query-vectors cosine, python loops only."""
    qvecs = QUERY_ENC.encode(question, None, n_query_tokens)
    out = []
    for c in chunks:
        emb = TEXT_ENC.encode(c.text)
        best = max(
            math.fsum(float(a) * float(b) for a, b in zip(qv, emb)) for qv in qvecs
        )
        out.append(best)
    return out


def _oracle_cascade(question, chunks, cfg):
    """Independent reference applying the same top-K/threshold algebra to
    exhaustively computed scores."""
    coarse = _oracle_coarse_scores(question, chunks, cfg.n_query_tokens)
    survivors = [(c, s) for c, s in zip(chunks, coarse) if s >= cfg.tau_coarse]
    survivors.sort(key=lambda p: -p[1])
    survivors = survivors[: cfg.k1]

    scored = [
        (c, s, _clamp01(s) * _token_overlap(question, c.text))
        for c, s in survivors
    ]
    scored.sort(key=lambda t: -t[2])
    bar = cfg.tau_fine * cfg.tau_coarse
    selected = [(c, s, cum) for c, s, cum in scored[: cfg.k2] if cum > bar]

    source_rank = {Source.WEB: 0, Source.IMAGE_KG: 1}
    selected.sort(key=lambda t: (-t[2], source_rank[t[0].source], t[0].position))
    return selected


def _random_evidence(rng, max_chunks=100) -> Evidence:
    """1..max_chunks random chunks in docs of 1-4 chunks, each doc built by the
    store's per-doc constructor: docs share positions, so equal cumulative
    scores fall back on the source and position tie-break."""
    vocab = [f"tok{j}" for j in range(60)]
    left = int(rng.integers(1, max_chunks + 1))
    store = ChunkCodeStore(TEXT_ENC)
    docs = []
    while left:
        size = min(left, int(rng.integers(1, 5)))
        left -= size
        source = Source.WEB if rng.random() < 0.6 else Source.IMAGE_KG
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(3, 25))))
                 for _ in range(size)]
        url = f"https://r/{len(docs)}"
        docs.append((source, url, store.build(WebDoc(url, "", ""), texts)))
    return Evidence(docs, TEXT_ENC)


def test_criterion_1_reranker_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for trial in range(200):
        evidence = _random_evidence(rng)
        k1 = int(rng.integers(5, 31))
        cfg = RerankConfig(
            k1=k1,
            k2=int(rng.integers(1, k1 + 1)),
            tau_coarse=round(float(rng.uniform(0.0, 0.4)), 3),
            tau_fine=round(float(rng.uniform(0.0, 0.6)), 3),
            n_query_tokens=int(rng.integers(1, 17)),
        )
        question = " ".join(rng.choice([f"tok{j}" for j in range(60)], size=6))

        survivors = coarse_score(question, None, evidence, cfg, QUERY_ENC)
        selected = fine_score(question, survivors, "", cfg)
        context = assemble_context(selected)

        expected = _oracle_cascade(question, list(evidence), cfg)
        got_ids = [c.chunk_id for c, _ in context.chunks]
        want_ids = [c.chunk_id for c, _, _ in expected]
        assert got_ids == want_ids, f"trial {trial}: {got_ids} != {want_ids}"
        for (_, score), (_, coarse, cum) in zip(context.chunks, expected):
            assert abs(score.coarse - coarse) < 1e-9
            assert abs(score.cumulative - cum) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"cascade equivalence took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS - 200 corpora cascade == oracle in {elapsed:.2f}s")


def test_criterion_2_coarse_scores_match_double_loop():
    rng = np.random.default_rng(7)
    vocab = [f"tok{j}" for j in range(60)]
    for n_q in range(1, 17):
        evidence = _random_evidence(rng, max_chunks=40)
        chunks = list(evidence)
        question = " ".join(rng.choice(vocab, size=8))
        cfg = RerankConfig(k1=100, k2=1, tau_coarse=0.0, tau_fine=0.0,
                           n_query_tokens=n_q)
        got = coarse_score(question, None, evidence, cfg, QUERY_ENC)
        oracle = dict(zip(
            [c.chunk_id for c in chunks],
            _oracle_coarse_scores(question, chunks, n_q),
        ))
        for chunk, score in got:
            assert abs(score - oracle[chunk.chunk_id]) < 1e-9
    print("ACCEPTANCE 2 PASS - coarse max-cosine matches the double loop for N_q 1..16")


def test_criterion_3_routing_table_fidelity():
    exemplars = ROUTING_CASES[:3]
    expected_branches = [Branch.DIRECT_OUTPUT, Branch.SEARCH_VERIFY, Branch.RAG_AUGMENT]
    for (name, text, _), want in zip(exemplars, expected_branches):
        got = route_search(parse_trace(text, ROUTING_CFG)).branch
        assert got is want, f"{name}: {got} != {want}"

    assert len(ROUTING_CASES) >= 30
    hits = 0
    for name, text, expected in ROUTING_CASES:
        decision = route_search(parse_trace(text, ROUTING_CFG))
        assert decision.branch.value == expected, f"{name} routed to {decision.branch}"
        hits += 1
    print(f"ACCEPTANCE 3 PASS - {hits}/{len(ROUTING_CASES)} routing cases, "
          "incl. the three exemplar queries")


def test_criterion_4_tool_router_rules():
    assert len(TOOL_CASES) >= 20
    for name, query, text, img, txt in TOOL_CASES:
        decision = route_tools(query, parse_trace(text, ROUTING_CFG), "img", ROUTING_CFG)
        assert (decision.need_image_search, decision.need_text_search) == (img, txt), name

    # the four rule families are all represented
    names = [name for name, *_ in TOOL_CASES]
    assert any("unknown" in n for n in names)          # rule 1
    assert any(n == "known-visible-color" for n in names)  # rule 2
    assert any("translate" in n or "math" in n for n in names)  # rule 3
    assert any("book" in n or "plant" in n or "packaged" in n for n in names)  # rule 4
    print(f"ACCEPTANCE 4 PASS - {len(TOOL_CASES)}/20 tool-router cases, all four rules")


def test_criterion_5_verifier_algebra():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        probs = rng.uniform(1e-9, 1.0, size=int(rng.integers(1, 60))).tolist()
        stats = TokenStats.from_probs(probs)
        assert stats.s_min == min(probs)
        assert stats.s_mean == sum(probs) / len(probs)

    cfg = VerifierConfig(w_min=0.5, w_mean=0.5, tau_white=0.75)
    for _ in range(200):
        probs = rng.uniform(1e-9, 1.0, size=int(rng.integers(1, 30))).tolist()
        stats = TokenStats.from_probs(probs)
        passed = white_box_verify(stats, cfg)
        assert passed == (
            cfg.w_min * stats.s_min + cfg.w_mean * stats.s_mean >= cfg.tau_white
        )
        for verdict in (Verdict.CORRECT, Verdict.INCORRECT):
            out = finalize("r", "a", stats, passed, verdict)
            assert (not out.fallback) == (passed and verdict is Verdict.CORRECT)

    stats = TokenStats(0.9, 0.95, 3)
    outcomes = {}
    for passed, verdict in itertools.product((True, False),
                                             (Verdict.CORRECT, Verdict.INCORRECT)):
        out = finalize("r", "a", stats, passed, verdict)
        outcomes[(passed, verdict)] = not out.fallback
    assert outcomes == {
        (True, Verdict.CORRECT): True,
        (True, Verdict.INCORRECT): False,
        (False, Verdict.CORRECT): False,
        (False, Verdict.INCORRECT): False,
    }
    print("ACCEPTANCE 5 PASS - 1000 sequences exact; acceptance is the conjunction")


def test_criterion_6_deadline_safety():
    runtime = build_world_runtime()
    turn = QueryTurn("deadline-q1", 0, "Who founded this cafe?", "img-cafe", 10.0)
    for rep in range(100):
        orchestrator = runtime.orchestrator(clock=SimulatedClock())
        wall_start = time.perf_counter()
        results = list(orchestrator.run_session([turn]))
        wall = time.perf_counter() - wall_start
        answer, trace = results[0]
        assert answer == FALLBACK_ANSWER, f"rep {rep}"
        assert trace.answer.fallback, f"rep {rep}"
        assert trace.elapsed_s <= 10.0 + 1e-9, f"rep {rep}: {trace.elapsed_s}"
        assert wall < 10.2, f"rep {rep}: {wall}"
    print("ACCEPTANCE 6 PASS - 100/100 reps fell back within the 10.2s bound "
          "(20s stage against a 10s deadline)")


def test_criterion_7_golden_traces():
    started = time.perf_counter()
    runtime = build_world_runtime()
    golden = json.loads(GOLDEN_PATH.read_text())

    sessions: dict[str, list] = {}
    for sid, ti, q, img, truth, tax in EVAL_ROWS:
        sessions.setdefault(sid, []).append((ti, q, img))

    total_turns = 0
    branches_seen = set()
    session_lengths = []
    for sid in sorted(sessions):
        turns = [QueryTurn(sid, ti, q, img, 10.0)
                 for ti, q, img in sorted(sessions[sid])]
        run_a = list(runtime.orchestrator(clock=SimulatedClock()).run_session(turns))
        run_b = list(runtime.orchestrator(clock=SimulatedClock()).run_session(turns))

        for (ans_a, tr_a), (ans_b, tr_b), frozen in zip(run_a, run_b, golden[sid]):
            assert ans_a == ans_b  # byte-identical across runs
            assert tr_a.stages == tr_b.stages
            assert json.dumps(trace_to_dict(tr_a), sort_keys=True) == \
                   json.dumps(trace_to_dict(tr_b), sort_keys=True)
            assert ans_a == frozen["final_answer"], (sid, frozen["turn_index"])
            assert tr_a.stages == frozen["stages"], (sid, frozen["turn_index"])
            assert tr_a.route.branch.value == frozen["branch"]
            branches_seen.add(frozen["branch"])
            total_turns += 1
        session_lengths.append(len(turns))

    assert total_turns >= 20
    assert branches_seen == {"direct_output", "search_verify", "rag_augment"}
    assert max(session_lengths) == 3  # the multi-turn dialogue
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 7 PASS - {total_turns} golden turns byte-identical "
          f"in {elapsed:.2f}s")


def test_criterion_8_search_index_exactness():
    rng = np.random.default_rng(123)
    vocab = [f"tok{j}" for j in range(400)]

    # web: 990 positives + 10 hard negatives = 1000 docs
    docs = []
    for i in range(990):
        docs.append(WebDoc(
            url=f"https://w/{i:04d}", title=f"Title {i}",
            snippet=" ".join(rng.choice(vocab, size=10)),
        ))
    for i in range(10):
        docs.append(WebDoc(
            url=f"https://neg/{i:02d}", title="noise",
            snippet=" ".join(rng.choice(vocab, size=10)),
            is_hard_negative=True,
        ))
    encoder = HashedTextEncoder()
    index = WebSearchIndex(encoder).build(docs)
    query = "tok1 tok42 tok99 tok250 tok333"
    hits = index.search(query, 200)  # cap applies
    assert len(hits) == 50

    qvec = encoder.encode(query)
    scored = []
    for d in docs:
        if d.is_hard_negative:
            continue
        emb = encoder.encode(f"{d.title} {d.snippet}")
        scored.append((d.url, math.fsum(float(a) * float(b)
                                        for a, b in zip(qvec, emb))))
    scored.sort(key=lambda p: (-p[1], p[0]))
    for hit, (url, score) in zip(hits, scored[:50]):
        assert hit.url == url
        assert abs(hit.score - score) < 1e-9

    # interleave positions: one negative after every two positives
    noisy = WebSearchIndex(encoder, hard_negative_rate=0.5).build(docs)
    noisy_hits = noisy.search(query, 30)
    for position, hit in enumerate(noisy_hits, start=1):
        expected_negative = position % 3 == 0
        assert hit.payload.is_hard_negative == expected_negative, position

    # image KG over 1000 random unit vectors
    vecs = rng.normal(size=(1000, 64))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    entries = [
        KgEntry.from_dict({
            "entity_name": f"e{i}", "url": f"kg://{i:04d}",
            "image_embedding": vecs[i].tolist(), "attributes": {},
        })
        for i in range(1000)
    ]
    kg = ImageKgIndex().build(entries)
    qv = rng.normal(size=64)
    qv /= np.linalg.norm(qv)
    kg_hits = kg.search(qv, 50)
    kg_scored = sorted(
        ((e.url, math.fsum(float(a) * float(b) for a, b in zip(e.image_embedding, qv)))
         for e in entries),
        key=lambda p: (-p[1], p[0]),
    )
    for hit, (url, score) in zip(kg_hits, kg_scored[:50]):
        assert hit.url == url
        assert abs(hit.score - score) < 1e-9
    print("ACCEPTANCE 8 PASS - 1000-item web/KG scans exact, top-50 cap and "
          "interleave positions verified")


def test_criterion_9_metrics():
    assert score_overlap("a red car", "red sports car") == pytest.approx(2 / 3)
    assert score_overlap("same words", "same words") == 1.0
    assert score_overlap("nothing shared", "blue whale") == 0.0
    assert score_accuracy("It is a blue whale.", "blue whale") == 1
    assert score_accuracy(FALLBACK_ANSWER, "anything") == 0
    assert score_accuracy("BMW M3", "BMW M4") == 0

    rows = []
    rng = np.random.default_rng(4)
    for i in range(40):
        rows.append({
            "session_id": f"s{i}", "turn_index": 0, "question": "q",
            "final_answer": "a", "ground_truth": "a",
            "accuracy": int(rng.integers(0, 2)),
            "overlap": float(rng.uniform(0, 1)),
            "elapse": float(rng.uniform(0, 10)),
            "branch": rng.choice(["direct_output", "search_verify", "rag_augment"]),
            "fallback": False, "stages": [],
            "dynamism": rng.choice(["static", "slow"]),
            "category": "c", "domain": rng.choice(["food", "math"]),
        })
    report = build_report(rows)
    payload = json.loads(report.to_json())
    records = payload["records"]
    assert payload["accuracy"] == pytest.approx(
        100 * sum(r["accuracy"] for r in records) / len(records))
    assert payload["overlap"] == pytest.approx(
        100 * sum(r["overlap"] for r in records) / len(records))
    assert payload["elapse"] == pytest.approx(
        sum(r["elapse"] for r in records) / len(records))
    for axis in ("branch", "dynamism", "category", "domain"):
        assert sum(g["n"] for g in payload["per_taxonomy"][axis].values()) == 40
    print("ACCEPTANCE 9 PASS - metric fixtures exact; report recomputes from records")
