import itertools

import numpy as np
import pytest

from dynarag.config import VerifierConfig
from dynarag.errors import BackendTimeout
from dynarag.gateway import FixtureEntry, ModelGateway, ScriptedBackend
from dynarag.postanswer import (
    FALLBACK_ANSWER,
    PostAnswerModule,
    TokenStats,
    Verdict,
    finalize,
    parse_generation,
    parse_verdict,
    white_box_verify,
)
from dynarag.prompts import register_all
from dynarag.timing import SimulatedClock, TimeBudget


def make_module(entries) -> PostAnswerModule:
    gateway = ModelGateway(ScriptedBackend(entries))
    register_all(gateway)
    return PostAnswerModule(gateway, VerifierConfig())


# --- token statistics ---------------------------------------------------------


def test_stats_all_ones():
    stats = TokenStats.from_probs([1.0, 1.0, 1.0])
    assert stats.s_min == 1.0
    assert stats.s_mean == 1.0
    assert stats.count == 3


def test_stats_arithmetic():
    stats = TokenStats.from_probs([0.5, 1.0, 0.9])
    assert stats.s_min == 0.5
    assert stats.s_mean == pytest.approx(0.8)


def test_stats_empty_rejected():
    with pytest.raises(ValueError):
        TokenStats.from_probs([])


def test_stats_min_le_mean_over_random_sequences():
    rng = np.random.default_rng(0)
    for _ in range(200):
        probs = rng.uniform(1e-6, 1.0, size=int(rng.integers(1, 40))).tolist()
        stats = TokenStats.from_probs(probs)
        assert stats.s_min <= stats.s_mean <= 1.0
        if len(set(probs)) == 1:
            assert stats.s_min == stats.s_mean


# --- white-box verifier -----------------------------------------------------------


def test_white_box_pass_at_full_confidence():
    cfg = VerifierConfig(w_min=0.5, w_mean=0.5, tau_white=0.9)
    assert white_box_verify(TokenStats(1.0, 1.0, 3), cfg)


def test_white_box_rejects_midling_stats():
    cfg = VerifierConfig(w_min=0.5, w_mean=0.5, tau_white=0.9)
    # 0.5*0.5 + 0.5*0.8 = 0.65 < 0.9
    assert not white_box_verify(TokenStats(0.5, 0.8, 3), cfg)


def test_white_box_zero_threshold_always_passes():
    cfg = VerifierConfig(tau_white=0.0)
    assert white_box_verify(TokenStats(0.001, 0.001, 1), cfg)


def test_white_box_monotone_in_both_stats():
    cfg = VerifierConfig()
    rng = np.random.default_rng(1)
    for _ in range(200):
        a_min, a_mean = sorted(rng.uniform(0.01, 1.0, size=2))
        bump = float(rng.uniform(0, 1.0 - a_mean))
        lo = white_box_verify(TokenStats(a_min, a_mean, 2), cfg)
        hi = white_box_verify(TokenStats(min(a_min + bump, 1.0),
                                         min(a_mean + bump, 1.0), 2), cfg)
        assert hi or not lo  # passing can only improve as stats rise


# --- generation parsing --------------------------------------------------------------


def test_two_part_output_parses():
    reason, answer = parse_generation(
        "reason: The evidence names the founder.\nanswer: James Freeman founded it."
    )
    assert reason == "The evidence names the founder."
    assert answer == "James Freeman founded it."


def test_idk_reason_forces_idk_answer():
    reason, answer = parse_generation(
        "reason: I don't know.\nanswer: It was founded by a barista."
    )
    assert answer == FALLBACK_ANSWER


def test_unparseable_output_becomes_answer():
    reason, answer = parse_generation("just a blob of text")
    assert reason == ""
    assert answer == "just a blob of text"


# --- model verdict ---------------------------------------------------------------------


def test_correct_verdict_parses():
    assert parse_verdict(
        "**Reason:** Supported.\n**Response:** Correct Answer"
    ) is Verdict.CORRECT


def test_incorrect_verdict_parses():
    assert parse_verdict(
        "**Reason:** Contradicted.\n**Response:** Incorrect Answer"
    ) is Verdict.INCORRECT


def test_garbage_is_conservatively_incorrect():
    assert parse_verdict("whatever text") is Verdict.INCORRECT


# --- finalize ----------------------------------------------------------------------------


def test_finalize_truth_table():
    stats = TokenStats(0.9, 0.95, 4)
    for passed, verdict in itertools.product(
        (True, False), (Verdict.CORRECT, Verdict.INCORRECT)
    ):
        out = finalize("r", "the answer", stats, passed, verdict)
        accepted = passed and verdict is Verdict.CORRECT
        assert out.fallback == (not accepted)
        if accepted:
            assert out.final_answer == "the answer"
        else:
            assert out.final_answer == FALLBACK_ANSWER
        # invariant: fallback <=> not (pass and correct)
        assert out.fallback == (not (out.white_box_pass and
                                     out.model_verdict is Verdict.CORRECT))


# --- module round trips -------------------------------------------------------------------


def test_generate_answer_round_trip():
    module = make_module([FixtureEntry(
        "post_answer", "k",
        "reason: Evidence says so.\nanswer: The kettle costs $179.",
        (0.9, 0.8, 1.0), 0.0,
    )])
    reason, answer, stats = module.generate_answer("q", "img", "evidence", "k")
    assert answer == "The kettle costs $179."
    assert stats.s_min == pytest.approx(0.8)
    assert stats.s_mean == pytest.approx((0.9 + 0.8 + 1.0) / 3)


def test_model_verify_round_trip():
    module = make_module([FixtureEntry(
        "verifier", "k", "**Response:** Correct Answer", (1.0,), 0.0,
    )])
    assert module.model_verify("q", "img", "ctx", "ra", "k") is Verdict.CORRECT


def test_model_verify_missing_fixture_is_incorrect():
    module = make_module([])
    assert module.model_verify("q", "img", "ctx", "ra", "nope") is Verdict.INCORRECT


def test_model_verify_past_the_deadline_raises_timeout():
    module = make_module([FixtureEntry(
        "verifier", "k", "**Response:** Correct Answer", (1.0,), 20_000.0,
    )])
    budget = TimeBudget(SimulatedClock(), deadline_at=10.0)
    with pytest.raises(BackendTimeout):
        module.model_verify("q", "img", "ctx", "ra", "k", budget)
