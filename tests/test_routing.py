import itertools

from dynarag.config import RoutingConfig
from dynarag.preanswer import FeatureFlags, ReasoningTrace, parse_trace
from dynarag.routing import Branch, route_search, route_tools

from cases import ROUTING_CASES, TOOL_CASES, dcot, dcot_idk

ROUTING = RoutingConfig()


def trace_from(text: str) -> ReasoningTrace:
    return parse_trace(text, ROUTING)


def flags_trace(**kwargs) -> ReasoningTrace:
    return ReasoningTrace(
        steps=["synthetic"], draft_answer="synthetic",
        flags=FeatureFlags(**kwargs), raw_text="synthetic",
    )


# --- the published exemplar rows ---------------------------------------------------


def test_exemplar_umbrella_routes_direct():
    decision = route_search(trace_from(ROUTING_CASES[0][1]))
    assert decision.branch is Branch.DIRECT_OUTPUT


def test_exemplar_car_routes_verify():
    decision = route_search(trace_from(ROUTING_CASES[1][1]))
    assert decision.branch is Branch.SEARCH_VERIFY


def test_exemplar_cafe_routes_rag():
    decision = route_search(trace_from(ROUTING_CASES[2][1]))
    assert decision.branch is Branch.RAG_AUGMENT


def test_full_routing_case_table():
    for name, text, expected in ROUTING_CASES:
        decision = route_search(trace_from(text))
        assert decision.branch.value == expected, (
            f"{name}: got {decision.branch.value}, expected {expected}"
        )


# --- cascade invariants -----------------------------------------------------------


def all_flag_combinations():
    names = ("has_idk", "is_numeric_answer", "is_ocr_answer",
             "is_named_object", "speculative", "open_world_cue")
    for values in itertools.product((False, True), repeat=len(names)):
        yield FeatureFlags(**dict(zip(names, values)))


def test_router_is_total_and_pure():
    for flags in all_flag_combinations():
        trace = flags_trace()
        trace = ReasoningTrace(trace.steps, trace.draft_answer, flags, "t")
        first = route_search(trace)
        second = route_search(trace)
        assert first == second
        assert first.branch in Branch


def test_has_idk_always_rags():
    for flags in all_flag_combinations():
        if not flags.has_idk:
            continue
        trace = ReasoningTrace(["s"], "a", flags, "t")
        assert route_search(trace).branch is Branch.RAG_AUGMENT


def test_direct_output_is_never_uncertain():
    for flags in all_flag_combinations():
        trace = ReasoningTrace(["s"], "a", flags, "t")
        decision = route_search(trace)
        if decision.branch is Branch.DIRECT_OUTPUT:
            assert not flags.has_idk
            assert not flags.speculative


def test_rationale_names_a_rule():
    decision = route_search(flags_trace(is_ocr_answer=True))
    assert decision.rationale


# --- tool router --------------------------------------------------------------------


def test_spec_example_unknown_statue():
    name, query, text, img, txt = TOOL_CASES[0]
    decision = route_tools(query, trace_from(text), "img-1", ROUTING)
    assert (decision.need_image_search, decision.need_text_search) == (True, True)


def test_spec_example_translation_neither():
    decision = route_tools(
        "Translate this sign.",
        trace_from(dcot("Translate this sign.", "the sign",
                        ['The sign\'s text reads "Sortie".'], "Exit.")),
        "img-1", ROUTING,
    )
    assert (decision.need_image_search, decision.need_text_search) == (False, False)


def test_spec_example_book_author():
    text = dcot("Who wrote this novel?", "The Great Gatsby",
                ["I cannot determine the author that the query is about."],
                "I cannot determine the author.")
    decision = route_tools("Who wrote this novel?", trace_from(text), "img-1", ROUTING)
    assert (decision.need_image_search, decision.need_text_search) == (False, True)


def test_full_tool_case_table():
    for name, query, text, img, txt in TOOL_CASES:
        decision = route_tools(query, trace_from(text), "img-1", ROUTING)
        assert (decision.need_image_search, decision.need_text_search) == (img, txt), (
            f"{name}: got ({decision.need_image_search}, "
            f"{decision.need_text_search}), expected ({img}, {txt})"
        )


def test_exclusion_beats_identity_unknown():
    text = dcot_idk("What awards did this book win?", "title of the book")
    decision = route_tools("What awards did this book win?", trace_from(text),
                           "img-1", ROUTING)
    assert not decision.need_image_search


def test_tool_rationale_is_one_sentence():
    for name, query, text, img, txt in TOOL_CASES:
        decision = route_tools(query, trace_from(text), "img-1", ROUTING)
        body = decision.rationale.strip()
        assert body, name
        # one sentence: no internal terminators
        assert "." not in body.rstrip("."), name


def test_tool_router_is_deterministic():
    name, query, text, img, txt = TOOL_CASES[3]
    trace = trace_from(text)
    assert route_tools(query, trace, "i", ROUTING) == route_tools(query, trace, "i", ROUTING)

