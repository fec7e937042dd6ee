"""Structured review-output parsing and the expansion strategies."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revtree import (
    Action,
    ExpansionStrategy,
    LlmClient,
    MpcExpansion,
    Paragraph,
    ParseFailure,
    ReviewDecision,
    ScriptedOracle,
    ScriptedRule,
    generate_mpc_query,
    parse_mpc_output,
    parse_review_output,
    render_mpc_output,
    render_review_output,
    review_path,
)
from tests.conftest import RecordingProvider

# payloads that cannot collide with the bracketed sentinels or field labels
payloads = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ", min_size=1, max_size=40
).map(lambda s: " ".join(s.split())).filter(bool)


class TestParseReviewOutput:
    def test_irrelevant_gives_reject(self):
        decision = parse_review_output(
            "- Thought: nothing useful here\n- Judgment: [IRRELEVANT]"
        )
        assert decision == ReviewDecision.reject(thought="nothing useful here")

    def test_accept_with_all_three_steps(self):
        text = (
            "- Thought: looks on topic\n- Judgment: [RELEVANT]\n"
            "- Thought: everything needed is present\n- Judgment: [SUPPORTED]\n"
            "- Thought: answering now\n- Output: [ANSWER] Boston"
        )
        decision = parse_review_output(text)
        assert decision.action is Action.ACCEPT
        assert decision.brief_analysis == "Boston"
        assert decision.supported is True
        assert decision.thought == "answering now"

    def test_search_with_query_payload(self):
        text = (
            "- Judgment: [RELEVANT]\n- Judgment: [UNSUPPORTED]\n"
            "- Output: [QUERY] population of Boston in 2001"
        )
        decision = parse_review_output(text)
        assert decision.action is Action.SEARCH
        assert decision.new_query == "population of Boston in 2001"
        assert decision.supported is False

    def test_free_prose_fails_at_step_one(self):
        text = "this model ignored every instruction"
        failure = parse_review_output(text)
        assert isinstance(failure, ParseFailure)
        assert failure.step_reached == 1
        assert failure.raw_text == text

    def test_irrelevant_dominates_later_tokens(self):
        text = (
            "- Judgment: [IRRELEVANT]\n- Judgment: [SUPPORTED]\n"
            "- Output: [ANSWER] should be ignored"
        )
        assert parse_review_output(text).action is Action.REJECT

    def test_step_three_token_governs_over_supported(self):
        # supported-but-searching parses as search: the action step rules
        text = (
            "- Judgment: [RELEVANT]\n- Judgment: [SUPPORTED]\n"
            "- Output: [QUERY] find the founding year"
        )
        decision = parse_review_output(text)
        assert decision.action is Action.SEARCH
        assert decision.supported is True

    def test_both_action_tokens_fail(self):
        text = "- Judgment: [RELEVANT]\n- Output: [ANSWER] x [QUERY] y"
        failure = parse_review_output(text)
        assert isinstance(failure, ParseFailure)
        assert failure.step_reached == 3

    def test_missing_action_token_fails(self):
        failure = parse_review_output("- Judgment: [RELEVANT]\nnothing else")
        assert isinstance(failure, ParseFailure)
        assert failure.step_reached == 3

    def test_empty_payload_fails(self):
        failure = parse_review_output(
            "- Judgment: [RELEVANT]\n- Output: [ANSWER]\n- Thought: oops"
        )
        assert isinstance(failure, ParseFailure)
        assert failure.step_reached == 3
        assert "empty payload" in failure.reason

    def test_payload_continues_on_following_lines(self):
        text = (
            "- Judgment: [RELEVANT]\n- Output: [QUERY]\n"
            "what is the population\nof the city\n- Thought: trailing"
        )
        decision = parse_review_output(text)
        assert decision.new_query == "what is the population\nof the city"

    def test_malformed_corpus_never_raises(self):
        nasty = [
            "",
            "   \n\n  ",
            "[RELEVANT]",
            "[IRRELEVANT",
            "relevant but lowercase tokens [relevant] [answer] x",
            "- Judgment: [RELEVANT]\n- Output: [ANSWER]   ",
            "- Output: [ANSWER] no judgment first",
            "[RELEVANT] [ANSWER] x [QUERY] y",
            "\x00\x01 binary noise [UNSUPPORTED]",
            "üñïçødé ohne tokens",
        ]
        for text in nasty:
            result = parse_review_output(text)
            assert isinstance(result, ParseFailure), text
            assert result.raw_text == text

    @given(st.text(max_size=200))
    def test_total_over_arbitrary_text(self, text):
        result = parse_review_output(text)
        if isinstance(result, ParseFailure):
            assert result.raw_text == text
            assert result.step_reached in (1, 2, 3)
        else:
            assert isinstance(result, ReviewDecision)

    @given(payloads, st.text(max_size=120))
    def test_leading_irrelevant_always_rejects(self, prefix, suffix):
        # an [IRRELEVANT] in the step-1 position dominates whatever follows
        text = f"- Thought: {prefix}\n- Judgment: [IRRELEVANT]\n{suffix}"
        result = parse_review_output(text)
        assert isinstance(result, ReviewDecision)
        assert result.action is Action.REJECT


@st.composite
def decisions(draw):
    action = draw(st.sampled_from(list(Action)))
    thought = draw(payloads)
    if action is Action.REJECT:
        return ReviewDecision.reject(thought=thought)
    if action is Action.SEARCH:
        return ReviewDecision.search(draw(payloads), thought=thought,
                                     supported=draw(st.booleans()))
    return ReviewDecision.accept(draw(payloads), thought=thought,
                                 supported=draw(st.booleans()))


class TestRoundTrip:
    @given(decisions())
    def test_review_round_trip(self, decision):
        assert parse_review_output(render_review_output(decision)) == decision

    @given(payloads, payloads)
    def test_mpc_round_trip(self, query, answer):
        parsed = parse_mpc_output(render_mpc_output(query, answer))
        assert parsed == MpcExpansion(query=query, answer=answer)

    @pytest.mark.parametrize("decision, supported", [
        (ReviewDecision.accept("it fits", supported=None), True),
        (ReviewDecision.search("more", supported=None), False),
    ])
    def test_unset_support_renders_as_the_actions_default(self, decision, supported):
        parsed = parse_review_output(render_review_output(decision))
        assert (parsed.action, parsed.supported) == (decision.action, supported)

    def test_mpc_round_trip_without_answer(self):
        parsed = parse_mpc_output(render_mpc_output("missing fact"))
        assert parsed == MpcExpansion(query="missing fact", answer="")


class TestParseMpc:
    def test_inline_fields_split_correctly(self):
        text = ("- Information: [INFO] Kirton End is located in Boston. "
                "- Answer: [ANSWER] the population figure")
        parsed = parse_mpc_output(text)
        assert parsed.query == "Kirton End is located in Boston."
        assert parsed.answer == "the population figure"

    def test_answer_without_info_fails(self):
        failure = parse_mpc_output("- Answer: [ANSWER] something")
        assert isinstance(failure, ParseFailure)
        assert "[INFO]" in failure.reason

    def test_empty_info_payload_fails(self):
        failure = parse_mpc_output("- Information: [INFO]\n- Answer: [ANSWER] x")
        assert isinstance(failure, ParseFailure)


class TestDecisionInvariants:
    def test_search_requires_query(self):
        with pytest.raises(ValueError):
            ReviewDecision(action=Action.SEARCH)

    def test_accept_requires_analysis(self):
        with pytest.raises(ValueError):
            ReviewDecision(action=Action.ACCEPT)

    def test_reject_carries_neither(self):
        with pytest.raises(ValueError):
            ReviewDecision(action=Action.REJECT, new_query="x")


PATH = (
    Paragraph("p1", "First", "alpha paragraph"),
    Paragraph("p2", "Second", "beta paragraph"),
)


class TestReviewPath:
    def test_accept_passes_through(self):
        oracle = ScriptedOracle([], default_response=render_review_output(
            ReviewDecision.accept("the answer")))
        decision = review_path("q", PATH, ExpansionStrategy.COT, LlmClient(oracle))
        assert decision.action is Action.ACCEPT
        assert decision.brief_analysis == "the answer"

    def test_direct_strategy_issues_exactly_one_call(self):
        for response in (
            render_review_output(ReviewDecision.accept("a")),
            render_review_output(ReviewDecision.reject()),
            render_review_output(ReviewDecision.search("next")),
        ):
            client = LlmClient(ScriptedOracle([], default_response=response))
            review_path("q", PATH, ExpansionStrategy.DIRECT, client)
            assert client.calls == 1

    def test_direct_uses_direct_template(self):
        provider = RecordingProvider(
            ScriptedOracle([], default_response=render_review_output(
                ReviewDecision.reject())))
        review_path("q", PATH, ExpansionStrategy.DIRECT, LlmClient(provider))
        assert provider.requests[0].tags["template"] == "review_direct"
        provider2 = RecordingProvider(
            ScriptedOracle([], default_response=render_review_output(
                ReviewDecision.reject())))
        review_path("q", PATH, ExpansionStrategy.COT, LlmClient(provider2))
        assert provider2.requests[0].tags["template"] == "review_cot"

    def test_mpc_search_uses_two_calls_and_swaps_query(self):
        oracle = ScriptedOracle([
            ScriptedRule(template="review_cot", response=render_review_output(
                ReviewDecision.search("draft query"))),
            ScriptedRule(template="mpc", response=render_mpc_output(
                "Kirton End is located in Boston.", "a side answer")),
        ])
        client = LlmClient(oracle)
        decision = review_path("q", PATH, ExpansionStrategy.MPC, client)
        assert client.calls == 2
        assert decision.action is Action.SEARCH
        assert decision.new_query == "Kirton End is located in Boston."
        assert decision.mpc_answer == "a side answer"

    def test_mpc_non_search_uses_one_call(self):
        for response in (
            render_review_output(ReviewDecision.accept("a")),
            render_review_output(ReviewDecision.reject()),
        ):
            client = LlmClient(ScriptedOracle([], default_response=response))
            review_path("q", PATH, ExpansionStrategy.MPC, client)
            assert client.calls == 1

    def test_parse_failure_propagates(self):
        client = LlmClient(ScriptedOracle([], default_response="garbage"))
        outcome = review_path("q", PATH, ExpansionStrategy.COT, client)
        assert isinstance(outcome, ParseFailure)

    def test_mpc_parse_failure_propagates(self):
        oracle = ScriptedOracle([
            ScriptedRule(template="review_cot", response=render_review_output(
                ReviewDecision.search("draft"))),
            ScriptedRule(template="mpc", response="no info token here"),
        ])
        outcome = review_path("q", PATH, ExpansionStrategy.MPC, LlmClient(oracle))
        assert isinstance(outcome, ParseFailure)

    def test_empty_path_rejected(self):
        client = LlmClient(ScriptedOracle([], default_response="x"))
        with pytest.raises(ValueError):
            review_path("q", (), ExpansionStrategy.COT, client)

    def test_documents_rendered_root_to_leaf(self):
        provider = RecordingProvider(
            ScriptedOracle([], default_response=render_review_output(
                ReviewDecision.reject())))
        review_path("q", PATH, ExpansionStrategy.COT, LlmClient(provider))
        prompt = provider.requests[0].prompt
        assert prompt.index("alpha paragraph") < prompt.index("beta paragraph")
        assert provider.requests[0].tags["path_ids"] == ("p1", "p2")


class TestGenerateMpcQuery:
    def test_returns_info_payload(self):
        oracle = ScriptedOracle([], default_response=render_mpc_output(
            "the missing paragraph", "ignored answer"))
        result = generate_mpc_query("q", PATH, LlmClient(oracle))
        assert result == MpcExpansion(query="the missing paragraph",
                                      answer="ignored answer")

    def test_missing_info_is_failure(self):
        oracle = ScriptedOracle([], default_response="- Answer: [ANSWER] only")
        result = generate_mpc_query("q", PATH, LlmClient(oracle))
        assert isinstance(result, ParseFailure)
