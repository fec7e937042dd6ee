"""Tree search, pruning, baselines, accounting, determinism."""

from __future__ import annotations

import pytest

from revtree import (
    Evidence,
    EvidencePool,
    ExpansionStrategy,
    LlmClient,
    Paragraph,
    ReviewDecision,
    ScriptedOracle,
    ScriptedRule,
    TreeConfig,
    build_index,
    render_review_output,
    run_chain,
    run_oner,
    run_tree,
)
from revtree.corpus import retrieve
from revtree.embedding import EmbeddingProvider
from revtree.errors import CorpusError
from tests.conftest import (
    SeededDecisionProvider,
    always_accept_oracle,
    always_reject_oracle,
    always_search_oracle,
    fresh_corpus,
)


def cot_config(**overrides) -> TreeConfig:
    base = dict(widths=(5, 3, 3), expansion=ExpansionStrategy.COT)
    base.update(overrides)
    return TreeConfig(**base)


def reviewed_nodes(trace):
    return [n for n in trace.nodes if n["call_index"] is not None]


class TestRunTree:
    def test_always_accept_reviews_only_layer_one(self, embedder):
        index = fresh_corpus(groups=1, group_size=5, embedder=embedder)
        pool, stats, trace = run_tree("probe0", cot_config(), index, embedder,
                                      always_accept_oracle())
        assert stats.api_calls == 5
        assert stats.evidence_count == 5
        assert all(len(e.path) == 1 for e in pool)
        assert all(not n["children"] for n in trace.nodes)

    def test_full_expansion_with_fresh_retrievals(self, embedder):
        index = fresh_corpus(groups=66, group_size=3, embedder=embedder)
        config = cot_config(relevance_pruning=False, repetitive_pruning=False)
        pool, stats, trace = run_tree("probe0", config, index, embedder,
                                      always_search_oracle())
        assert stats.api_calls == 65  # 5 + 15 + 45
        assert stats.evidence_count == 0
        assert stats.distinct_docs == 65

    def test_search_at_max_depth_terminates(self, embedder):
        index = fresh_corpus(groups=1, group_size=2, embedder=embedder)
        config = TreeConfig(widths=(2,),
                            expansion=ExpansionStrategy.COT)
        pool, stats, trace = run_tree("probe0", config, index, embedder,
                                      always_search_oracle())
        assert stats.api_calls == 2
        assert all(n["exhausted"] for n in trace.nodes)
        assert all(not n["children"] for n in trace.nodes)

    def test_relevance_pruning_leaves_reject_nodes_childless(self, embedder):
        index = fresh_corpus(groups=1, group_size=4, embedder=embedder)
        pool, stats, trace = run_tree("probe0", cot_config(), index, embedder,
                                      always_reject_oracle())
        assert stats.api_calls == 4
        assert stats.pruned_relevance == 4
        for node in trace.nodes:
            assert node["decision"] == "reject"
            assert node["children"] == []

    def test_relevance_pruning_off_expands_reject_nodes(self, embedder):
        index = build_index(
            [Paragraph("a", "", "seed"), Paragraph("b", "", "seed")], embedder
        )
        on = TreeConfig(widths=(2, 2),
                        expansion=ExpansionStrategy.COT)
        off = TreeConfig(widths=(2, 2),
                         expansion=ExpansionStrategy.COT, relevance_pruning=False)
        _, stats_on, trace_on = run_tree("seed", on, index, embedder,
                                         always_reject_oracle())
        _, stats_off, trace_off = run_tree("seed", off, index, embedder,
                                           always_reject_oracle())
        assert stats_on.api_calls == 2
        assert stats_off.api_calls > stats_on.api_calls
        assert any(n["decision"] == "reject" and n["children"]
                   for n in trace_off.nodes)

    def test_within_path_dedup_drops_ancestors(self, embedder):
        index = build_index(
            [Paragraph("a", "", "seed"), Paragraph("b", "", "seed")], embedder
        )
        config = TreeConfig(widths=(2, 2),
                            expansion=ExpansionStrategy.COT)
        _, _, trace = run_tree("seed", config,
                               index, embedder, always_search_oracle(query="seed"))
        on_path = [p for p in trace.pruned if p["reason"] == "on_path"]
        assert on_path, "expected ancestor candidates to be dropped"
        for node in trace.nodes:
            path_ids = set()
            cursor = node
            while cursor is not None:
                path_ids.add(cursor["paragraph_id"])
                parent = cursor["parent"]
                cursor = trace.nodes[parent] if parent is not None else None
            # a node never repeats an id from its own path
            assert len(path_ids) == node["depth"]

    def test_within_path_dedup_off_allows_repeats(self, embedder):
        index = build_index(
            [Paragraph("a", "", "seed"), Paragraph("b", "", "seed")], embedder
        )
        config = TreeConfig(widths=(2, 2),
                            expansion=ExpansionStrategy.COT,
                            within_path_dedup=False)
        _, _, trace = run_tree("seed", config, index, embedder,
                               always_search_oracle(query="seed"))
        repeated = [
            n for n in trace.nodes
            if n["parent"] is not None
            and n["paragraph_id"] == trace.nodes[n["parent"]]["paragraph_id"]
        ]
        assert repeated


@pytest.mark.parametrize("widths", [(True, 2), (2, 2.0), (), (2, 0)])
def test_widths_are_positive_ints_by_exact_type(widths):
    # a bool is an int to isinstance, so (True, 2) used to make widths (1, 2)
    with pytest.raises(ValueError, match="widths must be one or more positive integers"):
        TreeConfig(widths=widths)


def test_evidence_with_an_empty_path_is_refused():
    with pytest.raises(ValueError, match="evidence path must be non-empty"):
        EvidencePool().add(Evidence(path=(), brief_analysis="", accepted_at_call=1))


class TestRepetitivePruningFixture:
    """Hand-traced scenario: p3 accepted on layer one, then recalled by every
    later retrieval.

    Corpus texts make the question and every new query retrieve the same
    ranked list [p3, pa, pb]; the oracle accepts the p3 path and searches
    from pa and pb with the question text itself.

    With repetitive pruning on the walk is: accept p3 (call 1); pa searches
    (call 2) but its children [p3, pa] are pruned away (repetitive, on-path);
    pb searches (call 3), keeping only pa as a child, reviewed at call 4.
    Without it, p3 re-enters as a child of both pa and pb: 6 calls.
    """

    @pytest.fixture
    def fixture_index(self, embedder):
        return build_index(
            [
                Paragraph("p3", "", "root"),
                Paragraph("pa", "", "root"),
                Paragraph("pb", "", "root"),
            ],
            embedder,
        )

    @pytest.fixture
    def oracle(self):
        return ScriptedOracle([
            ScriptedRule(template="review_cot", path_ids=("p3",),
                         response=render_review_output(
                             ReviewDecision.accept("found it"))),
            ScriptedRule(template="review_cot", path_ids=("pa",),
                         response=render_review_output(
                             ReviewDecision.search("root"))),
            ScriptedRule(template="review_cot", path_ids=("pb",),
                         response=render_review_output(
                             ReviewDecision.search("root"))),
        ], default_response=render_review_output(ReviewDecision.reject()))

    def config(self, repetitive: bool) -> TreeConfig:
        return TreeConfig(widths=(3, 2),
                          expansion=ExpansionStrategy.COT,
                          repetitive_pruning=repetitive)

    def test_pruned_run_is_strictly_cheaper(self, fixture_index, embedder, oracle):
        _, stats_on, _ = run_tree("root", self.config(True), fixture_index,
                                  embedder, oracle)
        _, stats_off, _ = run_tree("root", self.config(False), fixture_index,
                                   embedder, oracle)
        assert stats_on.api_calls == 4
        assert stats_off.api_calls == 6
        assert stats_on.api_calls < stats_off.api_calls
        assert stats_on.pruned_repetitive == 2
        assert stats_off.pruned_repetitive == 0

    def test_accepted_paragraph_never_reviewed_again(self, fixture_index,
                                                     embedder, oracle):
        _, _, trace = run_tree("root", self.config(True), fixture_index,
                               embedder, oracle)
        p3_reviews = [n for n in reviewed_nodes(trace)
                      if n["paragraph_id"] == "p3"]
        assert len(p3_reviews) == 1
        assert {p["paragraph_id"] for p in trace.pruned
                if p["reason"] == "repetitive"} == {"p3"}

    def test_no_node_created_while_in_accepted_ids(self, fixture_index,
                                                   embedder, oracle):
        _, _, trace = run_tree("root", self.config(True), fixture_index,
                               embedder, oracle)
        assert_creation_respects_pool(trace)


def assert_creation_respects_pool(trace):
    """Replay check: when each node was created, its paragraph id was not yet
    in the evidence pool."""
    for node in trace.nodes:
        accepted_then = set()
        for evidence in trace.evidence:
            if evidence["accepted_at_call"] <= node["created_after_call"]:
                accepted_then.update(evidence["path"])
        assert node["paragraph_id"] not in accepted_then


class GarbageAtCall:
    """Delegates to an inner provider except at one call index."""

    def __init__(self, inner, at_call: int):
        self.inner = inner
        self.at_call = at_call

    def generate(self, request, call_index):
        if call_index == self.at_call:
            return "?? completely unparseable output ??"
        return self.inner.generate(request, call_index)


class TestDegradation:
    def test_single_parse_failure_only_removes_its_subtree(self, embedder):
        index = build_index(
            [Paragraph("a", "", "seed"), Paragraph("b", "", "seed")], embedder
        )
        config = TreeConfig(widths=(2, 2),
                            expansion=ExpansionStrategy.COT)
        oracle = always_search_oracle(query="seed")
        _, base_stats, base_trace = run_tree("seed", config, index, embedder,
                                             oracle)
        _, hurt_stats, hurt_trace = run_tree(
            "seed", config, index, embedder, GarbageAtCall(oracle, at_call=1))

        assert base_stats.api_calls == 4
        assert hurt_stats.api_calls == 3
        assert hurt_stats.parse_failures == 1
        failed = [n for n in hurt_trace.nodes if n["decision"] == "parse_failure"]
        assert len(failed) == 1 and failed[0]["children"] == []

        def shape(trace, root_id):
            items = []
            for n in trace.nodes:
                chain = [n["paragraph_id"]]
                cursor = n
                while cursor["parent"] is not None:
                    cursor = trace.nodes[cursor["parent"]]
                    chain.append(cursor["paragraph_id"])
                if chain[-1] == root_id:
                    items.append((tuple(reversed(chain)), n["decision"]))
            return sorted(items)

        # the untouched sibling subtree keeps its structure
        assert shape(hurt_trace, "b") == shape(base_trace, "b")

    def test_run_completes_under_random_garbage(self, embedder):
        index = fresh_corpus(groups=30, group_size=3, embedder=embedder)
        provider = SeededDecisionProvider(seed=11)
        pool, stats, trace = run_tree("probe0", cot_config(), index, embedder,
                                      provider)
        assert stats.api_calls <= 65
        assert stats.parse_failures >= 0
        assert stats.evidence_count == len(pool)

    def test_retrieval_failure_closes_branch_not_run(self, embedder):
        class EmbedderFailingOn:
            def __init__(self, inner, poison):
                self.inner = inner
                self.poison = poison
                self.provider_id = inner.provider_id
                self.dim = inner.dim

            def embed_text(self, text):
                if text == self.poison:
                    raise RuntimeError("embedding backend down")
                return self.inner.embed_text(text)

        index = fresh_corpus(groups=70, group_size=3, embedder=embedder)
        # query "probe1" is the first layer-one node's expansion query
        flaky = EmbedderFailingOn(embedder, "probe1")
        config = cot_config(relevance_pruning=False, repetitive_pruning=False)
        _, stats, _ = run_tree("probe0", config, index, flaky,
                               always_search_oracle())
        assert stats.provider_failures == 1
        # the poisoned branch lost its 3 + 9 descendants from the full 65
        assert stats.api_calls == 65 - 12

    def test_query_of_another_dim_closes_branch_not_run(self, embedder):
        class ShortOn(EmbeddingProvider):
            """Embeds ``poison`` one dim short of the index."""

            def __init__(self, inner, poison):
                self.inner, self.poison = inner, poison
                self.provider_id, self.dim = inner.provider_id, inner.dim

            def embed_text(self, text):
                vec = self.inner.embed_text(text)
                return vec[:-1] if text == self.poison else vec

        index = fresh_corpus(groups=70, group_size=3, embedder=embedder)
        short = ShortOn(embedder, "probe1")
        with pytest.raises(CorpusError, match="query embedding dim 63 does not "
                                              "match index dim 64"):
            retrieve(index, "probe1", 3, short)
        config = cot_config(relevance_pruning=False, repetitive_pruning=False)
        _, stats, trace = run_tree("probe0", config, index, short,
                                   always_search_oracle())
        assert stats.provider_failures == trace.stats["provider_failures"] == 1
        assert stats.api_calls == 65 - 12


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self, embedder):
        index = fresh_corpus(groups=20, group_size=3, embedder=embedder)
        provider = SeededDecisionProvider(seed=5)
        results = []
        for _ in range(2):
            pool, stats, trace = run_tree("probe0", cot_config(), index,
                                          embedder, provider)
            results.append((trace.to_json(), stats.to_dict(),
                            [e.paragraph_ids() for e in pool]))
        assert results[0] == results[1]


class TestCallCountBounds:
    @pytest.mark.parametrize("widths,bound", [
        ((5, 3), 20),
        ((5, 3, 3), 65),
        ((10, 5, 3), 210),
    ])
    def test_random_oracles_stay_within_bound(self, embedder, widths, bound):
        index = fresh_corpus(groups=10, group_size=max(widths), embedder=embedder)
        for seed in range(5):
            config = TreeConfig(widths=widths,
                                expansion=ExpansionStrategy.COT)
            _, stats, _ = run_tree("probe0", config, index, embedder,
                                   SeededDecisionProvider(seed=seed))
            assert stats.api_calls <= bound


class TestStats:
    def test_rate_and_pool_invariants(self, embedder):
        index = fresh_corpus(groups=10, group_size=3, embedder=embedder)
        pool, stats, trace = run_tree("probe0", cot_config(), index, embedder,
                                      SeededDecisionProvider(seed=2))
        if stats.api_calls:
            assert stats.rate == stats.distinct_docs / stats.api_calls
        union = set()
        for evidence in pool:
            union.update(evidence.paragraph_ids())
        assert pool.accepted_ids == union
        assert stats.evidence_count == len(pool)

    def test_evidence_order_is_acceptance_order(self, embedder):
        index = fresh_corpus(groups=10, group_size=3, embedder=embedder)
        pool, _, _ = run_tree("probe0", cot_config(), index, embedder,
                              SeededDecisionProvider(seed=3))
        calls = [e.accepted_at_call for e in pool]
        assert calls == sorted(calls)

    def test_api_calls_equal_provider_completions(self, embedder):
        from tests.conftest import RecordingProvider

        index = fresh_corpus(groups=10, group_size=3, embedder=embedder)
        provider = RecordingProvider(SeededDecisionProvider(seed=9))
        _, stats, _ = run_tree("probe0", cot_config(), index, embedder, provider)
        assert stats.api_calls == len(provider.requests)

    def test_every_evidence_path_is_a_trace_chain(self, embedder):
        index = fresh_corpus(groups=10, group_size=3, embedder=embedder)
        pool, _, trace = run_tree("probe0", cot_config(), index, embedder,
                                  SeededDecisionProvider(seed=4))
        assert pool.evidences, "fixture should accept at least once"
        accepting = {n["call_index"]: n for n in trace.nodes
                     if n["decision"] == "accept"}
        for evidence in trace.evidence:
            node = accepting[evidence["accepted_at_call"]]
            chain = []
            while node is not None:
                chain.append(node["paragraph_id"])
                parent = node["parent"]
                node = trace.nodes[parent] if parent is not None else None
            assert list(reversed(chain)) == evidence["path"]

    def test_mpc_counts_both_calls(self, embedder):
        index = fresh_corpus(groups=10, group_size=3, embedder=embedder)
        oracle = ScriptedOracle([
            ScriptedRule(template="review_cot",
                         response=render_review_output(
                             ReviewDecision.search("probe{call_index}"))),
            ScriptedRule(template="mpc",
                         response="- Information: [INFO] probe{call_index}"),
        ])
        config = TreeConfig(widths=(2, 2),
                            expansion=ExpansionStrategy.MPC)
        _, stats, trace = run_tree("probe0", config, index, embedder, oracle)
        # layer 1: 2 searches (2 calls each); layer 2: 4 searches at max
        # depth, still 2 calls each under unconditional MPC
        assert stats.api_calls == 12
        searches = [n for n in trace.nodes if n["decision"] == "search"]
        assert all(n["new_query"].startswith("probe") for n in searches)


class TestRunChain:
    def test_always_accept_single_turn(self, embedder):
        index = fresh_corpus(groups=1, group_size=5, embedder=embedder)
        pool, stats, trace = run_chain("probe0", index, embedder,
                                       always_accept_oracle())
        assert stats.api_calls == 1
        assert len(pool) == 1
        assert len(pool.evidences[0].path) == 5
        assert trace.turns[0]["decision"] == "accept"

    def test_always_search_exhausts_turns(self, embedder):
        index = fresh_corpus(groups=70, group_size=5, embedder=embedder)
        pool, stats, trace = run_chain("probe0", index, embedder,
                                       always_search_oracle())
        assert stats.api_calls == 3
        assert len(pool) == 0
        assert trace.turns[-1]["context_size"] <= 15

    def test_reject_on_first_turn(self, embedder):
        index = fresh_corpus(groups=1, group_size=5, embedder=embedder)
        pool, stats, trace = run_chain("probe0", index, embedder,
                                       always_reject_oracle())
        assert stats.api_calls == 1
        assert len(pool) == 0

    def test_uses_cor_template_and_full_context(self, embedder):
        from tests.conftest import RecordingProvider

        index = fresh_corpus(groups=70, group_size=5, embedder=embedder)
        provider = RecordingProvider(always_search_oracle())
        run_chain("probe0", index, embedder, provider, max_turns=2)
        assert [r.tags["template"] for r in provider.requests] == ["cor", "cor"]
        assert len(provider.requests[0].tags["path_ids"]) == 5
        assert len(provider.requests[1].tags["path_ids"]) == 10

    def test_parse_failure_ends_the_chain(self, embedder):
        index = fresh_corpus(groups=1, group_size=5, embedder=embedder)
        oracle = ScriptedOracle([], default_response="nonsense")
        pool, stats, trace = run_chain("probe0", index, embedder, oracle)
        assert stats.api_calls == 1
        assert stats.parse_failures == 1
        assert len(pool) == 0

    def test_invalid_turns(self, embedder, small_index):
        with pytest.raises(ValueError):
            run_chain("q", small_index, embedder, always_accept_oracle(),
                      max_turns=0)
        with pytest.raises(ValueError, match="per_turn_k must be >= 1, got 0"):
            run_chain("q", small_index, embedder, always_accept_oracle(),
                      per_turn_k=0)


class TestRunOner:
    def test_clamps_to_corpus_size(self, embedder, small_index):
        pool, stats, _trace = run_oner("boston", 15, small_index, embedder)
        assert len(pool.evidences[0].path) == 5
        assert stats.api_calls == 0
        assert stats.rate == 0.0

    def test_matches_retrieve_output(self, embedder, small_index):
        from revtree import retrieve

        pool, stats, _trace = run_oner("boston population", 3, small_index,
                                       embedder)
        expected = [p.id for p, _ in retrieve(small_index, "boston population",
                                              3, embedder)]
        assert list(pool.evidences[0].paragraph_ids()) == expected
        assert pool.evidences[0].brief_analysis == ""

    def test_empty_question_errors(self, embedder, small_index):
        with pytest.raises(ValueError):
            run_oner("  ", 5, small_index, embedder)

    def test_k_must_be_positive(self, embedder, small_index):
        with pytest.raises(ValueError):
            run_oner("q", 0, small_index, embedder)

    def test_trace_carries_the_returned_stats(self, embedder, small_index):
        pool, stats, trace = run_oner("boston", 3, small_index, embedder)
        assert trace.mode == "oner"
        assert trace.meta == {"k": 3}
        assert trace.stats == stats.to_dict()
        assert trace.evidence == [{"path": list(pool.evidences[0].paragraph_ids()),
                                   "brief_analysis": "", "accepted_at_call": 0}]


class TestTreeConfig:
    def test_widths_must_be_positive(self):
        with pytest.raises(ValueError):
            TreeConfig(widths=(5, 0))

    def test_defaults(self):
        config = TreeConfig()
        assert config.widths == (5, 3, 3)
        assert config.expansion is ExpansionStrategy.MPC
        assert config.relevance_pruning and config.repetitive_pruning
