"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtree import (
    Action,
    ExpansionStrategy,
    HashedEmbedder,
    Paragraph,
    ParseFailure,
    ReviewDecision,
    ScriptedOracle,
    ScriptedRule,
    TreeConfig,
    build_index,
    cosine_similarity,
    exact_match,
    f1_score,
    normalize_answer,
    parse_mpc_output,
    parse_review_output,
    recall_at_k,
    render_mpc_output,
    render_review_output,
    retrieve,
    run_tree,
)
from revtree.cli import main
from tests.conftest import (
    SeededDecisionProvider,
    always_reject_oracle,
    always_search_oracle,
    fresh_corpus,
)


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def cot_config(widths, **overrides) -> TreeConfig:
    base = dict(widths=tuple(widths), expansion=ExpansionStrategy.COT)
    base.update(overrides)
    return TreeConfig(**base)


def full_tree_size(widths) -> int:
    total, layer = 0, 1
    for w in widths:
        layer *= w
        total += layer
    return total


class TestCriterion1FullExpansionCallCount:
    def test_always_search_no_pruning_is_exactly_65(self):
        embedder = HashedEmbedder(dim=256, seed=1)
        index = fresh_corpus(groups=66, group_size=5, embedder=embedder)
        config = cot_config((5, 3, 3), relevance_pruning=False,
                            repetitive_pruning=False)
        started = time.monotonic()
        _, stats, _ = run_tree("probe0", config, index, embedder,
                               always_search_oracle())
        elapsed = time.monotonic() - started
        assert stats.api_calls == 65
        assert elapsed < 5.0
        report(1, f"api_calls == 65 for widths (5,3,3), {elapsed:.2f}s")


class TestCriterion2TreeSizeBounds:
    # 1000 randomized-oracle runs split across the three configurations
    CASES = [((5, 3), 20, 600), ((5, 3, 3, 3), 200, 200), ((10, 5, 3), 210, 200)]

    def test_bounds_hold_under_randomized_oracles(self):
        embedder = HashedEmbedder(dim=64, seed=2)
        total_runs = 0
        for widths, bound, runs in self.CASES:
            index = fresh_corpus(groups=12, group_size=max(widths),
                                 embedder=embedder)
            config = cot_config(widths)
            for seed in range(runs):
                provider = SeededDecisionProvider(seed=seed)
                _, stats, _ = run_tree("probe0", config, index, embedder,
                                       provider)
                assert stats.api_calls <= bound, (widths, seed, stats.api_calls)
                total_runs += 1
        assert total_runs == 1000
        report(2, "api_calls <= 20/200/210 across 1000 randomized runs")

    @pytest.mark.parametrize("widths", [(5, 3), (5, 3, 3, 3), (10, 5, 3)])
    def test_always_search_reaches_the_bound_exactly(self, widths):
        bound = full_tree_size(widths)
        embedder = HashedEmbedder(dim=256, seed=3)
        index = fresh_corpus(groups=bound + 1, group_size=max(widths),
                             embedder=embedder)
        config = cot_config(widths, relevance_pruning=False,
                            repetitive_pruning=False)
        _, stats, _ = run_tree("probe0", config, index, embedder,
                               always_search_oracle())
        assert stats.api_calls == bound
        report(2, f"always-search hits the exact bound {bound} for {widths}")


class TestCriterion3PruningSemantics:
    @pytest.fixture
    def fixture(self):
        embedder = HashedEmbedder(dim=64, seed=4)
        index = build_index(
            [Paragraph("p3", "", "root"),
             Paragraph("pa", "", "root"),
             Paragraph("pb", "", "root")],
            embedder,
        )
        oracle = ScriptedOracle([
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
        return embedder, index, oracle

    def config(self, repetitive: bool) -> TreeConfig:
        return TreeConfig(widths=(3, 2),
                          expansion=ExpansionStrategy.COT,
                          repetitive_pruning=repetitive)

    def test_repetitive_pruning_semantics(self, fixture):
        embedder, index, oracle = fixture
        _, stats_on, trace_on = run_tree("root", self.config(True), index,
                                         embedder, oracle)
        _, stats_off, _ = run_tree("root", self.config(False), index,
                                   embedder, oracle)
        assert stats_on.api_calls < stats_off.api_calls
        assert stats_on.pruned_repetitive > 0
        # replay check: nothing enters the tree while its id is in the pool
        for node in trace_on.nodes:
            accepted_then = set()
            for evidence in trace_on.evidence:
                if evidence["accepted_at_call"] <= node["created_after_call"]:
                    accepted_then.update(evidence["path"])
            assert node["paragraph_id"] not in accepted_then
        reviews_of_p3 = [n for n in trace_on.nodes
                         if n["paragraph_id"] == "p3"
                         and n["call_index"] is not None]
        assert len(reviews_of_p3) == 1
        report(3, f"pruned run {stats_on.api_calls} calls < "
                  f"unpruned {stats_off.api_calls}; creation invariant holds")

    def test_relevance_pruning_leaves_no_children_under_reject(self):
        embedder = HashedEmbedder(dim=64, seed=5)
        index = fresh_corpus(groups=1, group_size=5, embedder=embedder)
        _, _, trace = run_tree("probe0", cot_config((5, 3, 3)), index, embedder,
                               always_reject_oracle())
        assert trace.nodes, "expected reviewed nodes"
        for node in trace.nodes:
            assert node["decision"] == "reject"
            assert node["children"] == []
        report(3, "every reject node is childless under relevance pruning")


clean_payloads = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ", min_size=1, max_size=40
).map(lambda s: " ".join(s.split())).filter(bool)


@st.composite
def canonical_decisions(draw):
    action = draw(st.sampled_from(list(Action)))
    thought = draw(clean_payloads)
    if action is Action.REJECT:
        return ReviewDecision.reject(thought=thought)
    if action is Action.SEARCH:
        return ReviewDecision.search(draw(clean_payloads), thought=thought,
                                     supported=draw(st.booleans()))
    return ReviewDecision.accept(draw(clean_payloads), thought=thought,
                                 supported=draw(st.booleans()))


class TestCriterion4ParserSuite:
    @settings(max_examples=500, deadline=None)
    @given(canonical_decisions())
    def test_review_round_trip_500_cases(self, decision):
        assert parse_review_output(render_review_output(decision)) == decision

    @settings(max_examples=500, deadline=None)
    @given(clean_payloads, clean_payloads)
    def test_mpc_round_trip_500_cases(self, query, answer):
        parsed = parse_mpc_output(render_mpc_output(query, answer))
        assert parsed.query == query
        assert parsed.answer == answer

    def test_malformed_corpus_yields_failures_not_crashes(self):
        malformed = [
            "",
            "    ",
            "prose with no tokens",
            "[RELEVANT]",
            "[RELEVANT] [SUPPORTED]",
            "- Judgment: [RELEVANT]\n- Output: [ANSWER]",
            "- Judgment: [RELEVANT]\n- Output: [ANSWER] x [QUERY] y",
            "- Output: [QUERY] query with no judgment",
            "[relevant] lowercase is not a token",
            "judgment: RELEVANT without brackets",
            "\x00\x07 control characters [UNSUPPORTED]",
            "ümläuts ünd émojis 🌲 with nothing else",
            "- Judgment: [IRRELEVANT" ,
            "[QUERY] [ANSWER] [RELEVANT] out of order",
            "- Information: [INFO]",
        ]
        for text in malformed:
            result = parse_review_output(text)
            assert isinstance(result, ParseFailure), text
            assert result.raw_text == text
            assert result.step_reached in (1, 2, 3)
        mpc_failure = parse_mpc_output("- Answer: [ANSWER] but no info")
        assert isinstance(mpc_failure, ParseFailure)
        report(4, "500-case round trips and malformed corpus handled")


class TestCriterion5RetrievalOracleEquivalence:
    def test_fifty_random_corpora_match_brute_force(self):
        started = time.monotonic()
        embedder = HashedEmbedder(dim=64, seed=6)
        rng = random.Random(99)
        vocab = [f"tok{i}" for i in range(2000)]
        for trial in range(50):
            n = rng.randint(1, 1000)
            paragraphs = [
                Paragraph(f"c{trial}_{i:04d}", "",
                          " ".join(rng.choices(vocab, k=rng.randint(2, 8))))
                for i in range(n)
            ]
            index = build_index(paragraphs, embedder)
            query = " ".join(rng.choices(vocab, k=3))
            qvec = embedder.embed_text(query)
            scored = sorted(
                ((pid, cosine_similarity(index.embedding(pid), qvec))
                 for pid in index.ids),
                key=lambda item: (-item[1], item[0]),
            )
            for k in (1, 5, 15):
                got = [p.id for p, _ in retrieve(index, query, k, embedder)]
                assert got == [pid for pid, _ in scored[:k]], (trial, k)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        report(5, f"50 corpora x k in (1,5,15) equal brute force, {elapsed:.2f}s")


def oracle_f1(prediction: str, gold: str) -> float:
    p = Counter(normalize_answer(prediction).split())
    g = Counter(normalize_answer(gold).split())
    if not p or not g:
        return 1.0 if p == g else 0.0
    overlap = sum(min(p[t], g[t]) for t in set(p) | set(g))
    if overlap == 0:
        return 0.0
    precision = overlap / sum(p.values())
    recall = overlap / sum(g.values())
    return 2 * precision * recall / (precision + recall)


def oracle_em(prediction: str, gold: str) -> int:
    return int(normalize_answer(prediction) == normalize_answer(gold))


def oracle_recall(retrieved, gold, k=15) -> float:
    hits = sum(1 for g in gold if g in retrieved[:k])
    return hits / len(gold)


class TestCriterion6MetricOracles:
    ANSWER_CASES = [
        ("Boston", "the city of Boston"),
        ("Boston", "Boston"),
        ("the Boston", "Boston"),
        ("Boston city", "Boston"),
        ("", ""),
        ("", "nonempty"),
        ("nonempty", ""),
        ("alpha beta gamma", "beta gamma delta"),
        ("one two two three", "two two"),
        ("A an the of", "of"),
        ("punct!uation, here.", "punctuation here"),
        ("42", "42."),
        ("an apple", "apple"),
        ("apple pie", "pie apple"),
        ("completely different", "words entirely"),
    ]
    RECALL_CASES = [
        (["a", "c", "d"], ["a", "b"]),
        (["a", "b", "c"], ["a", "b"]),
        ([], ["a"]),
        (["x"] * 14 + ["g"], ["g"]),
        ([f"p{i}" for i in range(20)], ["p0", "p19"]),
        (["g1", "g2", "g3"], ["g1", "g2", "g3"]),
        (["z", "g1"], ["g1", "g2"]),
        (["g2"], ["g1", "g2", "g3", "g4"]),
        (["a", "a", "g"], ["g"]),
        (["m"] * 15, ["m"]),
    ]

    def test_twenty_five_case_fixture_matches_oracles(self):
        assert len(self.ANSWER_CASES) + len(self.RECALL_CASES) == 25
        for prediction, gold in self.ANSWER_CASES:
            assert abs(f1_score(prediction, [gold])
                       - oracle_f1(prediction, gold)) <= 1e-9
            assert exact_match(prediction, [gold]) == oracle_em(prediction, gold)
        assert f1_score("Boston", ["the city of Boston"]) == pytest.approx(
            0.5, abs=1e-9)
        for retrieved, gold in self.RECALL_CASES:
            assert abs(recall_at_k(retrieved, set(gold))
                       - oracle_recall(retrieved, set(gold))) <= 1e-9
        report(6, "EM/F1/recall match independent oracles on 25 cases")


QUESTION = ("according to the 2001 census what was the population of the city "
            "where kirton end is located")
MPC_QUERY = "boston recorded population 2001 census"
COR_QUERY = "dorchester recorded population 2001 census"


def two_hop_corpus() -> list[dict]:
    rows = [
        {"id": "gold_hop1", "title": "Kirton End",
         "text": "kirton end is a hamlet in the borough of boston"},
        {"id": "gold_hop2", "title": "Boston census",
         "text": "boston recorded a population of 35124 in the 2001 census"},
        {"id": "decoy_hall", "title": "Kirton Hall",
         "text": "kirton hall is a manor located in dorchester"},
        {"id": "decoy_pop", "title": "Dorchester",
         "text": "dorchester recorded a population of 22000 in the 2001 census"},
    ]
    for i in range(36):
        rows.append({
            "id": f"filler{i:02d}", "title": f"Topic {i}",
            "text": f"zeta{i} quux blorp vex{i} nacre jolt",
        })
    return rows


@pytest.fixture
def two_hop_setup(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        "\n".join(json.dumps(r) for r in two_hop_corpus()) + "\n")
    dataset_path = tmp_path / "dataset.jsonl"
    dataset_path.write_text(json.dumps({
        "id": "hop2", "question": QUESTION, "gold_answers": ["35124"],
        "gold_paragraph_ids": ["gold_hop1", "gold_hop2"],
    }) + "\n")
    return corpus_path, dataset_path


def write_rules(path: Path, rows) -> None:
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


class TestCriterion7TwoHopScenario:
    def test_tree_mode_recovers_both_hops(self, tmp_path, two_hop_setup):
        corpus_path, dataset_path = two_hop_setup
        embedder = HashedEmbedder(dim=64, seed=0)
        from revtree.corpus import load_paragraphs

        index = build_index(load_paragraphs(corpus_path), embedder)
        top5 = [p.id for p, _ in retrieve(index, QUESTION, 5, embedder)]
        assert "gold_hop1" in top5, top5
        assert "decoy_hall" in top5, top5
        top3 = [p.id for p, _ in retrieve(index, MPC_QUERY, 3, embedder)]
        assert "gold_hop2" in top3, top3

        rules_path = tmp_path / "tor_rules.jsonl"
        write_rules(rules_path, [
            {"template": "review_cot", "path_ids": ["gold_hop1"],
             "response": render_review_output(ReviewDecision.search("draft"))},
            {"template": "mpc", "path_ids": ["gold_hop1"],
             "response": render_mpc_output(MPC_QUERY, "the answer is known")},
            {"template": "review_cot", "path_ids": ["gold_hop1", "gold_hop2"],
             "response": render_review_output(
                 ReviewDecision.accept("the population of the city was 35124"))},
            {"template": "fusion_evidence",
             "response": "Both hops agree. The answer is 35124."},
            {"default": render_review_output(ReviewDecision.reject("off topic"))},
        ])

        out = tmp_path / "tor_run"
        assert main(["run", "--corpus", str(corpus_path), "--dataset",
                     str(dataset_path), "--out", str(out), "--rules",
                     str(rules_path), "--mode", "tor", "--seed", "0"]) == 0
        assert main(["eval", "--dataset", str(dataset_path),
                     "--run", str(out)]) == 0
        report_data = json.loads((out / "report.json").read_text())
        assert report_data["em"] == 1.0
        assert report_data["recall_at_15"] == 1.0
        answer = json.loads((out / "answers.jsonl").read_text())
        assert answer["answer"] == "35124"
        assert set(answer["scored_ids"]) == {"gold_hop1", "gold_hop2"}
        report(7, "tree mode: recall@15 == 1.0 and EM == 1 on the 2-hop fixture")

    def test_chain_mode_cascades_into_the_wrong_answer(self, tmp_path,
                                                       two_hop_setup):
        corpus_path, dataset_path = two_hop_setup
        embedder = HashedEmbedder(dim=64, seed=0)
        from revtree.corpus import load_paragraphs

        index = build_index(load_paragraphs(corpus_path), embedder)
        turn1_ids = [p.id for p, _ in retrieve(index, QUESTION, 5, embedder)]

        rules_path = tmp_path / "cor_rules.jsonl"
        write_rules(rules_path, [
            # the decoy in the shared context steers the first new query
            {"template": "cor", "path_ids": turn1_ids,
             "response": render_review_output(ReviewDecision.search(COR_QUERY))},
            {"template": "cor",
             "response": render_review_output(ReviewDecision.accept(
                 "the population of dorchester was 22000"))},
            {"template": "fusion_evidence",
             "response": "Following the chain. The answer is 22000."},
            {"default": render_review_output(ReviewDecision.reject())},
        ])

        out = tmp_path / "cor_run"
        assert main(["run", "--corpus", str(corpus_path), "--dataset",
                     str(dataset_path), "--out", str(out), "--rules",
                     str(rules_path), "--mode", "cor", "--seed", "0"]) == 0
        assert main(["eval", "--dataset", str(dataset_path),
                     "--run", str(out)]) == 0
        report_data = json.loads((out / "report.json").read_text())
        assert report_data["em"] == 0.0
        answer = json.loads((out / "answers.jsonl").read_text())
        assert answer["answer"] == "22000"
        report(7, "chain mode: the misleading first retrieval yields EM == 0")


class TestCriterion8Determinism:
    def test_two_runs_are_byte_identical(self, tmp_path, two_hop_setup):
        corpus_path, dataset_path = two_hop_setup
        rules_path = tmp_path / "rules.jsonl"
        write_rules(rules_path, [
            {"template": "review_cot", "path_ids": ["gold_hop1"],
             "response": render_review_output(ReviewDecision.search("draft"))},
            {"template": "mpc", "path_ids": ["gold_hop1"],
             "response": render_mpc_output(MPC_QUERY)},
            {"template": "review_cot", "path_ids": ["gold_hop1", "gold_hop2"],
             "response": render_review_output(
                 ReviewDecision.accept("the population was 35124"))},
            {"template": "fusion_evidence",
             "response": "The answer is 35124."},
            {"default": render_review_output(ReviewDecision.reject())},
        ])
        out = tmp_path / "run"
        args = ["run", "--corpus", str(corpus_path), "--dataset",
                str(dataset_path), "--out", str(out), "--rules",
                str(rules_path), "--seed", "0"]

        def snapshot() -> dict:
            assert main(args) == 0
            assert main(["eval", "--dataset", str(dataset_path),
                         "--run", str(out)]) == 0
            return {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        first = snapshot()
        second = snapshot()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        report(8, f"{len(first)} output files byte-identical across two runs")
