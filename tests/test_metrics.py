"""Answer normalization, EM/F1, recall, and report aggregation."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revtree import (
    ExampleResult,
    QAExample,
    RunStats,
    evaluate_run,
    exact_match,
    f1_score,
    load_dataset,
    normalize_answer,
    recall_at_k,
)
from revtree.errors import RevtreeError
from revtree.metrics import sum_results

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz ,.!ABC", max_size=40)


class TestNormalize:
    def test_strips_article_case_and_punctuation(self):
        assert normalize_answer("The Answer!") == "answer"

    def test_all_articles_collapse_to_empty(self):
        assert normalize_answer("a  an the") == ""

    def test_keeps_content_words(self):
        assert normalize_answer("Boston, Massachusetts") == "boston massachusetts"

    @given(words)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestExactMatch:
    def test_article_removal_matches(self):
        assert exact_match("Boston", ["the Boston"]) == 1

    def test_strict_token_equality(self):
        assert exact_match("Boston city", ["Boston"]) == 0

    def test_degenerate_empty_equality(self):
        assert exact_match("", [""]) == 1

    def test_max_over_gold_aliases(self):
        assert exact_match("NYC", ["New York", "nyc"]) == 1

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            exact_match("x", [])


class TestF1:
    def test_identical_strings(self):
        assert f1_score("exact words", ["exact words"]) == 1.0

    def test_derived_half(self):
        # prediction token {boston}; gold tokens {city, of, boston} after
        # article removal: precision 1, recall 1/3, F1 = 2/(1+3) = 0.5
        assert f1_score("Boston", ["the city of Boston"]) == pytest.approx(0.5)

    def test_disjoint_tokens(self):
        assert f1_score("alpha beta", ["gamma delta"]) == 0.0

    def test_both_empty(self):
        assert f1_score("", [""]) == 1.0

    def test_one_empty(self):
        assert f1_score("", ["something"]) == 0.0
        assert f1_score("something", [""]) == 0.0

    def test_max_over_golds(self):
        assert f1_score("boston", ["tokyo", "boston"]) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError, match="gold_answers must be non-empty"):
            f1_score("x", [])

    @given(words, words)
    def test_em_implies_f1_and_bounds(self, pred, gold):
        em = exact_match(pred, [gold])
        f1 = f1_score(pred, [gold])
        assert 0.0 <= f1 <= 1.0
        assert em <= f1 + 1e-12

    @given(words, words)
    def test_symmetric_for_single_gold(self, a, b):
        assert f1_score(a, [b]) == pytest.approx(f1_score(b, [a]))


def brute_force_f1(prediction: str, gold: str) -> float:
    """Independent oracle: explicit multiset intersection arithmetic."""
    p = Counter(normalize_answer(prediction).split())
    g = Counter(normalize_answer(gold).split())
    if not p or not g:
        return 1.0 if p == g else 0.0
    inter = sum(min(p[t], g[t]) for t in set(p) | set(g))
    if inter == 0:
        return 0.0
    precision = inter / sum(p.values())
    recall = inter / sum(g.values())
    return 2 * precision * recall / (precision + recall)


def test_f1_matches_independent_oracle():
    cases = [
        ("Boston", "the city of Boston"),
        ("a b c", "a b c d"),
        ("one two two", "two two three"),
        ("", ""),
        ("word", ""),
        ("The0 punct!", "punct the0"),
    ]
    for pred, gold in cases:
        assert f1_score(pred, [gold]) == pytest.approx(brute_force_f1(pred, gold),
                                                       abs=1e-12)


class TestRecall:
    def test_half_recall(self):
        assert recall_at_k(["a", "c", "d"], {"a", "b"}) == 0.5

    def test_containment_is_one(self):
        assert recall_at_k(["a", "b", "c"], {"a", "b"}) == 1.0

    def test_empty_retrieved_is_zero(self):
        assert recall_at_k([], {"a"}) == 0.0

    def test_window_clamps_at_k(self):
        retrieved = [f"x{i}" for i in range(20)] + ["gold"]
        assert recall_at_k(retrieved, {"gold"}, k=15) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(["a"], set())

    @given(st.lists(st.sampled_from("abcdefgh"), max_size=12, unique=True))
    def test_monotone_in_k(self, retrieved):
        gold = {"a", "d", "g"}
        values = [recall_at_k(retrieved, gold, k=k) for k in range(1, 13)]
        assert all(x <= y for x, y in zip(values, values[1:]))


def example(i, golds, gold_ids=()):
    return QAExample(id=f"q{i}", question=f"question {i}",
                     gold_answers=tuple(golds),
                     gold_paragraph_ids=frozenset(gold_ids))


def result(i, answer, scored=(), **stats):
    return ExampleResult(example_id=f"q{i}", answer=answer,
                         scored_ids=tuple(scored), stats=RunStats(**stats))


class TestEvaluateRun:
    def test_single_perfect_example(self):
        dataset = [example(0, ["Boston"], {"p1"})]
        results = {"q0": result(0, "boston", ["p1"], api_calls=4,
                                distinct_docs=4, evidence_count=1)}
        report = evaluate_run(dataset, results)
        assert report.em == 1.0
        assert report.f1 == 1.0
        assert report.recall_at_15 == 1.0
        assert report.n == 1

    def test_mean_of_mixed_em(self):
        dataset = [example(0, ["right"]), example(1, ["right"])]
        results = {
            "q0": result(0, "right"),
            "q1": result(1, "wrong"),
        }
        report = evaluate_run(dataset, results)
        assert report.em == 0.5

    def test_missing_result_names_example(self):
        dataset = [example(0, ["x"]), example(1, ["y"])]
        with pytest.raises(RevtreeError, match="q1"):
            evaluate_run(dataset, {"q0": result(0, "x")})

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            evaluate_run([], {})

    def test_examples_without_gold_ids_excluded_from_recall(self):
        dataset = [example(0, ["x"], {"p1"}), example(1, ["y"])]
        results = {
            "q0": result(0, "x", ["p1"]),
            "q1": result(1, "y"),
        }
        report = evaluate_run(dataset, results)
        assert report.recall_at_15 == 1.0
        assert report.recall_excluded == 1

    def test_fixture_batch_matches_hand_computation(self):
        dataset = [
            example(0, ["Boston"], {"g1", "g2"}),
            example(1, ["42"], {"g3"}),
            example(2, ["the city of Boston"]),
        ]
        results = {
            "q0": result(0, "Boston", ["g1", "x"], api_calls=10,
                         distinct_docs=8, evidence_count=2, parse_failures=1),
            "q1": result(1, "41", ["g3"], api_calls=4, distinct_docs=4,
                         evidence_count=1),
            "q2": result(2, "Boston", [], api_calls=6, distinct_docs=6,
                         evidence_count=1, parse_failures=1),
        }
        report = evaluate_run(dataset, results)
        # hand computation:
        #   em = (1 + 0 + 0) / 3
        #   f1 = (1 + 0 + 0.5) / 3
        #   recall = (0.5 + 1.0) / 2 over the two scored examples
        #   mean api = 20/3, mean docs = 6, rate = 6/(20/3) = 0.9
        #   parse success = 1 - 2/20
        assert report.em == pytest.approx(1 / 3)
        assert report.f1 == pytest.approx((1 + 0 + 0.5) / 3)
        assert report.recall_at_15 == pytest.approx(0.75)
        assert report.mean_api_calls == pytest.approx(20 / 3)
        assert report.mean_distinct_docs == pytest.approx(6.0)
        assert report.mean_rate == pytest.approx(6.0 / (20 / 3))
        assert report.parse_success_rate == pytest.approx(0.9)
        assert report.recall_excluded == 1

    def test_a_failed_result_is_counted_and_not_summed(self):
        done = ExampleResult("q0", "x", stats=RunStats(api_calls=5, distinct_docs=3,
                                                      provider_failures=1),
                             fusion_calls=2)
        failed = ExampleResult("q1", "", stats=RunStats(api_calls=7), fusion_calls=1,
                               failed=True)
        totals = sum_results([done, failed, done])
        assert totals == {"completed": 2, "failed": 1, "fusion_calls": 4,
                          "api_calls": 10, "distinct_docs": 6, "evidence_count": 0,
                          "parse_failures": 0, "provider_failures": 2}
        report = evaluate_run([example(0, ["x"]), example(1, ["y"])],
                              {"q0": done, "q1": failed})
        assert (report.failed, report.mean_api_calls, report.total_provider_failures) \
            == (1, 5.0, 1)
        assert sum_results([failed])["api_calls"] == 0

    def test_report_table_renders(self):
        dataset = [example(0, ["x"])]
        report = evaluate_run(dataset, {"q0": result(0, "x")})
        table = report.format_table()
        assert "EM" in table and "Recall@15" in table


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        rows = [
            {"id": "q1", "question": "who?", "gold_answers": ["him"],
             "gold_paragraph_ids": ["p1", "p2"]},
            {"id": "q2", "question": "what?", "gold_answers": ["that"]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        examples = load_dataset(path)
        assert [e.id for e in examples] == ["q1", "q2"]
        assert examples[0].gold_paragraph_ids == {"p1", "p2"}
        assert examples[1].gold_paragraph_ids == frozenset()

    def test_empty_gold_answers_rejected(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text(json.dumps(
            {"id": "q1", "question": "?", "gold_answers": []}) + "\n")
        with pytest.raises(RevtreeError, match="line 1"):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        row = {"id": "q1", "question": "?", "gold_answers": ["x"]}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(RevtreeError, match="duplicate"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("gold_answers", "Boston"),
        ("gold_answers", ["Boston", 7]),
        ("gold_paragraph_ids", "p1"),
        ("gold_paragraph_ids", None),
    ])
    def test_list_fields_must_be_lists_of_strings(self, tmp_path, field, value):
        # a bare string used to be split into its characters
        path = tmp_path / "dataset.jsonl"
        good = {"id": "q1", "question": "?", "gold_answers": ["x"]}
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps(dict(good, id="q2", **{field: value})) + "\n")
        with pytest.raises(RevtreeError, match=re.escape(
                f"{path}: line 2: {field} must be a list of strings, got {value!r}")):
            load_dataset(path)

    def test_an_id_that_is_a_safe_file_name_is_kept(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text(json.dumps({"id": "q.1 (b)", "question": "?",
                                    "gold_answers": ["x"]}) + "\n")
        assert [e.id for e in load_dataset(path)] == ["q.1 (b)"]

    def test_non_object_line_names_the_line(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text('\n["q1", "?", ["x"]]\n')
        with pytest.raises(RevtreeError, match="line 2: record must be an object"):
            load_dataset(path)
