"""The verdicts and run summaries of ``scripts/bench_record.py``."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"

spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
sys.modules["bench_record"] = bench_record
spec.loader.exec_module(bench_record)

BASELINE = [60.0, 61.0, 62.0, 59.0, 60.5, 61.5, 58.5, 62.5, 60.0, 61.0]


def paired(baseline, change):
    return list(zip(baseline, change))


@pytest.mark.parametrize("change, better, expected", [
    # wins 10/10 by more than the baseline's interquartile range
    ([b - 3.0 for b in BASELINE], "lower", "gain"),
    ([b + 3.0 for b in BASELINE], "higher", "gain"),
    # wins 10/10, but by less than the baseline's interquartile range
    ([b - 0.5 for b in BASELINE], "lower", "within bound"),
    # by more than that range, but wins only 8/10
    ([b - 3.0 for b in BASELINE[:8]] + [b + 1.0 for b in BASELINE[8:]], "lower",
     "within bound"),
    # ties count for neither side
    (list(BASELINE), "lower", "within bound"),
    # worse than the bound, a quarter of the baseline's median
    ([b * 1.3 for b in BASELINE], "lower", "worse"),
    ([b * 0.7 for b in BASELINE], "higher", "worse"),
    ([b * 1.2 for b in BASELINE], "lower", "within bound"),
])
def test_verdict(change, better, expected):
    assert bench_record.verdict(paired(BASELINE, change), better, 0.25) == expected


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate():
    wide = [100.0, 100.0, 100.0, 100.0, 100.0, 300.0, 300.0, 300.0, 300.0, 300.0]
    # the medians agree, but either side's runs spread past the bound
    assert bench_record.verdict(paired(wide, list(reversed(wide))), "lower",
                                0.25) == "unresolved"
    assert bench_record.verdict(paired(BASELINE, [b * 3 if i % 2 else b
                                                  for i, b in enumerate(BASELINE)]),
                                "higher", 0.25) == "unresolved"
    # every change run reads better than every baseline run, by less than
    # the baseline's interquartile range
    assert bench_record.verdict(paired(wide, [99.0] * 10), "lower", 0.25) == \
        "within bound"


def test_summary_records_the_fewest_and_most_questions_attempted():
    runs = [{"correct": True, "failed": 0, "attempted": n, "metrics": {"qps": q}}
            for n, q in [(160, 16.0), (152, 15.0), (160, 17.0)]]
    summary = bench_record.summarize(runs)
    assert summary["attempted"] == {"min": 152, "max": 160}
    assert summary["metrics"]["qps"]["median"] == 16.0


def test_checkout_info_counts_the_source_lines(tmp_path):
    src = tmp_path / "src" / "revtree"
    src.mkdir(parents=True)
    (src / "a.py").write_text("one\ntwo\n")
    (src / "b.py").write_text("three\nfour\nfive")
    (src / "notes.txt").write_text("not\ncounted\n")
    assert bench_record.checkout_info(tmp_path)["src_lines"] == 5


def run(qps, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "attempted": 100,
            "metrics": {"qps": qps} if qps is not None else {}}


QPS = [{"name": "qps", "better": "higher", "bound": 0.25}]


def test_comparison_leaves_out_pairs_with_a_failed_or_crashed_run():
    pairs = [(run(b), run(b + 3.0)) for b in BASELINE]
    table, excluded = bench_record.compare(pairs, QPS)
    assert excluded == 0
    assert table["qps"]["wins"] == 10 and table["qps"]["verdict"] == "gain"
    # a crashed change run, a change run with a failed question, an
    # incorrect baseline run: each pair is left out, and what is left unresolved
    pairs[0] = (pairs[0][0], run(None, correct=False))
    pairs[1] = (pairs[1][0], run(1e6, failed=1))
    pairs[2] = (run(1e-6, correct=False), pairs[2][1])
    table, excluded = bench_record.compare(pairs, QPS)
    assert excluded == 3
    assert table["qps"] == {"better": "higher", "wins": 7, "pairs": 7,
                            "median_ratio": pytest.approx(
                                sorted((b + 3.0) / b for b in BASELINE[3:])[3]),
                            "bound": 0.25, "verdict": "unresolved"}
    # no pair left at all
    table, excluded = bench_record.compare([(run(None, correct=False), run(1.0))], QPS)
    assert excluded == 1 and table["qps"]["pairs"] == 0
    assert table["qps"]["verdict"] == "unresolved"
