"""The output checks pass on real outputs and fail on corrupted ones.

    python3 -m pytest -q benchmark/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from revtree import HashedEmbedder, LlmClient, Paragraph, TreeConfig, build_index, \
    generate_answer, run_tree  # noqa: E402
from revtree.fusion import FusionStrategy  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import simmodel  # noqa: E402

BUDGET = 700


@pytest.fixture(scope="module")
def answered():
    """One question answered by the program over a small seeded corpus."""
    vocab = gen.make_vocab(3)
    records = list(gen.vocab_records(3, vocab, 300, 20, 40))
    question = gen.vocab_questions(3, vocab, 1)[0]
    policy = simmodel.MostlySearchPolicy(3, vocab, TreeConfig().max_depth,
                                         accept_share=0.5)
    model = simmodel.SimModel(policy, {question.text: question.gold})
    embedder = HashedEmbedder(dim=16, seed=0)
    index = build_index([Paragraph(*r) for r in records], embedder)
    client = LlmClient(simmodel.SimProvider(model))
    pool, stats, trace = run_tree(question.text, TreeConfig(), index, embedder, client)
    answer = generate_answer(question.text, pool, FusionStrategy.EVIDENCE, client, BUDGET)
    ids = sorted(r[0] for r in records)
    return {
        "records": {pid: (title, text) for pid, title, text in records},
        "question": question,
        "model": model,
        "stats": stats,
        "trace": json.loads(trace.to_json()),
        "trace_json": trace.to_json(),
        "answer": answer,
        "unit": checks.unit_rows([index.embedding(pid) for pid in ids]),
        "ids": ids,
        "embed": HashedEmbedder(dim=16, seed=0).embed_text,
    }


def _ranking(a, trace):
    return checks.check_ranking(trace, a["unit"], a["ids"], a["embed"])


def test_ranking_passes_and_catches_swapped_ranks(answered):
    assert _ranking(answered, answered["trace"]) == []
    corrupted = copy.deepcopy(answered["trace"])
    first, second = [n for n in corrupted["nodes"] if n["parent"] is None][:2]
    first["rank"], second["rank"] = second["rank"], first["rank"]
    assert any("ranking" in e for e in _ranking(answered, corrupted))


def test_ranking_catches_a_missing_candidate(answered):
    corrupted = copy.deepcopy(answered["trace"])
    del corrupted["nodes"][0]
    assert _ranking(answered, corrupted)


def test_ranking_catches_a_swallowed_retrieval(answered):
    corrupted = copy.deepcopy(answered["trace"])
    searched = next(n for n in corrupted["nodes"]
                    if n["decision"] == "search" and n["children"])
    # what a trace looks like when the retrieval under one node raised
    corrupted["nodes"] = [n for n in corrupted["nodes"] if n["parent"] != searched["index"]]
    corrupted["pruned"] = [p for p in corrupted["pruned"] if p["parent"] != searched["index"]]
    assert any("missing" in e for e in _ranking(answered, corrupted))
    empty = dict(copy.deepcopy(answered["trace"]), nodes=[], pruned=[])
    assert any("missing" in e
               for e in checks.check_retrieval_groups(empty, len(answered["ids"])))


def test_planted_counts_match_a_program_run():
    world = gen.planted_world(5, questions=3)
    model = simmodel.SimModel(simmodel.PlantedPolicy(world),
                              {q.text: q.gold for q in world.questions})
    embedder = HashedEmbedder(dim=64, seed=0)
    index = build_index([Paragraph(*r) for r in world.records], embedder)
    want = gen.planted_counts()
    for question in world.questions:
        before = model.completions
        client = LlmClient(simmodel.SimProvider(model))
        pool, stats, trace = run_tree(question.text, TreeConfig(), index, embedder, client)
        answer = generate_answer(question.text, pool, FusionStrategy.EVIDENCE, client, 4096)
        got = {"nodes": len(trace.nodes), "completions": model.completions - before,
               "parse_failures": stats.parse_failures, "answer": answer.extracted_answer}
        assert got == {"nodes": want.nodes, "completions": want.completions,
                       "parse_failures": want.malformed, "answer": question.gold}
        assert checks.check_counts(got, dict(got, nodes=want.nodes + 1), "q")


def test_calls_pass_and_catch_a_dropped_call(answered):
    stats, model = answered["stats"], answered["model"]
    trace_calls = checks.calls_from_trace(answered["trace"])
    assert checks.check_calls(stats.api_calls, 1, model.completions, trace_calls, "q") == []
    assert checks.check_calls(stats.api_calls - 1, 1, model.completions, trace_calls, "q")
    dropped = copy.deepcopy(answered["trace"])
    searched = next(n for n in dropped["nodes"] if n["decision"] == "search")
    searched["decision"] = "accept"
    assert checks.check_calls(stats.api_calls, 1, model.completions,
                              checks.calls_from_trace(dropped), "q")


def test_parse_accounting_catches_a_mismatch():
    assert checks.check_parse_failures(2, 2) == []
    assert checks.check_parse_failures(1, 2)


def _tokens(a):
    return checks.block_tokens(a["trace"]["evidence"], a["records"].__getitem__)


def test_packing_passes_and_catches_over_budget(answered):
    tokens = _tokens(answered)
    limit = checks.fusion_limit(answered["question"].text, BUDGET)
    included = list(answered["answer"].evidence_included)
    assert 0 < len(included) < len(tokens), "the fixture must overflow its budget"
    assert checks.check_packing(included, tokens, limit, "q") == []
    over = included + [len(included)]
    assert any("over limit" in e for e in checks.check_packing(over, tokens, limit, "q"))
    under = included[:-1]
    assert any("would still fit" in e
               for e in checks.check_packing(under, tokens, limit, "q"))
    assert checks.check_packing([1], tokens, limit, "q")


def test_answers_catch_a_wrong_answer(answered):
    question = answered["question"]
    golds = {question.id: question.gold}
    right = {question.id: answered["answer"].extracted_answer}
    assert checks.check_answers(right, golds, {question.id: 1}, 1.0) == []
    assert checks.check_answers({question.id: "unknown"}, golds, {question.id: 1}, 1.0)
    assert checks.check_answers(right, golds, {question.id: 1}, 0.0)


def test_reruns_catch_a_changed_trace_byte(answered):
    original = answered["trace_json"].encode("utf-8")
    assert checks.check_reruns({"q": original}, {"q": bytes(original)}) == []
    changed = bytearray(original)
    changed[len(changed) // 2] ^= 1
    assert checks.check_reruns({"q": original}, {"q": bytes(changed)})
