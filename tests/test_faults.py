"""Seeded fault injection: provider and query-embedding errors at chosen
attempts never abort a run, leave call indices strictly increasing, and every
failure that a retry does not absorb is counted once."""

from __future__ import annotations

import functools
import json
import random

import pytest

from revtree import ExpansionStrategy, LlmClient, ReviewDecision, ScriptedOracle, \
    TreeConfig, render_mpc_output, render_review_output, run_chain, run_oner, run_tree
from revtree import cli
from revtree.cli import main
from revtree.embedding import EmbeddingProvider
from revtree.errors import ProviderError, TransportError
from tests.conftest import SeededDecisionProvider, fresh_corpus
from tests.test_cli import run_args, write_jsonl


class FaultInjector:
    """Wraps a provider.  Each ``generate`` attempt, counted over the
    wrapper's life, raises :class:`TransportError` or :class:`ProviderError`
    with seeded odds.

    ``LlmClient`` retries a transport error; a call fails on a provider error
    or on ``max_attempts`` transport errors in a row.  ``failed`` holds the
    ``(question, template)`` tags of each failed call.
    """

    def __init__(self, inner, seed: int, p_transport: float = 0.2,
                 p_provider: float = 0.08, max_attempts: int = 3):
        self.inner = inner
        self.seed = seed
        self.p_transport = p_transport
        self.p_provider = p_provider
        self.max_attempts = max_attempts
        self.attempts = 0
        self.transport_errors = 0
        self.streak = 0
        self.failed: list[tuple] = []

    def generate(self, request, call_index):
        self.attempts += 1
        roll = random.Random(self.seed * 1_000_003 + self.attempts).random()
        tags = (request.tags.get("question"), request.tags.get("template"))
        if roll < self.p_provider:
            self.streak = 0
            self.failed.append(tags)
            raise ProviderError(f"injected at attempt {self.attempts}")
        if roll < self.p_provider + self.p_transport:
            self.transport_errors += 1
            self.streak += 1
            if self.streak == self.max_attempts:
                self.streak = 0
                self.failed.append(tags)
            raise TransportError(f"injected at attempt {self.attempts}")
        self.streak = 0
        return self.inner.generate(request, call_index)


class FailingQueryEmbedder(EmbeddingProvider):
    """Wraps an embedder.  Each ``embed_text`` call, counted over the
    wrapper's life, raises with seeded odds.  ``failed`` counts the raised
    calls.  A batch goes through the base ``embed_texts``, one
    ``embed_text`` call per text in order, so an index built through the
    wrapper would draw from the same odds: build it with ``inner``."""

    def __init__(self, inner, seed: int, p_fail: float = 0.3):
        self.inner = inner
        self.seed = seed
        self.p_fail = p_fail
        self.provider_id = inner.provider_id
        self.dim = inner.dim
        self.calls = 0
        self.failed = 0

    def embed_text(self, text):
        self.calls += 1
        if random.Random(self.seed * 1_000_003 + self.calls).random() < self.p_fail:
            self.failed += 1
            raise RuntimeError(f"injected at query embedding {self.calls}")
        return self.inner.embed_text(text)


class SeededReviewer(SeededDecisionProvider):
    """Seeded review verdicts, and a query for every MPC call."""

    def generate(self, request, call_index):
        if request.tags.get("template") == "mpc":
            return render_mpc_output(f"q{self.seed}m{call_index}")
        return super().generate(request, call_index)


def fail_run_queries(monkeypatch, seed: int, p_fail: float = 0.3) -> tuple[list, list]:
    """Make ``revtree run`` embed through a :class:`FailingQueryEmbedder`
    around the embedder it builds, and build its index with the wrapped
    embedder, so that every seeded draw falls on a question's embedding.

    Returns the list the run's wrapper is put in and the list of the
    wrapper's call counts as each question starts."""
    embedders, calls_at_start = [], []
    build_embedder, build_index, run_one = \
        cli._build_embedder, cli.build_index, cli._run_one

    def faulty_embedder(*args):
        embedders.append(FailingQueryEmbedder(build_embedder(*args), seed, p_fail))
        return embedders[-1]

    def index_from_inner(paragraphs, provider, **kwargs):
        return build_index(paragraphs, provider.inner, **kwargs)

    def counted_run_one(example, config, index, embedder, *rest):
        calls_at_start.append(embedder.calls)
        return run_one(example, config, index, embedder, *rest)

    monkeypatch.setattr(cli, "_build_embedder", faulty_embedder)
    monkeypatch.setattr(cli, "build_index", index_from_inner)
    monkeypatch.setattr(cli, "_run_one", counted_run_one)
    return embedders, calls_at_start


def no_sleep_client(provider) -> LlmClient:
    return LlmClient(provider, sleep=lambda _s: None)


def visit_order(nodes: list[dict]) -> list[dict]:
    """Trace nodes in the depth-first order the run reviewed them."""
    order: list[dict] = []

    def walk(node):
        order.append(node)
        for child in node["children"]:
            walk(nodes[child])

    for node in nodes:
        if node["parent"] is None:
            walk(node)
    return order


def assert_strictly_increasing(call_indices) -> None:
    issued = [c for c in call_indices if c is not None]
    assert issued == sorted(set(issued))


QUESTIONS = [f"probe{n}" for n in range(8)]


@pytest.mark.parametrize("expansion", [ExpansionStrategy.COT, ExpansionStrategy.MPC])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tree_runs_count_every_unabsorbed_failure(embedder, seed, expansion):
    index = fresh_corpus(groups=8, group_size=4, embedder=embedder)
    injector = FaultInjector(SeededReviewer(seed), seed)
    config = TreeConfig(widths=(4, 2, 2), expansion=expansion)
    total = 0
    for question in QUESTIONS:
        client = no_sleep_client(injector)
        _pool, stats, trace = run_tree(question, config, index, embedder, client)
        assert stats.provider_failures == sum(q == question for q, _ in injector.failed)
        assert stats.api_calls == client.calls
        assert_strictly_increasing(n["call_index"] for n in visit_order(trace.nodes))
        total += stats.provider_failures
    assert total == len(injector.failed) > 0
    assert injector.transport_errors > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_runs_count_every_unabsorbed_failure(embedder, seed):
    index = fresh_corpus(groups=8, group_size=4, embedder=embedder)
    injector = FaultInjector(SeededDecisionProvider(seed, p_search=0.8), seed,
                             p_provider=0.15)
    total = 0
    for n in range(40):
        question = f"probe{n % 8} take {n}"
        client = no_sleep_client(injector)
        _pool, stats, trace = run_chain(question, index, embedder, client)
        assert stats.provider_failures == sum(q == question for q, _ in injector.failed)
        assert_strictly_increasing(t["call_index"] for t in trace.turns)
        total += stats.provider_failures
    assert total == len(injector.failed) > 0
    assert injector.transport_errors > 0


def run_mode(mode: str, question: str, index, embedder, seed: int):
    if mode == "tor":
        return run_tree(question, TreeConfig(widths=(4, 2, 2)), index, embedder,
                        no_sleep_client(SeededReviewer(seed)))
    if mode == "cor":
        return run_chain(question, index, embedder,
                         SeededDecisionProvider(seed, p_search=0.8))
    return run_oner(question, 5, index, embedder)


@pytest.mark.parametrize("mode", ["tor", "cor", "oner"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_embedding_faults_close_branches_not_runs(embedder, seed, mode):
    index = fresh_corpus(groups=8, group_size=4, embedder=embedder)
    faulty = FailingQueryEmbedder(embedder, seed)
    total = 0
    for n in range(16):
        failed_before = faulty.failed
        pool, stats, trace = run_mode(mode, f"probe{n % 8}", index, faulty, seed)
        injected = faulty.failed - failed_before
        assert stats.provider_failures == injected
        assert trace.stats["provider_failures"] == injected
        if mode == "oner":
            assert len(pool) == (0 if injected else 1)
        total += injected
    assert total == faulty.failed > 0
    assert faulty.calls > faulty.failed


@pytest.mark.parametrize("mode", ["tor", "cor"])
def test_cli_run_counts_every_unabsorbed_failure(tmp_path, monkeypatch, mode):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"id": f"p{i}", "title": f"T{i}", "text": f"word{i} shared"}
                         for i in range(6)])
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": f"q{i}", "question": f"word{i} shared",
                           "gold_answers": ["x"]} for i in range(8)])
    rules = tmp_path / "rules.jsonl"
    write_jsonl(rules, [
        {"template": "mpc", "response": render_mpc_output("word1 shared")},
        {"template": "fusion_evidence", "response": "The answer is x."},
        {"question": "word7 shared",
         "response": render_review_output(ReviewDecision.accept("it is x"))},
        {"default": render_review_output(ReviewDecision.search("word2 shared"))},
    ])
    injectors = []

    class FaultyOracle:
        @staticmethod
        def from_file(path):
            injectors.append(FaultInjector(ScriptedOracle.from_file(path), seed=4))
            return injectors[-1]

    monkeypatch.setattr(cli, "ScriptedOracle", FaultyOracle)
    monkeypatch.setattr(cli, "LlmClient",
                        functools.partial(LlmClient, sleep=lambda _s: None))
    out = tmp_path / "run"
    assert main(run_args(corpus, dataset, out, rules, "--mode", mode,
                         "--widths", "3,2,2")) == 0

    injector, = injectors
    records = [json.loads(line) for line in
               (out / "answers.jsonl").read_text().splitlines()]
    completed = [r for r in records if "error" not in r]
    for record in records:
        question = record["id"].replace("q", "word") + " shared"
        fusion_failed = (question, "fusion_evidence") in injector.failed
        assert ("error" in record) == fusion_failed
        if fusion_failed:
            continue
        assert record["stats"]["provider_failures"] == sum(
            q == question for q, _ in injector.failed)
        trace = json.loads((out / "traces" / f"{record['id']}.json").read_text())
        assert_strictly_increasing(
            [n["call_index"] for n in visit_order(trace["nodes"])]
            + [t["call_index"] for t in trace["turns"]])
    summary = json.loads((out / "stats_summary.json").read_text())
    assert summary["total_provider_failures"] == sum(
        r["stats"]["provider_failures"] for r in completed) > 0
    assert summary["failed"] == len(records) - len(completed)
    assert injector.transport_errors > 0
    # eval scores the failed questions as wrong and reports both totals
    assert main(["eval", "--dataset", str(dataset), "--run", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["failed"] == summary["failed"]
    assert report["total_provider_failures"] == summary["total_provider_failures"]
    assert report["n"] == len(records)


@pytest.mark.parametrize("mode", ["tor", "cor", "oner"])
def test_cli_run_counts_every_query_embedding_failure(tmp_path, monkeypatch, mode):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"id": f"p{i}", "title": f"T{i}", "text": f"word{i} shared"}
                         for i in range(6)])
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": f"q{i}", "question": f"word{i} shared",
                           "gold_answers": ["x"]} for i in range(8)])
    rules = tmp_path / "rules.jsonl"
    write_jsonl(rules, [
        {"template": "mpc", "response": render_mpc_output("word1 shared")},
        {"template": "fusion_evidence", "response": "The answer is x."},
        {"template": "fusion_paragraph", "response": "The answer is x."},
        {"question": "word7 shared",
         "response": render_review_output(ReviewDecision.accept("it is x"))},
        {"default": render_review_output(ReviewDecision.search("word2 shared"))},
    ])
    embedders, calls_at_start = fail_run_queries(monkeypatch, seed=6)
    out = tmp_path / "run"
    assert main(run_args(corpus, dataset, out, rules, "--mode", mode,
                         "--widths", "3,2,2")) == 0

    faulty, = embedders
    assert calls_at_start[0] == 0
    records = [json.loads(line) for line in
               (out / "answers.jsonl").read_text().splitlines()]
    assert not any("error" in r for r in records)
    assert sum(r["stats"]["provider_failures"] for r in records) == faulty.failed > 0
    summary = json.loads((out / "stats_summary.json").read_text())
    assert (summary["failed"], summary["total_provider_failures"]) == (0, faulty.failed)
    assert main(["eval", "--dataset", str(dataset), "--run", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["failed"], report["total_provider_failures"]) == (0, faulty.failed)


def test_cli_run_keeps_acceptance_order_when_re_ranking_fails(tmp_path, monkeypatch):
    # every review accepts, so each question's pool holds 20 paragraphs and
    # fusion re-ranks it, embedding the response and each evidence text
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"id": f"p{i:02d}", "title": f"T{i}",
                          "text": f"word{i} shared"} for i in range(30)])
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": f"q{i}", "question": f"word{i} shared",
                           "gold_answers": ["x"]} for i in range(8)])
    rules = tmp_path / "rules.jsonl"
    write_jsonl(rules, [
        {"template": "fusion_evidence", "response": "The answer is x."},
        {"default": render_review_output(ReviewDecision.accept("it is x"))},
    ])
    embedders, calls_at_start = fail_run_queries(monkeypatch, seed=2, p_fail=0.05)
    out = tmp_path / "run"
    assert main(run_args(corpus, dataset, out, rules, "--widths", "20")) == 0

    faulty, = embedders
    assert calls_at_start[0] == 0
    records = [json.loads(line) for line in
               (out / "answers.jsonl").read_text().splitlines()]
    assert not any("error" in r for r in records)
    kept, ranked = 0, 0
    for record in records:
        trace = json.loads((out / "traces" / f"{record['id']}.json").read_text())
        assert trace["stats"] == record["stats"]
        accepted = [e["path"][0] for e in trace["evidence"]]
        if len(accepted) < 20:
            continue    # its retrieval failed
        if record["stats"]["provider_failures"]:
            assert record["scored_ids"] == accepted[:15]
            kept += 1
        else:
            assert record["scored_ids"] != accepted[:15]
            ranked += 1
    assert kept > 0 and ranked > 0
    assert sum(r["stats"]["provider_failures"] for r in records) == faulty.failed
    summary = json.loads((out / "stats_summary.json").read_text())
    assert (summary["failed"], summary["total_provider_failures"]) == (0, faulty.failed)
