"""Differential check of the tree walk against an independent simulator.

The simulator re-implements the documented walk from scratch (explicit
bookkeeping, no shared tree code): batch candidate filtering at retrieval
time, rank-order depth-first visits, relevance/repetitive pruning, within-path
dedup, and the expansion strategies.  Retrieval itself is shared, since it has
its own brute-force oracle elsewhere; this test targets the walk logic.
"""

from __future__ import annotations

import hashlib
import random

from revtree import (
    ExpansionStrategy,
    Paragraph,
    ReviewDecision,
    TreeConfig,
    build_index,
    HashedEmbedder,
    render_mpc_output,
    render_review_output,
    retrieve,
    run_tree,
)


def _digest(seed: int, path: tuple[str, ...], salt: str = "") -> int:
    key = f"{seed}|{salt}|{'/'.join(path)}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class Policy:
    """Deterministic decision policy keyed on the path's paragraph ids."""

    def __init__(self, seed: int, vocab_size: int):
        self.seed = seed
        self.vocab_size = vocab_size

    def decide(self, path: tuple[str, ...]) -> str:
        roll = _digest(self.seed, path) % 100
        if roll < 20:
            return "accept"
        if roll < 50:
            return "reject"
        return "search"

    def search_query(self, path: tuple[str, ...]) -> str:
        h = _digest(self.seed, path, salt="query")
        return " ".join(f"t{(h >> (8 * i)) % self.vocab_size}" for i in range(3))

    def mpc_query(self, path: tuple[str, ...]) -> str:
        h = _digest(self.seed, path, salt="mpc")
        return " ".join(f"t{(h >> (8 * i)) % self.vocab_size}" for i in range(3))

    def analysis(self, path: tuple[str, ...]) -> str:
        return f"analysis {_digest(self.seed, path, salt='a') % 10_000}"


class PolicyProvider:
    """Serves the policy's decisions as canonical completion texts."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self.review_paths: list[tuple[str, ...]] = []

    def generate(self, request, call_index):
        path = tuple(request.tags["path_ids"])
        if request.tags["template"] == "mpc":
            return render_mpc_output(self.policy.mpc_query(path), "side answer")
        self.review_paths.append(path)
        action = self.policy.decide(path)
        if action == "accept":
            return render_review_output(
                ReviewDecision.accept(self.policy.analysis(path)))
        if action == "reject":
            return render_review_output(ReviewDecision.reject("no"))
        return render_review_output(
            ReviewDecision.search(self.policy.search_query(path)))


def simulate(question: str, config: TreeConfig, index, embedder,
             policy: Policy) -> dict:
    """Independent reference walk over the same corpus and policy."""
    accepted: set[str] = set()
    reviews: list[tuple[str, ...]] = []
    evidence: list[tuple[str, ...]] = []
    calls = 0
    pruned_repetitive = 0
    use_mpc = config.expansion is ExpansionStrategy.MPC

    def batch(query: str, parent_path: tuple[str, ...],
              child_depth: int) -> list[tuple[str, str]]:
        nonlocal pruned_repetitive
        ids = [p.id for p, _ in retrieve(index, query,
                                         config.widths[child_depth - 1],
                                         embedder)]
        kept = []
        for pid in ids:
            if config.repetitive_pruning and pid in accepted:
                pruned_repetitive += 1
                continue
            if config.within_path_dedup and pid in parent_path:
                continue
            kept.append((pid, query))
        return kept

    def walk(candidates: list[tuple[str, str]],
             parent_path: tuple[str, ...]) -> None:
        nonlocal calls
        for pid, incoming_query in candidates:
            path = parent_path + (pid,)
            depth = len(path)
            calls += 1
            reviews.append(path)
            action = policy.decide(path)
            if action == "search" and use_mpc:
                calls += 1
            if action == "accept":
                evidence.append(path)
                accepted.update(path)
                continue
            if action == "reject":
                if not config.relevance_pruning and depth < config.max_depth:
                    walk(batch(incoming_query, path, depth + 1), path)
                continue
            if depth < config.max_depth:
                query = policy.mpc_query(path) if use_mpc \
                    else policy.search_query(path)
                walk(batch(query, path, depth + 1), path)

    walk(batch(question, (), 1), ())
    return {
        "calls": calls,
        "reviews": reviews,
        "evidence": evidence,
        "pruned_repetitive": pruned_repetitive,
    }


def test_tree_matches_reference_simulator_across_random_scenarios():
    rng = random.Random(2024)
    vocab_size = 40
    width_options = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)]
    for scenario in range(60):
        embedder = HashedEmbedder(dim=64, seed=scenario)
        n = rng.randint(25, 60)
        paragraphs = [
            Paragraph(
                f"s{scenario}p{i:03d}", "",
                " ".join(f"t{rng.randrange(vocab_size)}"
                         for _ in range(rng.randint(2, 5))),
            )
            for i in range(n)
        ]
        index = build_index(paragraphs, embedder)
        widths = rng.choice(width_options)
        config = TreeConfig(
            widths=widths,
            relevance_pruning=rng.random() < 0.5,
            repetitive_pruning=rng.random() < 0.5,
            within_path_dedup=rng.random() < 0.5,
            expansion=rng.choice([ExpansionStrategy.COT, ExpansionStrategy.MPC]),
        )
        policy = Policy(seed=scenario * 7 + 1, vocab_size=vocab_size)
        question = " ".join(f"t{rng.randrange(vocab_size)}" for _ in range(3))

        provider = PolicyProvider(policy)
        pool, stats, _trace = run_tree(question, config, index, embedder,
                                       provider)
        reference = simulate(question, config, index, embedder, policy)

        context = (scenario, widths, config.expansion.value,
                   config.relevance_pruning, config.repetitive_pruning,
                   config.within_path_dedup)
        assert provider.review_paths == reference["reviews"], context
        assert stats.api_calls == reference["calls"], context
        assert [e.paragraph_ids() for e in pool] == reference["evidence"], context
        assert stats.pruned_repetitive == reference["pruned_repetitive"], context
