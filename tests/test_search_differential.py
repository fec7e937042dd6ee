"""Differential check of the tree walk against an independent simulator.

The simulator re-implements the documented walk from scratch (explicit
bookkeeping, no shared tree code): batch candidate filtering at retrieval
time, rank-order depth-first visits, relevance/repetitive pruning, within-path
dedup, and the expansion strategies.  Retrieval itself is shared, since it has
its own brute-force oracle elsewhere; this test targets the walk logic.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import threading
import time
import weakref

import pytest

from revtree import (
    ExpansionStrategy,
    Paragraph,
    ReviewDecision,
    TreeConfig,
    build_index,
    HashedEmbedder,
    LlmClient,
    RemoteChatProvider,
    ScriptedOracle,
    render_mpc_output,
    render_review_output,
    retrieve,
    run_tree,
)
from revtree import search
from revtree.errors import ProviderError, TransportError


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


def scenarios():
    """The 60 seeded scenarios: (context, question, config, index, embedder,
    policy) each."""
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
        context = (scenario, widths, config.expansion.value,
                   config.relevance_pruning, config.repetitive_pruning,
                   config.within_path_dedup)
        yield context, question, config, index, embedder, policy


def test_tree_matches_reference_simulator_across_random_scenarios():
    for context, question, config, index, embedder, policy in scenarios():
        provider = PolicyProvider(policy)
        pool, stats, _trace = run_tree(question, config, index, embedder,
                                       provider)
        reference = simulate(question, config, index, embedder, policy)

        assert provider.review_paths == reference["reviews"], context
        assert stats.api_calls == reference["calls"], context
        assert [e.paragraph_ids() for e in pool] == reference["evidence"], context
        assert stats.pruned_repetitive == reference["pruned_repetitive"], context


# Overlapped sibling reviews ---------------------------------------------------
#
# An order-free provider lets run_tree review the children of one expansion
# together.  The runs below must equal serial runs byte for byte.


def overlapped(cls):
    """``cls`` marked order-free; each call first sleeps 0-3 ms, seeded by its
    template and path, so that overlapped calls finish out of order."""

    class Overlapped(cls):
        order_free = True

        def generate(self, request, call_index):
            salt = request.tags["template"]
            path = tuple(request.tags["path_ids"])
            time.sleep(_digest(self.policy.seed, path, salt) % 3001 / 1e6)
            return super().generate(request, call_index)

    return Overlapped


def outputs(run) -> tuple:
    pool, stats, trace = run
    return trace.to_json(), stats.to_dict(), list(pool)


def test_overlapped_runs_equal_serial_runs_across_random_scenarios():
    # threads switch far more often than by default, so that a lost update
    # or a commit out of order would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for context, question, config, index, embedder, policy in scenarios():
            serial = PolicyProvider(policy)
            expected = outputs(run_tree(question, config, index, embedder, serial))
            provider = overlapped(PolicyProvider)(policy)
            assert outputs(run_tree(question, config, index, embedder, provider)) \
                == expected, context
            # no review was made that the run did not take
            assert sorted(provider.review_paths) == sorted(serial.review_paths), context
    finally:
        sys.setswitchinterval(interval)


class FaultyPolicyProvider(PolicyProvider):
    """Faults keyed by the request's template and path, never by attempt
    order: a tenth of the calls raise :class:`ProviderError`, and another
    tenth raise :class:`TransportError` on their first attempt only, which
    the client retries."""

    def __init__(self, policy: Policy):
        super().__init__(policy)
        self._lock = threading.Lock()
        self._failed_once: set = set()
        self.transport_errors = 0

    def generate(self, request, call_index):
        key = (request.tags["template"], tuple(request.tags["path_ids"]))
        roll = _digest(self.policy.seed, key[1], "fault " + key[0]) % 10
        if roll == 0:
            raise ProviderError(f"injected at {key}")
        if roll == 1:
            with self._lock:
                first = key not in self._failed_once
                self._failed_once.add(key)
                self.transport_errors += first
            if first:
                raise TransportError(f"injected at {key}")
        return super().generate(request, call_index)


def test_overlapped_runs_equal_serial_runs_under_path_keyed_faults():
    failed = {"review": 0, "mpc": 0}
    retried = 0
    for context, question, config, index, embedder, policy in scenarios():
        runs = []
        for cls in (FaultyPolicyProvider, overlapped(FaultyPolicyProvider)):
            provider = cls(policy)
            runs.append(outputs(run_tree(question, config, index, embedder,
                                         LlmClient(provider, sleep=lambda _s: None))))
            retried += provider.transport_errors
        assert runs[1] == runs[0], context
        for node in json.loads(runs[0][0])["nodes"]:
            if node["decision"] == "provider_failure":
                # an MPC call that failed after its review completed keeps
                # the review's call index
                failed["mpc" if node["call_index"] is not None else "review"] += 1
    assert failed["review"] > 0 and failed["mpc"] > 0
    assert retried > 0


class InflightProvider:
    """Order-free reviewer that searches at every node and records the peak
    number of calls in flight.  The first ``hold`` calls each wait, up to
    2 s, until all of them have started."""

    order_free = True

    def __init__(self, policy: Policy, hold: int):
        self.policy = policy
        self.hold = hold
        self.started = 0
        self.inflight = 0
        self.peak = 0
        self._cond = threading.Condition()

    def generate(self, request, call_index):
        with self._cond:
            self.started += 1
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            self._cond.notify_all()
            if self.started <= self.hold:
                self._cond.wait_for(lambda: self.started >= self.hold, timeout=2.0)
        try:
            time.sleep(0.001)
            path = tuple(request.tags["path_ids"])
            if request.tags["template"] == "mpc":
                return render_mpc_output(self.policy.mpc_query(path))
            return render_review_output(
                ReviewDecision.search(self.policy.search_query(path)))
        finally:
            with self._cond:
                self.inflight -= 1


def test_reviews_in_flight_never_exceed_the_widest_layer():
    embedder = HashedEmbedder(dim=64, seed=3)
    rng = random.Random(3)
    index = build_index([Paragraph(f"p{i:03d}", "",
                                   " ".join(f"t{rng.randrange(40)}" for _ in range(4)))
                         for i in range(80)], embedder)
    config = TreeConfig(widths=(5, 3, 3))
    provider = InflightProvider(Policy(seed=3, vocab_size=40), hold=5)
    _pool, stats, trace = run_tree("t1 t2 t3", config, index, embedder, provider)
    assert provider.peak == 5 == max(config.widths)
    assert len(trace.nodes) > 5 and stats.api_calls == provider.started


def test_thread_pool_only_for_order_free_providers(small_index, embedder,
                                                  monkeypatch):
    assert getattr(ScriptedOracle, "order_free", False) is False
    assert RemoteChatProvider.order_free is True
    pools = []

    class CountingExecutor(search.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(search, "ThreadPoolExecutor", CountingExecutor)
    config = TreeConfig(widths=(4, 2))
    policy = Policy(seed=5, vocab_size=40)
    run_tree("boston population", config, small_index, embedder, PolicyProvider(policy))
    assert pools == []
    run_tree("boston population", config, small_index, embedder,
             overlapped(PolicyProvider)(policy))
    assert pools == [4]


@pytest.mark.parametrize("order_free", [False, True])
def test_a_finished_run_is_freed_without_the_cyclic_collector(
        small_index, embedder, monkeypatch, order_free):
    runs = []

    class TrackedRun(search._Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(weakref.ref(self))

    monkeypatch.setattr(search, "_Run", TrackedRun)
    provider = (overlapped(PolicyProvider) if order_free else PolicyProvider)(
        Policy(seed=5, vocab_size=40))
    gc.collect()
    gc.disable()
    try:
        _pool, stats, _trace = run_tree("boston population", TreeConfig(widths=(4, 2)),
                                        small_index, embedder, provider)
        del _pool, _trace
        assert stats.api_calls > 4
        assert len(runs) == 1 and runs[0]() is None
    finally:
        gc.enable()
