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
from tests.conftest import fresh_corpus


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


def scenarios(seed: int = 2024, count: int = 60,
              width_options=((2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2))):
    """``count`` seeded scenarios, 60 by default: (context, question, config,
    index, embedder, policy) each."""
    rng = random.Random(seed)
    vocab_size = 40
    for scenario in range(count):
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


# Look-ahead across subtrees ---------------------------------------------------
#
# With an order-free provider, run_tree expands a node ahead of its turn once
# every node before it in depth-first order is settled.  A max-depth node is
# settled while its review is still pending, so later subtrees go on while
# earlier leaves wait; a candidate whose id a walked node holds is held back.


class TableProvider:
    """Reviews by ``table``, keyed on the path's paragraph ids; a path the
    table lacks is rejected."""

    def __init__(self, table: dict):
        self.table = table
        self.review_paths: list[tuple[str, ...]] = []

    def generate(self, request, call_index):
        path = tuple(request.tags["path_ids"])
        self.review_paths.append(path)
        return render_review_output(self.table.get(path, ReviewDecision.reject("no")))


class GatedTableProvider(TableProvider):
    """Order-free; the review of each path that ``gated`` selects waits, up
    to 10 s, until ``release`` is set.  Records the peak number of calls in
    flight."""

    order_free = True

    def __init__(self, table: dict, gated):
        super().__init__(table)
        self.gated = gated
        self.release = threading.Event()
        self.arrived = threading.Condition()
        self.inflight = 0
        self.peak = 0

    def generate(self, request, call_index):
        path = tuple(request.tags["path_ids"])
        with self.arrived:
            text = super().generate(request, call_index)
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            self.arrived.notify_all()
        try:
            if self.gated(path):
                self.release.wait(timeout=10)
            return text
        finally:
            with self.arrived:
                self.inflight -= 1


def run_gated(provider: GatedTableProvider, paths, question, config, index,
              embedder) -> tuple[tuple, bool]:
    """Run the tree on ``provider`` in a thread; once the reviews of every
    path in ``paths`` have reached it, or after 10 s, release the gated
    ones.  Returns the run's outputs and whether all of ``paths`` arrived
    before the release."""
    result = []
    thread = threading.Thread(target=lambda: result.append(
        outputs(run_tree(question, config, index, embedder, provider))))
    thread.start()
    try:
        with provider.arrived:
            arrived = provider.arrived.wait_for(
                lambda: set(paths) <= set(provider.review_paths), timeout=10)
    finally:
        provider.release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return result[0], arrived


def test_a_later_subtree_expands_while_earlier_leaves_are_pending(embedder):
    # probe{n} retrieves group n: g{n}a, g{n}b, g{n}c
    index = fresh_corpus(groups=5, group_size=3, embedder=embedder)
    a, b = "g0000a", "g0000b"
    table = {
        (a,): ReviewDecision.search("probe1"),
        (a, "g0001a"): ReviewDecision.search("probe2"),
        (a, "g0001b"): ReviewDecision.search("probe3"),
        (b,): ReviewDecision.search("probe4"),
    }
    config = TreeConfig(widths=(3, 2, 1), expansion=ExpansionStrategy.COT)
    leaves = [(a, "g0001a", "g0002a"), (a, "g0001b", "g0003a")]
    later = [(b, "g0004a"), (b, "g0004b")]
    provider = GatedTableProvider(table, gated=lambda path: len(path) == 3)
    # every max-depth review waits, so without look-ahead the run would not
    # start b's children before the release
    run, arrived = run_gated(provider, leaves + later, "probe0", config, index,
                             embedder)
    assert arrived
    serial = TableProvider(table)
    assert run == outputs(run_tree("probe0", config, index, embedder, serial))
    assert sorted(provider.review_paths) == sorted(serial.review_paths)


def test_expansion_gating_reviews_take_free_slots_before_max_depth_reviews(embedder):
    # probe{n} retrieves group n: g{n}a, g{n}b
    index = fresh_corpus(groups=5, group_size=2, embedder=embedder)
    a, b = "g0000a", "g0000b"
    table = {
        (a,): ReviewDecision.search("probe1"),
        (a, "g0001a"): ReviewDecision.search("probe2"),
        (b,): ReviewDecision.search("probe3"),
        (b, "g0003a"): ReviewDecision.search("probe4"),
    }
    config = TreeConfig(widths=(2, 1, 2), expansion=ExpansionStrategy.COT)
    provider = GatedTableProvider(table, gated=lambda path: len(path) == 3)
    # once a's child has expanded, a's subtree is settled and b expands: a's
    # two leaves and b's child wait for at most two free slots.  A
    # first-come queue gives the slots to the leaves, which hold them until
    # the release, so b's child would reach the provider only after it
    run, arrived = run_gated(provider, [(b, "g0003a")], "probe0", config, index,
                             embedder)
    assert arrived
    assert provider.peak <= max(config.widths)
    serial = TableProvider(table)
    assert run == outputs(run_tree("probe0", config, index, embedder, serial))
    assert sorted(provider.review_paths) == sorted(serial.review_paths)


class InterruptedProvider:
    """Order-free; the review of ``interrupted`` raises
    :class:`KeyboardInterrupt` once ``others`` other calls have started, or
    after 2 s, and every other call sleeps 50 ms and then searches.  Counts
    the calls started and still running."""

    order_free = True

    def __init__(self, interrupted: tuple[str, ...], others: int):
        self.interrupted = interrupted
        self.others = others
        self.started = 0
        self.running = 0
        self._cond = threading.Condition()

    def generate(self, request, call_index):
        path = tuple(request.tags["path_ids"])
        with self._cond:
            self.started += 1
            self.running += 1
            self._cond.notify_all()
        try:
            if request.tags["template"] == "mpc":
                time.sleep(0.05)
                return render_mpc_output("probe1")
            if path == self.interrupted:
                with self._cond:
                    self._cond.wait_for(lambda: self.started > self.others,
                                        timeout=2.0)
                raise KeyboardInterrupt
            time.sleep(0.05)
            return render_review_output(ReviewDecision.search("probe1"))
        finally:
            with self._cond:
                self.running -= 1


def test_no_call_outlives_a_run_that_raised(embedder):
    index = fresh_corpus(groups=2, group_size=3, embedder=embedder)
    provider = InterruptedProvider(("g0000a",), others=2)
    # the first child's review raises while its siblings' reviews, each
    # followed by an MPC call, are running
    with pytest.raises(KeyboardInterrupt):
        run_tree("probe0", TreeConfig(widths=(3, 2)), index, embedder, provider)
    started = provider.started
    assert provider.running == 0 and started == 5
    time.sleep(0.2)
    assert provider.started == started


def holdback_index(embedder):
    """A corpus where "probe0" retrieves A, B, C; "probe1" retrieves a2,
    then a1; "shared" retrieves b1, then a1; and "probe2" retrieves x1, x2."""
    index = build_index([
        Paragraph("A", "", "probe0"), Paragraph("B", "", "probe0"),
        Paragraph("C", "", "probe0"), Paragraph("a1", "", "probe1 shared"),
        Paragraph("a2", "", "probe1"), Paragraph("b1", "", "shared"),
        Paragraph("x1", "", "probe2"), Paragraph("x2", "", "probe2"),
    ], embedder)
    for query, k, ids in [("probe0", 3, ["A", "B", "C"]), ("probe1", 2, ["a2", "a1"]),
                          ("shared", 2, ["b1", "a1"]), ("probe2", 2, ["x1", "x2"])]:
        assert [p.id for p, _ in retrieve(index, query, k, embedder)] == ids
    return index


def test_a_candidate_a_pending_leaf_may_accept_is_held_back(embedder):
    index = holdback_index(embedder)
    table = {
        ("A",): ReviewDecision.search("probe1"),
        ("A", "a1"): ReviewDecision.accept("a1 settles it"),
        ("B",): ReviewDecision.search("shared"),
    }
    config = TreeConfig(widths=(3, 2), expansion=ExpansionStrategy.COT)
    provider = GatedTableProvider(table, gated=lambda path: len(path) == 2)
    # B expands while A's leaves are pending: b1's review starts, and a1,
    # which A's subtree holds, waits for B's turn
    run, arrived = run_gated(provider, [("A", "a1"), ("B", "b1")], "probe0",
                             config, index, embedder)
    assert arrived
    assert ("B", "a1") not in provider.review_paths
    trace = json.loads(run[0])
    b = next(n["index"] for n in trace["nodes"] if n["paragraph_id"] == "B")
    assert [(p["paragraph_id"], p["reason"]) for p in trace["pruned"]
            if p["parent"] == b] == [("a1", "repetitive")]
    serial = TableProvider(table)
    assert run == outputs(run_tree("probe0", config, index, embedder, serial))
    assert sorted(provider.review_paths) == sorted(serial.review_paths)


def test_an_ancestor_a_pending_leaf_may_accept_is_held_back(embedder):
    index = holdback_index(embedder)
    table = {
        ("A",): ReviewDecision.search("probe1"),
        ("A", "a2"): ReviewDecision.search("probe2"),
        ("A", "a2", "x1"): ReviewDecision.accept("x1 settles it"),
        ("A", "a1"): ReviewDecision.search("probe0"),
    }
    config = TreeConfig(widths=(1, 2, 2), expansion=ExpansionStrategy.COT,
                        within_path_dedup=False)
    provider = GatedTableProvider(table, gated=lambda path: path == ("A", "a2", "x1"))
    # a1 expands while x1 is pending; its candidate A, its own ancestor, is
    # on the path that x1 accepts
    run, arrived = run_gated(provider, [("A", "a2", "x1"), ("A", "a1", "B")],
                             "probe0", config, index, embedder)
    assert arrived
    assert ("A", "a1", "A") not in provider.review_paths
    trace = json.loads(run[0])
    a1 = next(n["index"] for n in trace["nodes"] if n["paragraph_id"] == "a1")
    assert [(p["paragraph_id"], p["reason"]) for p in trace["pruned"]
            if p["parent"] == a1] == [("A", "repetitive")]
    serial = TableProvider(table)
    assert run == outputs(run_tree("probe0", config, index, embedder, serial))
    assert sorted(provider.review_paths) == sorted(serial.review_paths)


def held_back(trace: dict) -> tuple[int, int]:
    """(kept, pruned): how many candidates of an overlapped run with trace
    ``trace`` were held back and then kept or pruned.

    The look-ahead plans every expansion of an overlapped run, and under
    repetitive pruning it holds back a candidate whose id a node before its
    parent in depth-first order, or the parent, holds, unless within-path
    dedup drops it.
    """
    if not trace["meta"]["repetitive_pruning"]:
        return 0, 0
    nodes = trace["nodes"]
    walked: dict[int, set[str]] = {}
    order: list[str] = []

    def walk(index: int) -> None:
        order.append(nodes[index]["paragraph_id"])
        walked[index] = set(order)
        for child in nodes[index]["children"]:
            walk(child)

    for node in nodes:
        if node["parent"] is None:
            walk(node["index"])

    def path_ids(index) -> set[str]:
        ids = set()
        while index is not None:
            ids.add(nodes[index]["paragraph_id"])
            index = nodes[index]["parent"]
        return ids

    kept = pruned = 0
    for candidate in nodes + trace["pruned"]:
        parent, pid = candidate["parent"], candidate["paragraph_id"]
        if parent is None or pid not in walked[parent] or (
                trace["meta"]["within_path_dedup"] and pid in path_ids(parent)):
            continue
        if "reason" in candidate:
            pruned += 1
        else:
            kept += 1
    return kept, pruned


def test_overlapped_deep_runs_equal_serial_runs_and_hold_candidates_back():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    held = [0, 0]
    try:
        for context, question, config, index, embedder, policy in scenarios(
                seed=13, count=24, width_options=((3, 3, 3), (4, 2, 3), (5, 3, 3))):
            serial = PolicyProvider(policy)
            expected = outputs(run_tree(question, config, index, embedder, serial))
            provider = overlapped(PolicyProvider)(policy)
            assert outputs(run_tree(question, config, index, embedder, provider)) \
                == expected, context
            # no review was made that the run did not take, held-back
            # candidates included
            assert sorted(provider.review_paths) == sorted(serial.review_paths), context
            kept, pruned = held_back(json.loads(expected[0]))
            held[0] += kept
            held[1] += pruned
    finally:
        sys.setswitchinterval(interval)
    assert held[0] > 0 and held[1] > 0, held
