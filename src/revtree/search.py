"""Depth-first search over retrieved paragraphs.

The root holds the question; every other node holds one paragraph.  Each node
is reviewed against the full path from the root; the verdict either stops the
path (reject), adds an evidence item (accept), or spawns a retrieval with a
new query (search).  Two prunings cut the walk down: relevance pruning stops
expansion beneath rejected paragraphs, repetitive pruning drops retrieved
candidates whose ids already sit in the evidence pool.

Also provides the single-path chain baseline and the one-shot retrieval
baseline.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .corpus import CorpusIndex, Paragraph, retrieve
from .embedding import EmbeddingProvider
from .llm import LlmClient
from .review import (
    Action,
    ExpansionStrategy,
    ParseFailure,
    ReviewDecision,
    ReviewOutcome,
    build_request,
    parse_review_output,
    review_path,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TreeConfig:
    """Search-shape and strategy settings for one tree run.

    ``widths[d]`` is the retrieval k used to fill layer ``d+1``, so the tree
    has one layer per width.
    """

    widths: tuple[int, ...] = (5, 3, 3)
    relevance_pruning: bool = True
    repetitive_pruning: bool = True
    expansion: ExpansionStrategy = ExpansionStrategy.MPC
    within_path_dedup: bool = True

    def __post_init__(self):
        # exact, since a bool is also an int
        if not self.widths or any(type(w) is not int or w <= 0 for w in self.widths):
            raise ValueError(
                f"widths must be one or more positive integers, got {self.widths!r}")

    @property
    def max_depth(self) -> int:
        return len(self.widths)


@dataclass(frozen=True)
class Evidence:
    """An accepted reasoning path plus the model's brief analysis."""

    path: tuple[Paragraph, ...]
    brief_analysis: str
    accepted_at_call: int

    def paragraph_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.path)


class EvidencePool:
    """Evidence items in acceptance order, with the set of accepted ids."""

    def __init__(self):
        self.evidences: list[Evidence] = []
        self.accepted_ids: set[str] = set()

    def add(self, evidence: Evidence) -> None:
        if not evidence.path:
            raise ValueError("evidence path must be non-empty")
        self.evidences.append(evidence)
        self.accepted_ids.update(evidence.paragraph_ids())

    def __len__(self) -> int:
        return len(self.evidences)

    def __iter__(self):
        return iter(self.evidences)


def distinct_paragraphs(evidences: Iterable[Evidence]) -> list[Paragraph]:
    """Paragraphs of ``evidences`` in their order, then path order, each id
    kept at its first occurrence."""
    return [p for added in new_paragraphs(evidences) for p in added]


def new_paragraphs(evidences: Iterable[Evidence]) -> Iterator[list[Paragraph]]:
    """For each of ``evidences`` in order, the paragraphs of its path, in
    path order, whose ids neither an earlier evidence nor an earlier place
    on the path held."""
    seen: set[str] = set()
    for evidence in evidences:
        added: list[Paragraph] = []
        for p in evidence.path:
            if p.id not in seen:
                seen.add(p.id)
                added.append(p)
        yield added


@dataclass
class RunStats:
    """Call and document accounting for one run."""

    api_calls: int = 0
    distinct_docs: int = 0
    rate: float = 0.0
    evidence_count: int = 0
    parse_failures: int = 0
    pruned_repetitive: int = 0
    pruned_relevance: int = 0
    provider_failures: int = 0

    def finalize(self) -> None:
        self.rate = self.distinct_docs / self.api_calls if self.api_calls > 0 else 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunTrace:
    """Serializable audit record of one run.

    Tree runs fill ``nodes`` (reviewed nodes) and ``pruned`` (candidates
    dropped at retrieval time); chain runs fill ``turns``.  ``to_json`` is
    canonical: identical runs produce byte-identical documents.
    """

    question: str
    mode: str
    meta: dict = field(default_factory=dict)
    nodes: list = field(default_factory=list)
    pruned: list = field(default_factory=list)
    turns: list = field(default_factory=list)
    evidence: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"


# the keys a review step fills, as they read before the review
_UNREVIEWED = {"call_index": None, "decision": None, "thought": "", "new_query": "",
               "brief_analysis": "", "parse_reason": None}
# decision fields a record takes when it has the key; chain turns have no
# ``supported`` or ``mpc_answer``
_DECISION_KEYS = ("thought", "new_query", "brief_analysis", "supported", "mpc_answer")


class _Run:
    """What one question's run shares in every mode: its client, evidence
    pool, stats and retrieved ids, and the one way it retrieves, reviews and
    ends."""

    def __init__(self, index: CorpusIndex, embedder: EmbeddingProvider, llm=None):
        self.index = index
        self.embedder = embedder
        self.client = llm if llm is None or isinstance(llm, LlmClient) else LlmClient(llm)
        self.pool = EvidencePool()
        self.stats = RunStats()
        self.retrieved_ids: set[str] = set()

    def retrieve(self, query: str, k: int) -> list[tuple[Paragraph, float]]:
        """Top-k paragraphs for ``query``.  A retrieval that raised is
        counted and logged as one provider failure and returns no results:
        it closes one branch, never the run."""
        try:
            results = retrieve(self.index, query, k, self.embedder)
        except Exception as exc:
            self.stats.provider_failures += 1
            logger.warning("retrieval failure for query %r: %s", query, exc)
            return []
        self.retrieved_ids.update(p.id for p, _ in results)
        return results

    def review(self, call: Callable[[], ReviewOutcome],
               record: dict) -> Optional[ReviewDecision]:
        """Make one review ``call`` and write its outcome into ``record``.

        A call that raised is a provider failure, and an output the parser
        could not map a parse failure; each is counted, and either returns
        None.  ``call_index`` is the review completion's, the first the call
        issued.
        """
        calls_before = self.client.calls
        try:
            outcome = call()
        except Exception as exc:
            self.stats.provider_failures += 1
            logger.warning("provider failure in the review after call %d: %s",
                           calls_before, exc)
            # an MPC completion can fail after its review completed
            record.update(decision="provider_failure",
                          parse_reason=f"provider failure: {exc}",
                          call_index=(calls_before + 1
                                      if self.client.calls > calls_before else None))
            return None
        record["call_index"] = calls_before + 1
        if isinstance(outcome, ParseFailure):
            self.stats.parse_failures += 1
            record.update(decision="parse_failure", parse_reason=outcome.reason)
            return None
        record["decision"] = outcome.action.value
        record.update({key: getattr(outcome, key) for key in _DECISION_KEYS
                       if key in record})
        return outcome

    def finish(self, question: str, mode: str, meta: dict,
               **records) -> tuple[EvidencePool, RunStats, RunTrace]:
        """Complete the stats and build the run's trace; ``records`` fills
        the trace's mode-specific lists (``nodes``, ``pruned``, ``turns``)."""
        stats = self.stats
        stats.api_calls = self.client.calls if self.client is not None else 0
        stats.distinct_docs = len(self.retrieved_ids)
        stats.evidence_count = len(self.pool)
        stats.finalize()
        trace = RunTrace(
            question=question,
            mode=mode,
            meta=meta,
            evidence=[{
                "path": list(e.paragraph_ids()),
                "brief_analysis": e.brief_analysis,
                "accepted_at_call": e.accepted_at_call,
            } for e in self.pool],
            stats=stats.to_dict(),
            **records,
        )
        return self.pool, stats, trace


@dataclass(eq=False)
class _Node:
    """A tree node: its path, its review's fork once started and future once
    submitted, its trace record once its parent's depth-first turn has kept
    it, and its candidates once planned."""

    path: tuple[Paragraph, ...]
    query: str  # the query that retrieved it
    future: Optional[Future] = None
    fork: Optional[LlmClient] = None
    record: Optional[dict] = None
    # the retrieval for its expansion in rank order, each paragraph with its
    # node, or None once it is certain to be pruned
    candidates: Optional[list] = None
    # its shape is final: see ``look_ahead`` in :func:`run_tree`
    settled: bool = False


def run_tree(question: str, config: TreeConfig, index: CorpusIndex,
             embedder: EmbeddingProvider, llm,
             demos: Sequence[str] = ()) -> tuple[EvidencePool, RunStats, RunTrace]:
    """Depth-first tree run for one question.

    Layer 1 is seeded by retrieving for the question itself; children are
    visited in retrieval rank order.  Candidate filtering happens after the
    top-k cut, so a layer can hold fewer than ``widths[d]`` children.
    Provider and parse errors at a node degrade to a rejected path and are
    tallied; they never abort the run.  Trace nodes are the reviewed
    candidates; pruned candidates are recorded apart.

    With an ``order_free`` provider (see :class:`LlmClient`) reviews run
    ahead of their depth-first turn, at most ``max(widths)`` at a time, each
    on a fork of the client.  A node is settled when its shape is final: it
    is at max depth, or its review is done and does not expand it, or it is
    expanded and all its children are settled.  Once every node before a
    node in depth-first order is settled and its own review expands it, the
    node is expanded early: its retrieval runs and its candidates become
    nodes.  A candidate's review starts at once, unless repetitive pruning
    may yet drop it because one of those nodes, or the node itself, holds
    its id; such a candidate is held back until the node's turn, and starts
    then if the pruning keeps it.  Every accepted path lies among those
    nodes, so no other candidate can be pruned, and no review starts that
    the run would not take.  A started review waits for a free slot: the
    reviews of nodes that can still expand take free slots before the
    max-depth ones, each group in start order, and the review the walk
    waits on is submitted at once.  Outcomes are taken, pruning decided and
    records made one by one in depth-first order, and each fork's
    completions are then committed, so the trace and stats equal a serial
    run's.
    """
    run = _Run(index, embedder, llm)
    client, pool, stats = run.client, run.pool, run.stats
    nodes: list[dict] = []
    pruned_records: list[dict] = []
    slots = max(config.widths)
    executor = (ThreadPoolExecutor(slots)
                if getattr(client.provider, "order_free", False) else None)
    # submitted reviews not yet seen done
    in_flight: set[Future] = set()
    # started reviews not yet submitted, in start order
    waiting: list[_Node] = []
    # ids of the nodes the look-ahead has reached, which it reaches in
    # depth-first order
    walked_ids: set[str] = set()
    root = _Node((), question)

    def start(node: _Node) -> None:
        """With an executor, start ``node``'s review on a fork of the
        client; it waits for a free slot."""
        if executor is not None:
            node.fork = client.fork()
            waiting.append(node)

    def submit(node: _Node) -> None:
        """Hand ``node``'s review to the executor."""
        node.future = executor.submit(review_path, question, node.path,
                                      config.expansion, node.fork, demos)
        in_flight.add(node.future)

    def dispatch() -> None:
        """Submit waiting reviews while fewer than ``slots`` run.  A
        max-depth review gates no expansion, so it gives way to the ones
        that do."""
        in_flight.difference_update([f for f in in_flight if f.done()])
        waiting.sort(key=lambda node: len(node.path) >= config.max_depth)
        while waiting and len(in_flight) < slots:
            submit(waiting.pop(0))

    def take(node: _Node) -> ReviewOutcome:
        """``node``'s review outcome; a started review's completions are
        committed as the client's next ones."""
        if executor is None:
            return review_path(question, node.path, config.expansion, client, demos)
        try:
            return node.future.result()
        finally:
            client.commit(node.fork)

    def expansion_query(node: _Node, outcome: ReviewOutcome) -> Optional[str]:
        """The query ``node``'s children are retrieved for, or None when
        ``outcome`` does not expand it."""
        if not isinstance(outcome, ReviewDecision) or len(node.path) >= config.max_depth:
            return None
        if outcome.action is Action.SEARCH:
            return outcome.new_query
        if outcome.action is Action.REJECT and not config.relevance_pruning:
            # the review gives no query, so reuse the one that retrieved it
            return node.query
        return None

    def plan(node: _Node, query: str) -> None:
        """Retrieve ``node``'s candidates, each a node unless within-path
        dedup drops it, and start the reviews that repetitive pruning cannot
        drop.  Every node before ``node`` in depth-first order has been
        walked, and every accepted path lies among them, so a candidate
        whose id no walked node holds is kept."""
        path_ids = {p.id for p in node.path}
        node.candidates = []
        for paragraph, _score in run.retrieve(query, config.widths[len(node.path)]):
            child = None
            if not (config.within_path_dedup and paragraph.id in path_ids):
                child = _Node(node.path + (paragraph,), query)
                if not (config.repetitive_pruning and paragraph.id in walked_ids):
                    start(child)
            node.candidates.append((paragraph, child))

    def commit(node: _Node, query: str) -> list[_Node]:
        """Expand ``node`` at its depth-first turn: prune its candidates,
        record the rest as its children and start the reviews held back."""
        if node.candidates is None:
            plan(node, query)
        parent = node.record
        children = []
        for rank, (paragraph, child) in enumerate(node.candidates):
            record = {"paragraph_id": paragraph.id, "depth": len(node.path) + 1,
                      "parent": parent["index"] if parent is not None else None,
                      "rank": rank, "query": query}
            reason = None
            if config.repetitive_pruning and paragraph.id in pool.accepted_ids:
                stats.pruned_repetitive += 1
                reason = "repetitive"
            elif child is None:
                reason = "on_path"
            if reason is not None:
                pruned_records.append({**record, "reason": reason,
                                       "at_call": client.calls})
                node.candidates[rank] = (paragraph, None)
                continue
            if child.fork is None:
                start(child)
            record.update(index=len(nodes), created_after_call=client.calls,
                          children=[], exhausted=False, supported=None,
                          mpc_answer="", **_UNREVIEWED)
            nodes.append(record)
            if parent is not None:
                parent["children"].append(record["index"])
            child.record = record
            children.append(child)
        return children

    def look_ahead(node: _Node) -> bool:
        """Walk ``node``'s subtree in depth-first order while every node
        walked is settled, expanding early each node that may be; whether
        the subtree is settled."""
        if node.settled:
            return True
        if node.path:
            walked_ids.add(node.path[-1].id)
        if node.candidates is None and len(node.path) < config.max_depth:
            if node.future is None or not node.future.done():
                return False
            query = (None if node.future.exception() is not None
                     else expansion_query(node, node.future.result()))
            if query is not None:
                plan(node, query)
        for _paragraph, child in node.candidates or ():
            if child is not None and (child.fork is None or not look_ahead(child)):
                return False
        node.settled = True
        return True

    def await_review(node: _Node) -> None:
        """Wait for ``node``'s review, submitted now if it is still waiting,
        expanding nodes early and dispatching waiting reviews as the reviews
        in flight finish."""
        if node.future is None:
            waiting.remove(node)
            submit(node)
        while True:
            look_ahead(root)
            dispatch()
            if node.future.done():
                return
            wait(in_flight, return_when=FIRST_COMPLETED)

    def visit(node: _Node) -> None:
        if executor is not None:
            await_review(node)
        decision = run.review(lambda: take(node), node.record)
        if decision is None:
            return
        query = expansion_query(node, decision)
        if query is not None:
            for child in commit(node, query):
                visit(child)
        elif decision.action is Action.ACCEPT:
            pool.add(Evidence(path=node.path, brief_analysis=decision.brief_analysis,
                              accepted_at_call=node.record["call_index"]))
        elif len(node.path) >= config.max_depth:
            node.record["exhausted"] = decision.action is Action.SEARCH
        else:
            stats.pruned_relevance += 1

    finished = False
    try:
        for child in commit(root, question):
            visit(child)
        finished = True
    finally:
        if executor is not None:
            # a finished walk has taken every review it started, so its idle
            # workers need not be joined; a walk that raised waits for the
            # reviews still running, so that no call outlives the run
            executor.shutdown(wait=not finished, cancel_futures=True)
        # ``visit`` and ``look_ahead`` refer to themselves through their
        # closure cells, which hold the run; emptying the cells frees the
        # run on return rather than at the next cyclic collection
        del visit, look_ahead

    meta = {
        "max_depth": config.max_depth,
        "widths": list(config.widths),
        "expansion": config.expansion.value,
        "relevance_pruning": config.relevance_pruning,
        "repetitive_pruning": config.repetitive_pruning,
        "within_path_dedup": config.within_path_dedup,
        "candidate_filtering": "post_topk",
    }
    return run.finish(question, "tor", meta, nodes=nodes, pruned=pruned_records)


def run_chain(question: str, index: CorpusIndex, embedder: EmbeddingProvider,
              llm, max_turns: int = 3, per_turn_k: int = 5,
              demos: Sequence[str] = ()) -> tuple[EvidencePool, RunStats, RunTrace]:
    """Single-path chain baseline.

    Every turn retrieves for the current query (the question on turn one),
    appends all results to the shared context, and reviews the whole context
    with the chain prompt.  Accept yields one evidence holding the full
    context; reject, a failed review or retrieval, or the turn limit ends
    the run.
    """
    if max_turns < 1:
        raise ValueError(f"max_turns must be >= 1, got {max_turns}")
    if per_turn_k < 1:
        raise ValueError(f"per_turn_k must be >= 1, got {per_turn_k}")
    run = _Run(index, embedder, llm)
    turns: list[dict] = []
    context: list[Paragraph] = []

    query = question
    for turn in range(1, max_turns + 1):
        results = run.retrieve(query, per_turn_k)
        if not results:
            break
        context.extend(p for p, _ in results)
        request = build_request("cor", "Documents", question, context, demos)
        record = {"turn": turn, "query": query,
                  "retrieved": [p.id for p, _ in results],
                  "context_size": len(context), **_UNREVIEWED}
        turns.append(record)
        decision = run.review(
            lambda: parse_review_output(run.client.complete(request).text), record)
        if decision is None or decision.action is Action.REJECT:
            break
        if decision.action is Action.ACCEPT:
            run.pool.add(Evidence(path=tuple(context),
                                  brief_analysis=decision.brief_analysis,
                                  accepted_at_call=record["call_index"]))
            break
        query = decision.new_query

    return run.finish(question, "cor",
                      {"max_turns": max_turns, "per_turn_k": per_turn_k}, turns=turns)


def run_oner(question: str, k: int, index: CorpusIndex,
             embedder: EmbeddingProvider) -> tuple[EvidencePool, RunStats, RunTrace]:
    """One-shot retrieval baseline: a single retrieval, no review calls.

    The pool holds one pseudo-evidence with the retrieved paragraphs and no
    analysis; answering happens later in fusion.  A failed retrieval leaves
    the pool empty.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not question.strip():
        raise ValueError("question must be non-empty")
    run = _Run(index, embedder)
    results = run.retrieve(question, k)
    if results:
        run.pool.add(Evidence(path=tuple(p for p, _ in results), brief_analysis="",
                              accepted_at_call=0))
    return run.finish(question, "oner", {"k": k})
