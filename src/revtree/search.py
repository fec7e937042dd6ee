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
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .corpus import CorpusIndex, Paragraph, format_documents, retrieve
from .embedding import EmbeddingProvider
from .llm import CompletionRequest, LlmClient, load_template, render_prompt
from .review import (
    Action,
    ExpansionStrategy,
    ParseFailure,
    ReviewDecision,
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
        if not self.widths or any(not isinstance(w, int) or w <= 0
                                  for w in self.widths):
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

    def distinct_paragraphs(self) -> list[Paragraph]:
        """Distinct paragraphs in acceptance order, then path order."""
        return distinct_paragraphs(self.evidences)


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
        return {
            "question": self.question,
            "mode": self.mode,
            "meta": self.meta,
            "nodes": self.nodes,
            "pruned": self.pruned,
            "turns": self.turns,
            "evidence": self.evidence,
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"


class _TreeNode:
    """Internal reviewed-node record; pruned candidates never become nodes."""

    __slots__ = ("index", "paragraph", "depth", "parent", "rank", "query",
                 "created_after_call", "call_index", "outcome", "children",
                 "exhausted")

    def __init__(self, index: int, paragraph: Paragraph, depth: int,
                 parent: Optional["_TreeNode"], rank: int, query: str,
                 created_after_call: int):
        self.index = index
        self.paragraph = paragraph
        self.depth = depth
        self.parent = parent
        self.rank = rank
        self.query = query
        self.created_after_call = created_after_call
        self.call_index: Optional[int] = None
        self.outcome: Union[ReviewDecision, ParseFailure, None] = None
        self.children: list[int] = []
        self.exhausted = False

    def path(self) -> tuple[Paragraph, ...]:
        chain: list[Paragraph] = []
        node: Optional[_TreeNode] = self
        while node is not None:
            chain.append(node.paragraph)
            node = node.parent
        return tuple(reversed(chain))

    def path_ids(self) -> set[str]:
        return {p.id for p in self.path()}

    def to_record(self) -> dict:
        record = {
            "index": self.index,
            "parent": self.parent.index if self.parent is not None else None,
            "paragraph_id": self.paragraph.id,
            "depth": self.depth,
            "rank": self.rank,
            "query": self.query,
            "created_after_call": self.created_after_call,
            "call_index": self.call_index,
            "children": list(self.children),
            "exhausted": self.exhausted,
            "decision": None,
            "thought": "",
            "new_query": "",
            "brief_analysis": "",
            "supported": None,
            "mpc_answer": "",
            "parse_reason": None,
        }
        outcome = self.outcome
        if isinstance(outcome, ReviewDecision):
            record.update(
                decision=outcome.action.value,
                thought=outcome.thought,
                new_query=outcome.new_query,
                brief_analysis=outcome.brief_analysis,
                supported=outcome.supported,
                mpc_answer=outcome.mpc_answer,
            )
        elif isinstance(outcome, ParseFailure):
            record.update(decision="parse_failure", parse_reason=outcome.reason)
        return record


def run_tree(question: str, config: TreeConfig, index: CorpusIndex,
             embedder: EmbeddingProvider, llm,
             demos: Sequence[str] = ()) -> tuple[EvidencePool, RunStats, RunTrace]:
    """Depth-first tree run for one question.

    Layer 1 is seeded by retrieving for the question itself; children are
    visited in retrieval rank order.  Candidate filtering happens after the
    top-k cut, so a layer can hold fewer than ``widths[d]`` children.
    Provider and parse errors at a node degrade to a rejected path and are
    tallied; they never abort the run.
    """
    client = llm if isinstance(llm, LlmClient) else LlmClient(llm)
    pool = EvidencePool()
    stats = RunStats()
    retrieved_ids: set[str] = set()
    nodes: list[_TreeNode] = []
    pruned_records: list[dict] = []

    def expand(parent: Optional[_TreeNode], query: str,
               child_depth: int) -> list[_TreeNode]:
        width = config.widths[child_depth - 1]
        try:
            results = retrieve(index, query, width, embedder)
        except Exception as exc:
            # a retrieval failure closes this branch, never the run
            stats.provider_failures += 1
            logger.warning("retrieval failure for query %r at depth %d: %s",
                           query, child_depth, exc)
            return []
        retrieved_ids.update(p.id for p, _ in results)
        path_ids = parent.path_ids() if parent is not None else set()
        created: list[_TreeNode] = []
        for rank, (paragraph, _score) in enumerate(results):
            reason = None
            if config.repetitive_pruning and paragraph.id in pool.accepted_ids:
                stats.pruned_repetitive += 1
                reason = "repetitive"
            elif config.within_path_dedup and paragraph.id in path_ids:
                reason = "on_path"
            if reason is not None:
                pruned_records.append({
                    "paragraph_id": paragraph.id,
                    "depth": child_depth,
                    "parent": parent.index if parent is not None else None,
                    "rank": rank,
                    "query": query,
                    "reason": reason,
                    "at_call": client.calls,
                })
                continue
            node = _TreeNode(
                index=len(nodes),
                paragraph=paragraph,
                depth=child_depth,
                parent=parent,
                rank=rank,
                query=query,
                created_after_call=client.calls,
            )
            nodes.append(node)
            if parent is not None:
                parent.children.append(node.index)
            created.append(node)
        return created

    def visit(node: _TreeNode) -> None:
        path = node.path()
        calls_before = client.calls
        try:
            outcome = review_path(question, path, config.expansion, client, demos)
        except Exception as exc:
            stats.provider_failures += 1
            logger.warning("provider failure at node %s (%s): %s",
                           node.index, node.paragraph.id, exc)
            node.outcome = ParseFailure(raw_text="", reason=f"provider failure: {exc}",
                                        step_reached=1)
            node.call_index = client.calls if client.calls > calls_before else None
            return
        # the review completion is the first call issued while visiting
        node.call_index = calls_before + 1
        node.outcome = outcome
        if isinstance(outcome, ParseFailure):
            stats.parse_failures += 1
            return
        if outcome.action is Action.ACCEPT:
            pool.add(Evidence(path=path, brief_analysis=outcome.brief_analysis,
                              accepted_at_call=node.call_index))
            return
        if outcome.action is Action.REJECT:
            if not config.relevance_pruning and node.depth < config.max_depth:
                # with relevance pruning disabled, a rejected node still
                # expands; the review gives no query, so reuse the one that
                # retrieved this node
                for child in expand(node, node.query, node.depth + 1):
                    visit(child)
            elif config.relevance_pruning and node.depth < config.max_depth:
                stats.pruned_relevance += 1
            return
        # search
        if node.depth >= config.max_depth:
            node.exhausted = True
            return
        for child in expand(node, outcome.new_query, node.depth + 1):
            visit(child)

    for root_child in expand(None, question, 1):
        visit(root_child)

    meta = {
        "max_depth": config.max_depth,
        "widths": list(config.widths),
        "expansion": config.expansion.value,
        "relevance_pruning": config.relevance_pruning,
        "repetitive_pruning": config.repetitive_pruning,
        "within_path_dedup": config.within_path_dedup,
        "candidate_filtering": "post_topk",
    }
    return _finish_run(question, "tor", meta, pool, stats, client.calls,
                       retrieved_ids, nodes=[n.to_record() for n in nodes],
                       pruned=pruned_records)


def run_chain(question: str, index: CorpusIndex, embedder: EmbeddingProvider,
              llm, max_turns: int = 3, per_turn_k: int = 5,
              demos: Sequence[str] = ()) -> tuple[EvidencePool, RunStats, RunTrace]:
    """Single-path chain baseline.

    Every turn retrieves for the current query (the question on turn one),
    appends all results to the shared context, and reviews the whole context
    with the chain prompt.  Accept yields one evidence holding the full
    context; reject or the turn limit ends the run.
    """
    if max_turns < 1:
        raise ValueError(f"max_turns must be >= 1, got {max_turns}")
    if per_turn_k < 1:
        raise ValueError(f"per_turn_k must be >= 1, got {per_turn_k}")
    client = llm if isinstance(llm, LlmClient) else LlmClient(llm)
    pool = EvidencePool()
    stats = RunStats()
    retrieved_ids: set[str] = set()
    turns: list[dict] = []
    context: list[Paragraph] = []
    template = load_template("cor", demos)

    query = question
    for turn in range(1, max_turns + 1):
        try:
            results = retrieve(index, query, per_turn_k, embedder)
        except Exception as exc:
            stats.provider_failures += 1
            logger.warning("retrieval failure on turn %d: %s", turn, exc)
            break
        retrieved_ids.update(p.id for p, _ in results)
        context.extend(p for p, _ in results)
        prompt = render_prompt(template, {
            "Question": question,
            "Documents": format_documents(context),
        })
        request = CompletionRequest(prompt=prompt, tags={
            "question": question,
            "path_ids": tuple(p.id for p in context),
            "template": "cor",
        })
        turn_record = {
            "turn": turn,
            "query": query,
            "retrieved": [p.id for p, _ in results],
            "context_size": len(context),
            "decision": None,
            "thought": "",
            "new_query": "",
            "brief_analysis": "",
            "call_index": None,
            "parse_reason": None,
        }
        try:
            response = client.complete(request)
        except Exception as exc:
            stats.provider_failures += 1
            logger.warning("provider failure on turn %d: %s", turn, exc)
            turn_record["decision"] = "provider_failure"
            turns.append(turn_record)
            break
        turn_record["call_index"] = response.call_index
        outcome = parse_review_output(response.text)
        if isinstance(outcome, ParseFailure):
            stats.parse_failures += 1
            turn_record["decision"] = "parse_failure"
            turn_record["parse_reason"] = outcome.reason
            turns.append(turn_record)
            break
        turn_record["decision"] = outcome.action.value
        turn_record["thought"] = outcome.thought
        turn_record["new_query"] = outcome.new_query
        turn_record["brief_analysis"] = outcome.brief_analysis
        turns.append(turn_record)
        if outcome.action is Action.ACCEPT:
            pool.add(Evidence(path=tuple(context),
                              brief_analysis=outcome.brief_analysis,
                              accepted_at_call=response.call_index))
            break
        if outcome.action is Action.REJECT:
            break
        query = outcome.new_query

    return _finish_run(question, "cor",
                       {"max_turns": max_turns, "per_turn_k": per_turn_k},
                       pool, stats, client.calls, retrieved_ids, turns=turns)


def run_oner(question: str, k: int, index: CorpusIndex,
             embedder: EmbeddingProvider) -> tuple[EvidencePool, RunStats, RunTrace]:
    """One-shot retrieval baseline: a single retrieval, no review calls.

    The pool holds one pseudo-evidence with the retrieved paragraphs and no
    analysis; answering happens later in fusion.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pool = EvidencePool()
    results = retrieve(index, question, k, embedder)
    if results:
        pool.add(Evidence(path=tuple(p for p, _ in results), brief_analysis="",
                          accepted_at_call=0))
    return _finish_run(question, "oner", {"k": k}, pool, RunStats(), 0,
                       {p.id for p, _ in results})


def _finish_run(question: str, mode: str, meta: dict, pool: EvidencePool,
                stats: RunStats, api_calls: int, retrieved_ids: set[str],
                **records) -> tuple[EvidencePool, RunStats, RunTrace]:
    """Complete ``stats`` and build the run's trace; ``records`` fills the
    trace's mode-specific lists (``nodes``, ``pruned``, ``turns``)."""
    stats.api_calls = api_calls
    stats.distinct_docs = len(retrieved_ids)
    stats.evidence_count = len(pool)
    stats.finalize()
    trace = RunTrace(
        question=question,
        mode=mode,
        meta=meta,
        evidence=[{
            "path": list(e.paragraph_ids()),
            "brief_analysis": e.brief_analysis,
            "accepted_at_call": e.accepted_at_call,
        } for e in pool],
        stats=stats.to_dict(),
        **records,
    )
    return pool, stats, trace
