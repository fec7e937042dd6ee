"""Evidence fusion: pack the pool under a token budget, generate the final
response, extract the short answer, and pick the paragraphs submitted for
retrieval scoring.

Three context renderings exist: assertions only, supporting paragraphs only,
or both grouped per evidence item (the default).  Packing is greedy-prefix in
acceptance order: the first evidence item that would overflow the budget stops
inclusion, keeping the earliest-accepted items.  Token estimators are
additive over the whitespace separators that join the parts, so packing
counts each part once and is linear in the pool's text.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .corpus import CorpusIndex, cosine_similarities, format_documents
from .embedding import EmbeddingProvider, HashedEmbedder, PrecomputedEmbeddings
from .llm import CompletionRequest, LlmClient, TokenEstimator, estimate_tokens, \
    load_template, render_prompt
from .metrics import RECALL_K
from .search import Evidence, EvidencePool, RunStats, distinct_paragraphs, \
    new_paragraphs

logger = logging.getLogger(__name__)

ANSWER_MARKER = "the answer is"


class FusionStrategy(str, Enum):
    ANALYSIS = "analysis"
    PARAGRAPH = "paragraph"
    EVIDENCE = "evidence"


_TEMPLATE_FOR = {
    FusionStrategy.ANALYSIS: "fusion_analysis",
    FusionStrategy.PARAGRAPH: "fusion_paragraph",
    FusionStrategy.EVIDENCE: "fusion_evidence",
}

_SLOT_FOR = {
    FusionStrategy.ANALYSIS: "Assertions",
    FusionStrategy.PARAGRAPH: "Documents",
    FusionStrategy.EVIDENCE: "Evidence",
}


@dataclass(frozen=True)
class AnswerResult:
    """Final response for one question plus the extraction outcome."""

    full_response: str
    extracted_answer: str
    evidence_included: tuple[int, ...]
    fusion_calls: int = 1
    pattern_found: bool = True


def _context_parts(evidences: Sequence[Evidence],
                   strategy: FusionStrategy) -> tuple[str, Iterator[list[str]]]:
    """The separator of ``strategy``'s context block and, per evidence, the
    parts it adds to the block: its brief analysis, its paragraphs not yet
    shown, or its assertions grouped with its documents."""
    if strategy is FusionStrategy.ANALYSIS:
        return "\n", ([e.brief_analysis] for e in evidences)
    if strategy is FusionStrategy.PARAGRAPH:
        return "\n\n", ([format_documents([p]) for p in added]
                         for added in new_paragraphs(evidences))
    return "\n\n", ([f"Assertions:{e.brief_analysis}\n"
                      f"Documents:{format_documents(e.path)}"] for e in evidences)


def render_context(evidences: Sequence[Evidence],
                   strategy: FusionStrategy) -> str:
    """Render an evidence list as the context block for its strategy."""
    separator, parts = _context_parts(evidences, strategy)
    return separator.join(part for added in parts for part in added)


def pack_evidence(pool: EvidencePool, strategy: FusionStrategy,
                  budget_tokens: int,
                  estimator: TokenEstimator = estimate_tokens,
                  reserved_tokens: int = 0) -> tuple[str, list[int]]:
    """Greedy-prefix packing of the pool under the token budget.

    Evidence is considered in acceptance order; inclusion stops at the first
    item whose addition would push the rendered context past
    ``budget_tokens - reserved_tokens``.  The returned context always
    estimates within that limit, and equals :func:`render_context` of the
    included items.

    Each part is counted once and the chosen parts are joined once, so
    packing is linear in the pool's text.  This is exact because every
    separator is whitespace: no counted unit crosses a join, so a context's
    count is its parts' counts plus ``count(separator)`` per join.
    """
    if budget_tokens <= reserved_tokens:
        raise ValueError(
            f"budget of {budget_tokens} tokens cannot cover the fixed prompt "
            f"parts ({reserved_tokens} tokens)"
        )
    limit = budget_tokens - reserved_tokens
    separator, parts = _context_parts(pool.evidences, strategy)
    join_count = estimator.count(separator)
    chosen: list[str] = []
    counted, included = 0, 0
    for i, added in enumerate(parts):
        candidate = counted + sum(map(estimator.count, added))
        # an empty part still takes a separator
        joins = max(len(chosen) + len(added) - 1, 0)
        if estimator.to_tokens(candidate + joins * join_count) > limit:
            break
        chosen.extend(added)
        counted, included = candidate, i + 1
    return separator.join(chosen), list(range(included))


def extract_answer(text: str) -> tuple[str, bool]:
    """Short answer after the last (case-insensitive) answer marker.

    The trailing period is stripped and whitespace trimmed; the payload keeps
    its original casing.  Without the marker the whole trimmed response comes
    back flagged.
    """
    position = text.lower().rfind(ANSWER_MARKER)
    if position < 0:
        return text.strip(), False
    payload = text[position + len(ANSWER_MARKER):].strip()
    if payload.endswith("."):
        payload = payload[:-1].rstrip()
    return payload, True


def reserved_tokens(question: str, strategy: FusionStrategy,
                    estimator: TokenEstimator = estimate_tokens,
                    demos: Sequence[str] = ()) -> int:
    """Tokens of ``strategy``'s fusion prompt for ``question`` with an empty
    context: the part of the budget that no evidence can use."""
    template = load_template(_TEMPLATE_FOR[strategy], demos)
    return estimator(render_prompt(template, {_SLOT_FOR[strategy]: "",
                                              "Question": question}))


def generate_answer(question: str, pool: EvidencePool, strategy: FusionStrategy,
                    llm, budget_tokens: int = 4096,
                    estimator: TokenEstimator = estimate_tokens,
                    demos: Sequence[str] = ()) -> AnswerResult:
    """One completion with the strategy's template over the packed pool.

    An empty pool is fine: the context block is empty and the model answers
    from its own knowledge.
    """
    client = llm if isinstance(llm, LlmClient) else LlmClient(llm)
    template = load_template(_TEMPLATE_FOR[strategy], demos)
    context, included = pack_evidence(
        pool, strategy, budget_tokens, estimator,
        reserved_tokens=reserved_tokens(question, strategy, estimator, demos))
    prompt = render_prompt(template, {_SLOT_FOR[strategy]: context, "Question": question})
    response = client.complete(CompletionRequest(
        prompt=prompt, tags={"question": question, "template": template.name}))
    extracted, found = extract_answer(response.text)
    return AnswerResult(
        full_response=response.text,
        extracted_answer=extracted,
        evidence_included=tuple(included),
        fusion_calls=1,
        pattern_found=found,
    )


def _evidence_rest(evidence: Evidence) -> str:
    """What :func:`_evidence_text` puts after the evidence's first document:
    empty, or whitespace and then its other documents and brief analysis."""
    rest = f"\n\n{format_documents(evidence.path[1:])}" if len(evidence.path) > 1 else ""
    if evidence.brief_analysis:
        rest = f"{rest}\n{evidence.brief_analysis}"
    return rest


def _evidence_text(evidence: Evidence) -> str:
    return format_documents(evidence.path[:1]) + _evidence_rest(evidence)


def _first_document_rows(evidences: Sequence[Evidence], provider: EmbeddingProvider,
                         index: Optional[CorpusIndex]
                         ) -> Optional[tuple[HashedEmbedder, np.ndarray]]:
    """The hashed embedder that embeds ``provider``'s texts and the index
    rows of the evidences' first paragraphs, when each such row is that
    embedder's vector of ``format_documents([p])``; else ``None``."""
    if isinstance(provider, PrecomputedEmbeddings):
        provider = provider.fallback
    # a subclass may embed otherwise
    if index is None or type(provider) is not HashedEmbedder or \
            index.document_provider_id != provider.provider_id:
        return None
    firsts = [e.path[0] for e in evidences]
    try:
        if any(index.get(p.id) != p for p in firsts):
            return None
    except KeyError:
        return None
    return provider, np.array([index.embedding(p.id) for p in firsts])


def select_scored_paragraphs(pool: EvidencePool, final_response: str,
                             provider: EmbeddingProvider,
                             stats: Optional[RunStats] = None,
                             index: Optional[CorpusIndex] = None) -> list[str]:
    """Paragraph ids submitted for retrieval scoring, at most
    :data:`~revtree.metrics.RECALL_K`, the cut recall is scored at.

    When the pool holds no more distinct paragraphs than that they are
    all returned in acceptance-then-path order without any embedding work.
    Otherwise evidence items are re-ranked by cosine similarity between their
    rendered text and the final response, and paragraphs are emitted in
    evidence-rank then path order, deduplicated and truncated.  The response
    and then the evidence texts, in pool order, are embedded in one
    :meth:`~revtree.embedding.EmbeddingProvider.embed_texts` call.

    Given the ``index`` the pool was retrieved from, a hashed embedder that
    gave the index's rows as its vectors of ``format_documents([p])``
    embeds only the response; each evidence vector continues the fold of
    its first paragraph's stored row over the rest of its text
    (:meth:`~revtree.embedding.HashedEmbedder.continue_folds`), with the
    bits the whole text embeds to.  Every other provider or index embeds
    the whole texts.

    Re-ranking needs a final response that is not blank and embeddings that
    are finite and not zero.  Given the run's ``stats``, a blank response,
    such an embedding or an embedding call that raised is counted there and
    logged as one provider failure, and the paragraphs keep
    acceptance-then-path order, cut the same way; without them the error
    propagates.
    """
    distinct = distinct_paragraphs(pool)
    if len(distinct) <= RECALL_K:
        return [p.id for p in distinct]

    try:
        if not final_response.strip():
            raise ValueError("final_response must be non-empty")
        reuse = _first_document_rows(pool.evidences, provider, index)
        if reuse is None:
            vectors = provider.embed_texts(
                [final_response] + [_evidence_text(e) for e in pool.evidences])
        else:
            hashed, starts = reuse
            vectors = np.concatenate([
                hashed.embed_texts([final_response]),
                hashed.continue_folds(starts, [_evidence_rest(e) for e in pool.evidences])])
        # a remote reply may spell NaN or Infinity, which json reads
        if not np.isfinite(vectors).all():
            raise ValueError("re-ranking embedded a non-finite vector")
        scores = cosine_similarities(vectors[1:], vectors[0])
        # stable, so equal scores keep acceptance order
        scored = sorted(zip(scores.tolist(), pool.evidences, strict=True),
                        key=lambda item: -item[0])
    except Exception as exc:
        if stats is None:
            raise
        stats.provider_failures += 1
        logger.warning("re-ranking failure, kept acceptance order: %s", exc)
        return [p.id for p in distinct[:RECALL_K]]
    ranked = distinct_paragraphs(evidence for _score, evidence in scored)
    return [p.id for p in ranked[:RECALL_K]]
