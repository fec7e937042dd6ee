"""Answer and retrieval metrics, dataset loading, and report aggregation.

Answer normalization follows the de facto standard for extractive QA scoring:
lowercase, strip punctuation, drop the articles "a", "an", "the" as whole
tokens, and collapse whitespace.  F1 is token-multiset overlap, maximized
over gold aliases.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import RevtreeError
from . import jsonl
from .search import RunStats

# the retrieval cut: recall@15 scores the first 15 submitted paragraph ids
RECALL_K = 15

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


@dataclass(frozen=True)
class QAExample:
    id: str
    question: str
    gold_answers: tuple[str, ...]
    gold_paragraph_ids: frozenset[str] = frozenset()

    def __post_init__(self):
        # the id names the question's trace file
        if not self.id.strip() or self.id in (".", "..") or \
                any(c in self.id for c in "/\\\0"):
            raise ValueError(f"example id {self.id!r} is not a single safe file name")
        if not self.question.strip():
            raise ValueError(f"example '{self.id}' has a blank question")
        if not self.gold_answers:
            raise ValueError(f"example '{self.id}' needs at least one gold answer")


@dataclass(frozen=True)
class ExampleResult:
    """Per-question run output consumed by the aggregator; a ``failed``
    question has no answer and scores 0."""

    example_id: str
    answer: str
    scored_ids: tuple[str, ...] = ()
    stats: RunStats = field(default_factory=RunStats)
    fusion_calls: int = 0
    failed: bool = False


@dataclass(frozen=True)
class MetricsReport:
    em: float
    f1: float
    recall_at_15: float
    mean_api_calls: float
    mean_distinct_docs: float
    mean_rate: float
    mean_evidence: float
    parse_success_rate: float
    n: int
    recall_excluded: int = 0
    failed: int = 0
    total_provider_failures: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        rows = [
            ("EM", f"{self.em:.4f}"),
            ("F1", f"{self.f1:.4f}"),
            ("Recall@15", f"{self.recall_at_15:.4f}"),
            ("Mean API calls", f"{self.mean_api_calls:.2f}"),
            ("Mean distinct docs", f"{self.mean_distinct_docs:.2f}"),
            ("Rate (docs/call)", f"{self.mean_rate:.4f}"),
            ("Mean evidence", f"{self.mean_evidence:.2f}"),
            ("Parse success rate", f"{self.parse_success_rate:.4f}"),
            ("Examples", str(self.n)),
            ("Recall-excluded", str(self.recall_excluded)),
            ("Failed", str(self.failed)),
            ("Provider failures", str(self.total_provider_failures)),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop whole-token articles, collapse
    whitespace."""
    lowered = text.lower()
    no_punct = lowered.translate(_PUNCT_TABLE)
    no_articles = _ARTICLES.sub(" ", no_punct)
    return " ".join(no_articles.split())


def _tokens(text: str) -> list[str]:
    return normalize_answer(text).split()


def exact_match(prediction: str, gold_answers: Sequence[str]) -> int:
    """1 iff the normalized prediction equals some normalized gold answer."""
    if not gold_answers:
        raise ValueError("gold_answers must be non-empty")
    norm_pred = normalize_answer(prediction)
    return int(any(norm_pred == normalize_answer(g) for g in gold_answers))


def _pair_f1(prediction: str, gold: str) -> float:
    pred_tokens = _tokens(prediction)
    gold_tokens = _tokens(gold)
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_score(prediction: str, gold_answers: Sequence[str]) -> float:
    """Token-level F1 on normalized multisets, maximized over gold aliases."""
    if not gold_answers:
        raise ValueError("gold_answers must be non-empty")
    return max(_pair_f1(prediction, g) for g in gold_answers)


def recall_at_k(retrieved_ids: Sequence[str], gold_ids: frozenset[str] | set[str],
                k: int = RECALL_K) -> float:
    """Fraction of gold paragraph ids present in the first k retrieved."""
    if not gold_ids:
        raise ValueError("gold_ids must be non-empty for a scored example")
    window = set(retrieved_ids[:k])
    return len(window & set(gold_ids)) / len(gold_ids)


def sum_results(results: Iterable[ExampleResult]) -> Counter:
    """Count ``completed`` and ``failed`` results, and sum the completed ones' counts."""
    totals = Counter(completed=0, failed=0)
    for result in results:
        if result.failed:
            totals["failed"] += 1
        else:
            totals.update({key: getattr(result.stats, key) for key in (
                "api_calls", "distinct_docs", "evidence_count", "parse_failures",
                "provider_failures")}, completed=1, fusion_calls=result.fusion_calls)
    return totals


def evaluate_run(dataset: Sequence[QAExample],
                 results: Mapping[str, ExampleResult]) -> MetricsReport:
    """Aggregate per-example results into one report.

    A failed example scores 0 on EM, F1 and recall at :data:`RECALL_K`.
    Examples without gold paragraph ids are excluded from recall (counted,
    not scored as zero).
    Call, document and evidence means are taken over the completed
    examples; the rate is the ratio of the mean distinct-document count to
    the mean call count, and parse success is computed over call totals.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    em_sum = 0.0
    f1_sum = 0.0
    recall_sum = 0.0
    recall_n = 0
    for example in dataset:
        result = results.get(example.id)
        if result is None:
            raise RevtreeError(f"missing result for example id '{example.id}'")
        if example.gold_paragraph_ids:
            recall_n += 1
        if result.failed:
            continue
        em_sum += exact_match(result.answer, example.gold_answers)
        f1_sum += f1_score(result.answer, example.gold_answers)
        if example.gold_paragraph_ids:
            recall_sum += recall_at_k(result.scored_ids,
                                      example.gold_paragraph_ids)
    totals = sum_results(results[example.id] for example in dataset)
    n = len(dataset)
    done = totals["completed"] or 1  # with none completed, every mean is 0
    api_sum = totals["api_calls"]
    mean_api = api_sum / done
    mean_docs = totals["distinct_docs"] / done
    return MetricsReport(
        em=em_sum / n,
        f1=f1_sum / n,
        recall_at_15=recall_sum / recall_n if recall_n else 0.0,
        mean_api_calls=mean_api,
        mean_distinct_docs=mean_docs,
        mean_rate=mean_docs / mean_api if mean_api > 0 else 0.0,
        mean_evidence=totals["evidence_count"] / done,
        parse_success_rate=1.0 - totals["parse_failures"] / api_sum if api_sum > 0 else 1.0,
        n=n,
        recall_excluded=n - recall_n,
        failed=totals["failed"],
        total_provider_failures=totals["provider_failures"],
    )


def load_dataset(path: str | Path) -> list[QAExample]:
    """Parse a line-delimited QA dataset.

    Each line carries ``id``, ``question``, ``gold_answers`` and an optional
    ``gold_paragraph_ids`` list.  An id names its trace file, so it is one
    safe file name, and a question is not blank.
    """
    examples: list[QAExample] = []
    seen: set[str] = set()
    for lineno, record in jsonl.read_jsonl(path, RevtreeError):
        where = f"{path}: line {lineno}"
        read = partial(jsonl.field, record, where=where, error_cls=RevtreeError)
        try:
            example = QAExample(
                id=read("id", str), question=read("question", str),
                gold_answers=tuple(read("gold_answers", list[str])),
                gold_paragraph_ids=frozenset(read("gold_paragraph_ids", list[str],
                                                  default=[])))
        except ValueError as exc:
            raise RevtreeError(f"{where}: {exc}") from exc
        if example.id in seen:
            raise RevtreeError(f"{where}: duplicate example id '{example.id}'")
        seen.add(example.id)
        examples.append(example)
    return examples
