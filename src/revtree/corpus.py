"""Retrieval corpus: paragraph records, an immutable dense index, and top-k
cosine retrieval.

The index holds every embedding in memory; at desk scale (up to ~1e5
paragraphs) an exact scan beats maintaining an ANN structure.  Scores are raw
cosine values; downstream code only consumes the ranking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .embedding import EmbeddingProvider
from .errors import CorpusError


@dataclass(frozen=True)
class Paragraph:
    """One retrievable unit: a stable id, a title, and UTF-8 body text."""

    id: str
    title: str
    text: str

    def __post_init__(self):
        if not self.id or not self.id.strip():
            raise ValueError("paragraph id must be non-empty")
        if not self.text or not self.text.strip():
            raise ValueError(f"paragraph '{self.id}' has empty text")


def format_documents(paragraphs: Iterable[Paragraph]) -> str:
    """The text prompts show and the embedder reads for paragraphs.

    Each paragraph renders as ``title\ntext``, or its text alone when the
    title is blank; paragraphs are separated by a blank line.
    """
    return "\n\n".join(f"{p.title}\n{p.text}" if p.title.strip() else p.text
                       for p in paragraphs)


class CorpusIndex:
    """Immutable paragraph store with one embedding per paragraph.

    Safe to share across concurrent readers once built.  Rows are kept in
    ascending-id order so that stable sorting on score alone realises the
    score-then-id ranking contract.
    """

    def __init__(self, paragraphs: Iterable[Paragraph],
                 embeddings: dict[str, np.ndarray], provider_id: str):
        by_id: dict[str, Paragraph] = {}
        for p in paragraphs:
            if p.id in by_id:
                raise CorpusError(f"duplicate paragraph id '{p.id}'")
            by_id[p.id] = p
        missing = set(by_id) - set(embeddings)
        extra = set(embeddings) - set(by_id)
        if missing:
            raise CorpusError(f"paragraphs without embeddings: {sorted(missing)[:5]}")
        if extra:
            raise CorpusError(f"embeddings without paragraphs: {sorted(extra)[:5]}")

        self.provider_id = provider_id
        self._ids: tuple[str, ...] = tuple(sorted(by_id))
        self._by_id = by_id
        self._embeddings = {pid: np.asarray(embeddings[pid], dtype=np.float64)
                            for pid in self._ids}

        if self._ids:
            dims = {vec.shape for vec in self._embeddings.values()}
            if len(dims) != 1 or len(next(iter(dims))) != 1:
                raise CorpusError(f"inconsistent embedding shapes: {sorted(dims)}")
            self.dim: Optional[int] = next(iter(dims))[0]
            matrix = np.stack([self._embeddings[pid] for pid in self._ids])
            norms = np.linalg.norm(matrix, axis=1)
            if np.any(norms == 0.0):
                zero = [pid for pid, n in zip(self._ids, norms) if n == 0.0]
                raise CorpusError(f"all-zero embeddings for ids: {zero[:5]}")
            self._unit_matrix = matrix / norms[:, None]
        else:
            self.dim = None
            self._unit_matrix = np.zeros((0, 0), dtype=np.float64)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, pid: str) -> bool:
        return pid in self._by_id

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def paragraphs(self) -> tuple[Paragraph, ...]:
        return tuple(self._by_id[pid] for pid in self._ids)

    def get(self, pid: str) -> Paragraph:
        return self._by_id[pid]

    def embedding(self, pid: str) -> np.ndarray:
        return self._embeddings[pid]

    @property
    def embeddings(self) -> dict[str, np.ndarray]:
        return dict(self._embeddings)


def cosine_similarity(a: Sequence[float] | np.ndarray,
                      b: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between two equal-dimension non-zero vectors."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise ValueError("cosine_similarity expects 1-D vectors")
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} != {vb.shape[0]}")
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine_similarity is undefined for zero vectors")
    return float(np.dot(va, vb) / (norm_a * norm_b))


def retrieve(index: CorpusIndex, query: str, k: int,
             provider: EmbeddingProvider) -> list[tuple[Paragraph, float]]:
    """Top-k paragraphs by cosine similarity to ``query``.

    Returns exactly ``min(k, len(index))`` results in descending score order;
    equal scores are broken by ascending paragraph id.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not query or not query.strip():
        raise ValueError("query must be non-empty")
    if k == 0 or len(index) == 0:
        return []

    qvec = np.asarray(provider.embed_text(query), dtype=np.float64)
    if index.dim is not None and qvec.shape[0] != index.dim:
        raise CorpusError(
            f"query embedding dim {qvec.shape[0]} does not match index dim {index.dim}"
        )
    qnorm = float(np.linalg.norm(qvec))
    if qnorm == 0.0:
        raise ValueError("query embedded to a zero vector")

    # elementwise multiply + per-row reduction, not a BLAS matvec: dgemv may
    # accumulate different rows along different code paths, so identical
    # embeddings could disagree in the last ulp and corrupt the id tie-break
    scores = (index._unit_matrix * (qvec / qnorm)).sum(axis=1)
    # rows are in ascending-id order, so a stable sort on -score alone yields
    # the (score desc, id asc) contract
    order = np.argsort(-scores, kind="stable")[: min(k, len(index))]
    return [(index.get(index.ids[i]), float(scores[i])) for i in order]


def build_index(paragraphs: Iterable[Paragraph], provider: EmbeddingProvider,
                embed_title: bool = True) -> CorpusIndex:
    """Embed paragraphs with ``provider`` and assemble an index."""
    plist = list(paragraphs)
    embeddings = {
        p.id: provider.embed_paragraph(
            p, format_documents([p]) if embed_title else p.text)
        for p in plist
    }
    return CorpusIndex(plist, embeddings, provider.provider_id)


def load_paragraphs(source_path: str | Path) -> list[Paragraph]:
    """Parse a line-delimited corpus file into paragraphs.

    Each line is a JSON record with ``id``, ``title`` and ``text`` fields.
    Blank lines are skipped.  Malformed lines and duplicate ids are errors
    that name the offending line.
    """
    path = Path(source_path)
    paragraphs: list[Paragraph] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusError(f"{path}: line {lineno}: record must be an object")
            try:
                pid = record["id"]
                title = record.get("title", "")
                text = record["text"]
            except KeyError as exc:
                raise CorpusError(
                    f"{path}: line {lineno}: missing field {exc}"
                ) from exc
            if not isinstance(pid, str) or not isinstance(title, str) \
                    or not isinstance(text, str):
                raise CorpusError(
                    f"{path}: line {lineno}: id, title and text must be strings"
                )
            if pid in seen:
                raise CorpusError(
                    f"{path}: line {lineno}: duplicate id '{pid}' "
                    f"(first seen on line {seen[pid]})"
                )
            try:
                paragraph = Paragraph(id=pid, title=title, text=text)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
            seen[pid] = lineno
            paragraphs.append(paragraph)
    return paragraphs


def ingest_corpus(source_path: str | Path, provider: EmbeddingProvider,
                  embed_title: bool = True) -> CorpusIndex:
    """Load a corpus file and build its index with ``provider``."""
    return build_index(load_paragraphs(source_path), provider, embed_title)
