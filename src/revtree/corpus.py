"""Retrieval corpus: paragraph records, an immutable dense index, and top-k
cosine retrieval.

The index holds every embedding in memory; at desk scale (up to ~1e5
paragraphs) an exact scan beats maintaining an ANN structure.  Scores are raw
cosine values; downstream code only consumes the ranking.

Raw embeddings live in one float64 ``(n, dim)`` matrix in ascending-id order,
which ``build_index`` fills a batch of contiguous rows at a time as it embeds
the paragraphs in that order (``embed_batches``, which ingest streams to its
files instead), or adopts from stored vectors, beside their norms and float32
unit rows.  A score is
``(unit * query).sum(axis=1)`` with ``unit = matrix / norms[:, None]``, so
identical embeddings tie exactly.  Top-k has two stages: one single-threaded
float32 pass scores every row to within ``_approx_error``, then only
the rows that can still reach the k-th score are scored exactly and sorted,
so the ranking and every score equal those of a full exact scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .embedding import EmbeddingProvider, PrecomputedEmbeddings
from .errors import CorpusError
from .jsonl import field, read_jsonl


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


# the norms and unit rows of an index are taken this many bytes of its
# matrix at a time
_BLOCK_BYTES = 1 << 20


def _row_norms(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(norms, shifts, scaled)`` of a block of rows.  A row whose norm
    overflows, or underflows to 0 though a value is non-zero, is scaled by
    the power of two of its largest value first, as :func:`cosine_similarity`
    does, and its norm taken from the scaled row:
    ``shifts`` holds that exponent, 0 for every other row, and ``scaled`` is
    the block with those rows scaled.  A row with a non-finite value gets a
    non-finite norm even so."""
    shifts = np.zeros(len(block), dtype=np.int32)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(block, axis=1)
        scaled = np.flatnonzero(np.isinf(norms) | (norms == 0.0) & block.any(axis=1))
        if scaled.size:
            shifts[scaled] = -np.frexp(np.abs(block[scaled]).max(axis=1))[1]
            block = np.ldexp(block, shifts[:, None])
            norms[scaled] = np.linalg.norm(block[scaled], axis=1)
    return norms, shifts, block


class _BadRows:
    """The first five ids of the rows with a non-finite norm and of those
    with a zero norm, gathered a block of rows at a time; an index refuses
    either kind, naming the non-finite ones first."""

    def __init__(self):
        self.non_finite: list[str] = []
        self.all_zero: list[str] = []

    def add(self, ids: Sequence[str], norms: np.ndarray) -> None:
        for found, rows in ((self.non_finite, ~np.isfinite(norms)),
                            (self.all_zero, norms == 0.0)):
            found += [ids[i] for i in np.flatnonzero(rows)[:5 - len(found)]]

    def refuse(self) -> None:
        for kind, found in (("non-finite", self.non_finite), ("all-zero", self.all_zero)):
            if found:
                raise CorpusError(f"{kind} embeddings for ids: {found}")


class CorpusIndex:
    """Immutable paragraph store with one embedding per paragraph.

    Safe to share across concurrent readers once built.  Rows are kept in
    ascending-id order so that stable sorting on score alone realises the
    score-then-id ranking contract.
    """

    def __init__(self, paragraphs: Sequence[Paragraph], matrix: np.ndarray,
                 document_provider_id: Optional[str] = None):
        """Adopt ``matrix``, whose row ``i`` is the embedding of
        ``paragraphs[i]``; the paragraphs must be in strictly ascending-id
        order.  The matrix is made read-only, not copied, when it is a
        C-ordered float64 array.

        ``document_provider_id`` is the id of the provider whose
        ``embed_text(format_documents([p]))`` is the row of each paragraph
        ``p``, or ``None`` when no provider is known to give the rows."""
        self.document_provider_id = document_provider_id
        self._ids: tuple[str, ...] = tuple(p.id for p in paragraphs)
        for first, second in zip(self._ids, self._ids[1:]):
            if first == second:
                raise CorpusError(f"duplicate paragraph id '{first}'")
            if first > second:
                raise CorpusError(
                    f"paragraph ids out of order: '{first}' before '{second}'")
        self._paragraphs = tuple(paragraphs)
        self._row = {pid: i for i, pid in enumerate(self._ids)}

        self._matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if not self._ids:
            self._matrix = np.zeros((0, 0))
        elif self._matrix.ndim != 2 or self._matrix.shape[0] != len(self._ids):
            raise CorpusError(
                f"embedding matrix of shape {self._matrix.shape} does not hold "
                f"one row for each of {len(self._ids)} paragraphs")
        self.dim: Optional[int] = self._matrix.shape[1] if self._ids else None
        self._matrix.flags.writeable = False

        # taken a block of rows at a time, so that no (n, dim) float64
        # temporary is made; a row's norm has the same bits either way.  The
        # unit row and scores of a row whose norm overflows, or underflows to
        # 0, are taken from its scaled row (_row_norms); _shifts is None when
        # no row needs one
        n = len(self._ids)
        self._norms = np.empty(n)
        self._shifts = np.zeros(n, dtype=np.int32)
        self._unit32 = np.empty(self._matrix.shape, dtype=np.float32)
        bad = _BadRows()
        step = max(1, _BLOCK_BYTES // (8 * max(self.dim or 1, 1)))
        for start in range(0, n, step):
            rows = slice(start, start + step)
            self._norms[rows], self._shifts[rows], block = _row_norms(self._matrix[rows])
            bad.add(self._ids[rows], self._norms[rows])
            # divided in float64 and rounded straight into place, so no
            # float64 unit block is made
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(block, self._norms[rows, None], out=self._unit32[rows],
                          casting="same_kind")
        bad.refuse()
        for array in (self._norms, self._shifts, self._unit32):
            array.flags.writeable = False
        if not self._shifts.any():
            self._shifts = None
        # a tiny vector's norm loses bits in the float64 subnormals, so its
        # unit row can be longer than 1
        self._longest_unit = float(np.sqrt(
            np.einsum("ij,ij->i", self._unit32, self._unit32).max(initial=0.0)))

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def get(self, pid: str) -> Paragraph:
        return self._paragraphs[self._row[pid]]

    @property
    def matrix(self) -> np.ndarray:
        """The raw vectors, read-only, row ``i`` that of ``ids[i]``."""
        return self._matrix

    def embedding(self, pid: str) -> np.ndarray:
        """The raw (not normalised) vector of ``pid``, as given."""
        return self._matrix[self._row[pid]]


def cosine_similarity(a: Sequence[float] | np.ndarray,
                      b: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between two equal-dimension non-zero vectors."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise ValueError("cosine_similarity expects 1-D vectors")
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} != {vb.shape[0]}")
    # scaled by a power of two, which is exact and leaves the cosine's bits
    # alone, so that a tiny vector's squared norm cannot fall into the
    # subnormals and lose precision (nor a huge one's overflow)
    va, vb = (np.ldexp(v, -np.frexp(np.abs(v).max(initial=0.0))[1]) for v in (va, vb))
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine_similarity is undefined for zero vectors")
    return float(np.dot(va, vb) / (norm_a * norm_b))


def cosine_similarities(rows: np.ndarray, b: Sequence[float] | np.ndarray) -> np.ndarray:
    """:func:`cosine_similarity` of each row of ``rows`` with ``b``, bit for
    bit, in one pass: every row is scaled by its power of two at once and
    ``b``'s norm is taken once; each row then takes the two ``np.dot``
    products that :func:`cosine_similarity` takes per pair."""
    rows = np.asarray(rows, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if rows.ndim != 2 or vb.ndim != 1:
        raise ValueError("cosine_similarities expects a 2-D matrix and a 1-D vector")
    if rows.shape[1] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} != {vb.shape[0]}")
    rows = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1][:, None])
    vb = np.ldexp(vb, -np.frexp(np.abs(vb).max(initial=0.0))[1])
    norm_b = float(np.linalg.norm(vb))
    dots = np.empty((len(rows), 2))
    for i, row in enumerate(rows):
        dots[i] = np.dot(row, row), np.dot(row, vb)
    norms = np.sqrt(dots[:, 0])
    if norm_b == 0.0 or not norms.all():
        raise ValueError("cosine_similarity is undefined for zero vectors")
    return dots[:, 1] / (norms * norm_b)


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
    if qvec.shape[0] != index.dim:
        raise CorpusError(
            f"query embedding dim {qvec.shape[0]} does not match index dim {index.dim}"
        )
    if not np.isfinite(qvec).all():
        raise ValueError("query embedded to a non-finite vector")
    qnorm = float(np.linalg.norm(qvec))
    if qnorm == 0.0:
        raise ValueError("query embedded to a zero vector")

    q = qvec / qnorm
    n = len(index)
    k = min(k, n)
    # every row in the exact top k, or tied with the k-th exact score T, has
    # approx >= T - eps, and the k-th largest approx t is at most T + eps, so
    # the rows with approx >= t - 2*eps include them all (at k = n, every
    # row).  einsum, not a BLAS matvec, whose OpenBLAS worker threads keep
    # spinning after each call and make query cost depend on host load
    approx = np.einsum("ij,j->i", index._unit32, q.astype(np.float32))
    t = float(np.partition(approx, n - k)[n - k])
    rows = np.flatnonzero(approx >= t - 2 * _approx_error(index, q))
    # the contract's own expression on the surviving rows: division and
    # products are elementwise and each row is summed alone, so every score
    # is bit-identical to scoring the whole matrix.  Rows are in ascending-id
    # order, so a stable sort on -score gives (score desc, id asc).
    raw = index._matrix[rows]
    if index._shifts is not None:
        # a row whose norm overflows or underflows is scaled by its power of
        # two first; a shift of 0 leaves a row's bits alone
        raw = np.ldexp(raw, index._shifts[rows, None])
    scores = (raw / index._norms[rows, None] * q).sum(axis=1)
    order = np.argsort(-scores, kind="stable")[:k]
    return [(index._paragraphs[rows[i]], float(scores[i])) for i in order]


def _approx_error(index: CorpusIndex, q: np.ndarray) -> float:
    """``eps``, a bound on ``|approx - exact|`` for every row of ``index``
    and the unit query ``q``.

    Let ``u = 2**-24`` and ``S = sum |unit[j] * q[j]|``, at most ``scale``
    by Cauchy-Schwarz.  Rounding the unit row and the query to float32 moves
    the products by at most ``(2u + u*u) * S``.  A float32 dot of length
    ``dim``, added in any order and with or without FMA, is off by at most
    ``gamma_dim * S * (1 + u)**2``, ``gamma_dim = dim*u / (1 - dim*u)``
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so any
    einsum or BLAS kernel keeps the bound; the float64 sum is off by
    at most ``dim * 2**-53 * S``.  That is ``(dim + 2) * u * S`` up to terms
    of order ``dim * u * u``; the factor 4 is room for them and for
    ``scale`` being measured in float32.  Underflow or flush-to-zero costs at
    most ``2**-126 * max(1, |unit|, |q|)`` for each of ``4 * dim`` inputs,
    products and additions, below ``dim * 2**-122 * scale``, as ``|unit|``
    and ``|q|`` are at least ``1/sqrt(2)`` (a subnormal square at most
    doubles when rounded).
    """
    dim, scale = index.dim, index._longest_unit * float(np.linalg.norm(q))
    return (4 * (dim + 2) * 2.0 ** -24 + dim * 2.0 ** -122) * scale


# paragraphs embedded per batch.  A batch holds all of its token strings at
# once: building a 20k-paragraph index peaked ~2 MB higher in RSS with 128
# paragraphs a batch, ~3.5 MB with 256, at about the same speed
_EMBED_CHUNK = 128


def embed_batches(ordered: Sequence[Paragraph], provider: EmbeddingProvider,
                  embed_title: bool = True) -> Iterator[np.ndarray]:
    """The embeddings of ``ordered``, ``_EMBED_CHUNK`` paragraphs a batch,
    each through one :meth:`EmbeddingProvider.embed_texts` call; with
    ``embed_title`` a paragraph ``p`` is embedded as
    ``format_documents([p])``, else as its text.

    Each batch must be one ``(len(chunk), dim)`` array with the first
    batch's dim, which is above 0.  After the last batch, rows an index
    refuses (:class:`CorpusIndex`) are refused with its message, so that a
    caller that writes each batch as it comes can still discard them all.
    """
    dim, bad = None, _BadRows()
    for start in range(0, len(ordered), _EMBED_CHUNK):
        chunk = ordered[start:start + _EMBED_CHUNK]
        vectors = np.asarray(provider.embed_texts(
            [format_documents([p]) if embed_title else p.text for p in chunk]),
            dtype=np.float64)
        if len(vectors) != len(chunk):
            raise CorpusError(
                f"{len(vectors)} embeddings for {len(chunk)} paragraphs")
        if dim is None and vectors.ndim == 2:
            dim = vectors.shape[1]
        if not dim or vectors.shape[1:] != (dim,):
            raise CorpusError(
                f"embeddings of '{chunk[0].id}' to '{chunk[-1].id}' have shape "
                f"{vectors.shape}, not ({len(chunk)}, dim) with the first batch's "
                "dim, which is above 0")
        bad.add([p.id for p in chunk], _row_norms(vectors)[0])
        yield vectors
    bad.refuse()


def build_index(paragraphs: Iterable[Paragraph], provider: EmbeddingProvider,
                embed_title: bool = True) -> CorpusIndex:
    """Embed paragraphs with ``provider`` and assemble an index.

    Paragraphs are sorted by id once and embedded in that order
    (:func:`embed_batches`); each batch is written into its contiguous rows
    of the index's matrix.  With ``embed_title`` the rows are the
    provider's embeddings of ``format_documents([p])``, which the index
    records.  Stored vectors (:class:`PrecomputedEmbeddings`) are not
    embedded: the index adopts their matrix, whose ids must be the
    paragraphs' sorted ids, and their ``document_provider_id``.
    """
    ordered = sorted(paragraphs, key=lambda p: p.id)
    if isinstance(provider, PrecomputedEmbeddings):
        return CorpusIndex(ordered, provider.matrix_for([p.id for p in ordered]),
                           provider.document_provider_id)
    matrix, start = np.zeros((0, 0)), 0
    for vectors in embed_batches(ordered, provider, embed_title):
        if not start:
            matrix = np.empty((len(ordered), vectors.shape[1]))
        matrix[start:start + len(vectors)] = vectors
        start += len(vectors)
    return CorpusIndex(ordered, matrix, provider.provider_id if embed_title else None)


def load_paragraphs(source_path: str | Path, digest=None) -> list[Paragraph]:
    """Parse a line-delimited corpus file into paragraphs.

    Each line is a JSON record with ``id``, ``title`` and ``text`` fields.
    Blank lines are skipped.  Malformed lines and duplicate ids are errors
    that name the offending line.  ``digest``, a :mod:`hashlib` object, if
    given, takes the bytes the paragraphs are parsed from, as they are read.
    """
    path = Path(source_path)
    paragraphs: list[Paragraph] = []
    seen: dict[str, int] = {}
    for lineno, record in read_jsonl(path, CorpusError, digest):
        where = f"{path}: line {lineno}"
        pid = field(record, "id", str, where, CorpusError)
        title = field(record, "title", str, where, CorpusError, default="")
        text = field(record, "text", str, where, CorpusError)
        if pid in seen:
            raise CorpusError(f"{where}: duplicate id '{pid}' "
                              f"(first seen on line {seen[pid]})")
        try:
            paragraph = Paragraph(id=pid, title=title, text=text)
        except ValueError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
        seen[pid] = lineno
        paragraphs.append(paragraph)
    return paragraphs
