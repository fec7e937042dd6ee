"""Embedding providers.

Three interchangeable implementations back the corpus index and query
embedding:

* :class:`HashedEmbedder` -- fully offline and deterministic; every token maps
  to a seeded pseudo-random direction and a text embeds to the count-weighted
  sum over its token multiset.  Its only contract is determinism and a fixed
  dimension, not semantic quality.  Each direction is drawn once into one
  token table; a text gathers its tokens' rows and adds them in text order,
  so its vector has the bits of adding one token vector at a time.
* :class:`RemoteEmbedder` -- thin client for an HTTPS embedding endpoint,
  configured through environment variables.
* :class:`PrecomputedEmbeddings` -- serves vectors loaded from a file keyed by
  paragraph id, optionally delegating free-text (query) embedding to a
  fallback provider.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import CorpusError, ProviderConfigError
from .jsonl import read_jsonl
from .llm import new_session, post_json, read_env, with_retries

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Paragraph

EMBED_BASE_URL_VAR = "REVTREE_EMBED_BASE_URL"
EMBED_API_KEY_VAR = "REVTREE_EMBED_API_KEY"
EMBED_MODEL_VAR = "REVTREE_EMBED_MODEL"


class EmbeddingProvider:
    """Base contract: deterministic text -> 1-D float vector of fixed dim."""

    provider_id: str = "abstract"
    dim: Optional[int] = None

    def embed_text(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_paragraph(self, paragraph: "Paragraph", text: str) -> np.ndarray:
        """Embed one corpus paragraph.

        ``text`` is the already-composed string to embed (title and body may
        have been joined by the caller).  The default simply delegates to
        :meth:`embed_text`; id-keyed providers override this.
        """
        return self.embed_text(text)


class HashedEmbedder(EmbeddingProvider):
    """Deterministic test embedder: seeded token-hash projection.

    Each distinct token deterministically maps (via a keyed blake2b digest
    seeding a PRNG) to a dense Gaussian direction in ``dim`` dimensions; a
    text embeds to the sum of its tokens' directions, weighted by token
    count.  Identical input always yields an identical vector, across
    processes and platforms.

    The directions drawn so far are rows of one float64 token table.  A text
    gathers its tokens' rows and sums them in text order from ``+0.0``, so
    the sum's rounding is that of adding one token at a time.  One embedder
    may be shared by threads: new tokens are added under a lock, and a
    token's row id is published only once its row is in ``self._table``.
    """

    # The first table is larger than 32 MiB, glibc's cap on its mmap
    # threshold.  Freeing a smaller mapped table raises that threshold, and
    # later arrays then come from a heap that keeps what is freed: repeated
    # index builds peaked ~15% higher in RSS.  Rows not yet written are pages
    # never touched, which cost no memory.
    _INITIAL_BYTES = 2 ** 25 + 1

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.seed = seed
        self.provider_id = f"hashed:dim={dim},seed={seed}"
        self._key = str(seed).encode("utf-8")
        self._rows: dict[str, int] = {}
        # numpy sums a reduction along the fast memory axis pairwise, so the
        # table is at least two columns wide: then the rows of a gather are
        # added one after another
        width = max(dim, 2)
        self._table = np.zeros((self._INITIAL_BYTES // (8 * width) + 1, width))
        self._lock = threading.Lock()

    def _add_tokens(self, tokens: list[str]) -> None:
        with self._lock:
            table = self._table
            for token in tokens:
                if token in self._rows:
                    continue
                row = len(self._rows)
                if row == table.shape[0]:
                    grown = np.zeros((2 * row, table.shape[1]))
                    grown[:row] = table
                    self._table = table = grown
                digest = hashlib.blake2b(
                    token.encode("utf-8"), digest_size=8, key=self._key
                ).digest()
                rng = np.random.default_rng(int.from_bytes(digest, "big"))
                table[row, :self.dim] = rng.standard_normal(self.dim)
                self._rows[token] = row

    def embed_text(self, text: str) -> np.ndarray:
        tokens = text.lower().split()
        if not tokens:
            raise ValueError("cannot embed empty or whitespace-only text")
        rows = self._rows
        try:
            ids = [rows[token] for token in tokens]
        except KeyError:
            self._add_tokens([t for t in tokens if t not in rows])
            ids = [rows[token] for token in tokens]
        # the ids are read before the table, so the table holds their rows
        acc = np.add.reduce(self._table.take(ids, axis=0), axis=0, initial=0.0)
        return acc[:self.dim]


class RemoteEmbedder(EmbeddingProvider):
    """Client for a remote embedding service speaking the common
    ``POST {base}/embeddings`` JSON protocol.

    Base URL, API key and model name come from the ``REVTREE_EMBED_BASE_URL``,
    ``REVTREE_EMBED_API_KEY`` and ``REVTREE_EMBED_MODEL`` environment
    variables.  Construction fails before any network activity if they are
    not set.
    """

    def __init__(self, session=None, timeout: float = 60.0, max_attempts: int = 3,
                 backoff_s: float = 0.5):
        base_url, self._api_key, self.model = read_env(
            (EMBED_BASE_URL_VAR, EMBED_API_KEY_VAR, EMBED_MODEL_VAR),
            "remote embedder")
        self.base_url = base_url.rstrip("/")
        self.provider_id = f"remote:{self.model}"
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._session = session if session is not None else new_session()

    def embed_text(self, text: str) -> np.ndarray:
        if not text.strip():
            raise ValueError("cannot embed empty or whitespace-only text")
        values = with_retries(
            lambda: post_json(self._session, f"{self.base_url}/embeddings",
                              self._api_key, {"model": self.model, "input": [text]},
                              self.timeout, "embedding",
                              lambda body: body["data"][0]["embedding"]),
            self.max_attempts, self.backoff_s, "embedding request")
        vec = np.asarray(values, dtype=np.float64)
        if self.dim is None:
            self.dim = vec.shape[0]
        elif vec.shape[0] != self.dim:
            raise ProviderConfigError(
                f"embedding dim changed mid-run: {vec.shape[0]} != {self.dim}"
            )
        return vec


class PrecomputedEmbeddings(EmbeddingProvider):
    """Serves paragraph vectors loaded from a line-delimited file.

    Each line is a JSON record ``{"id": ..., "values": [...]}``.  Free-text
    embedding (needed at query time) is delegated to ``fallback`` when given,
    otherwise it is an error.
    """

    def __init__(self, path: str | Path, fallback: Optional[EmbeddingProvider] = None):
        self.path = Path(path)
        self.fallback = fallback
        self._vectors: dict[str, np.ndarray] = {}
        dim: Optional[int] = None
        for lineno, record in read_jsonl(self.path, CorpusError):
            try:
                pid = record["id"]
                values = record["values"]
            except KeyError as exc:
                raise CorpusError(
                    f"{self.path}: line {lineno}: invalid embedding record: {exc}"
                ) from exc
            vec = np.asarray(values, dtype=np.float64)
            if vec.ndim != 1 or vec.size == 0:
                raise CorpusError(
                    f"{self.path}: line {lineno}: embedding values must be a "
                    "non-empty flat list"
                )
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise CorpusError(
                    f"{self.path}: line {lineno}: inconsistent embedding dim "
                    f"{vec.shape[0]} != {dim}"
                )
            if pid in self._vectors:
                raise CorpusError(
                    f"{self.path}: line {lineno}: duplicate embedding id '{pid}'"
                )
            self._vectors[pid] = vec
        if fallback is not None and None not in (fallback.dim, dim) \
                and fallback.dim != dim:
            raise CorpusError(
                f"{self.path}: query embedder dim {fallback.dim} does not match "
                f"the file's embedding dim {dim}"
            )
        self.dim = dim
        self.provider_id = f"precomputed:{self.path.name}"

    def embed_paragraph(self, paragraph: "Paragraph", text: str) -> np.ndarray:
        try:
            return self._vectors[paragraph.id]
        except KeyError:
            raise CorpusError(
                f"no precomputed embedding for paragraph id '{paragraph.id}'"
            ) from None

    def embed_text(self, text: str) -> np.ndarray:
        if self.fallback is None:
            raise ProviderConfigError(
                "precomputed embeddings cannot embed free text; configure a "
                "fallback provider for queries"
            )
        return self.fallback.embed_text(text)


def write_embeddings_file(path: str | Path, embeddings: dict[str, np.ndarray]) -> None:
    """Write an id -> vector map as line-delimited JSON, sorted by id.

    Each line is ``{"id": ..., "values": [...]}`` with every value spelled
    by ``repr``, as ``json.dumps`` spells a float.  Non-finite values, which
    json would write as ``NaN`` or ``Infinity``, are refused.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for pid in sorted(embeddings):
            vec = np.asarray(embeddings[pid], dtype=np.float64)
            if not np.isfinite(vec).all():
                raise ValueError(f"non-finite embedding for id {pid!r}")
            handle.write('{"id": ' + json.dumps(pid) + ', "values": ['
                         + ", ".join(map(repr, vec.tolist())) + "]}\n")
