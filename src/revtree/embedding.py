"""Embedding providers.

Every provider embeds one text with :meth:`EmbeddingProvider.embed_text`
and a batch with :meth:`EmbeddingProvider.embed_texts`, which returns one
row per text in a ``(m, dim)`` float64 array.  The index build and the
re-ranking of fusion evidence embed in batches; a batch's rows equal the
texts' single embeddings bit for bit.  Three interchangeable implementations
back the corpus index and query embedding:

* :class:`HashedEmbedder` -- fully offline and deterministic; every token maps
  to a seeded pseudo-random direction and a text embeds to the count-weighted
  sum over its token multiset.  Its only contract is determinism and a fixed
  dimension, not semantic quality.  Each direction is drawn once into one
  token table; a text gathers its tokens' rows and adds them in text order,
  so its vector has the bits of adding one token vector at a time.  A
  batch's new tokens are seeded together in one vectorized pass, which
  gives each direction the bits of its own ``default_rng`` draw.  A sum
  can also be continued from a stored vector over more text
  (:meth:`HashedEmbedder.continue_folds`), which fusion's re-ranking does
  from the rows of an index the embedder built.
* :class:`RemoteEmbedder` -- thin client for an HTTPS embedding endpoint,
  configured through environment variables; a batch is posted in chunks.
* :class:`PrecomputedEmbeddings` -- serves stored paragraph vectors, parsed
  from a line-delimited file or loaded from the binary matrix an ingest
  writes beside it, delegating free-text (query) embedding to a fallback
  provider.
"""

from __future__ import annotations

import hashlib
import json
import threading
from itertools import chain, filterfalse
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import CorpusError, ProviderConfigError
from .jsonl import read_jsonl
from .llm import new_session, post_json, read_env, with_retries

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import CorpusIndex, Paragraph

EMBED_BASE_URL_VAR = "REVTREE_EMBED_BASE_URL"
EMBED_API_KEY_VAR = "REVTREE_EMBED_API_KEY"
EMBED_MODEL_VAR = "REVTREE_EMBED_MODEL"


class EmbeddingProvider:
    """Base contract: deterministic text -> 1-D float vector of fixed dim."""

    provider_id: str = "abstract"
    dim: Optional[int] = None

    def embed_text(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Row ``i`` is the embedding of ``texts[i]``.  The default embeds
        each text with :meth:`embed_text`, in order."""
        vectors = [self.embed_text(text) for text in texts]
        return np.array(vectors, dtype=np.float64) if vectors \
            else np.empty((0, self.dim or 0))

    def embed_paragraph(self, paragraph: "Paragraph", text: str) -> np.ndarray:
        """Embed one corpus paragraph.

        ``text`` is the already-composed string to embed (title and body may
        have been joined by the caller).  The default simply delegates to
        :meth:`embed_text`; id-keyed providers override this.
        """
        return self.embed_text(text)

    def embed_paragraphs(self, paragraphs: Sequence["Paragraph"],
                         texts: Sequence[str]) -> Sequence[np.ndarray]:
        """One vector per paragraph, in order, for the composed ``texts``.

        The default embeds each with :meth:`embed_paragraph`; providers whose
        paragraph vectors are their text vectors embed the batch with
        :meth:`embed_texts`.
        """
        return [self.embed_paragraph(p, text) for p, text in zip(paragraphs, texts)]


# numpy's SeedSequence (pool size 4) and PCG64 seeding, for the seeds of
# HashedEmbedder's tokens
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(seed)`` for each 64-bit seed, that is of
    ``default_rng(seed)``'s bit generator.

    ``SeedSequence`` hashes a seed's 32-bit words, low first, into a pool of
    four words (``mix_entropy``); a pool word without entropy hashes 0, so a
    seed below 2**32 mixes as if its high word were 0.  ``generate_state(4,
    uint64)`` then draws eight 32-bit words from the pool.  Both run here
    over uint32 arrays, one lane per seed: the hash constants do not depend
    on the data.  PCG64's ``set_seed`` follows in Python ints.  Each uint64 is
    built from its two words by arithmetic, so no byte order is involved.
    """
    seed_array = np.array(seeds, dtype=np.uint64)
    low = (seed_array & np.uint64(_MASK32)).astype(np.uint32)
    high = (seed_array >> np.uint64(32)).astype(np.uint32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    a, b, c, d = ((words[2 * i] | words[2 * i + 1] << np.uint64(32)).tolist()
                  for i in range(4))
    states = []
    for initstate_high, initstate_low, initseq_high, initseq_low in zip(a, b, c, d):
        inc = ((initseq_high << 64 | initseq_low) << 1 | 1) & _MASK128
        initstate = initstate_high << 64 | initstate_low
        states.append((((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


class HashedEmbedder(EmbeddingProvider):
    """Deterministic test embedder: seeded token-hash projection.

    Each distinct token deterministically maps (via a keyed blake2b digest
    seeding a PRNG) to a dense Gaussian direction in ``dim`` dimensions; a
    text embeds to the sum of its tokens' directions, weighted by token
    count.  Identical input always yields an identical vector, across
    processes and platforms.  The direction of token ``t`` is
    ``default_rng(int.from_bytes(blake2b(t, digest_size=8, key=str(seed)),
    "big")).standard_normal(dim)``.

    The directions drawn so far are rows of one float64 token table.  A text
    gathers its tokens' rows and sums them in text order from ``+0.0``, so
    the sum's rounding is that of adding one token at a time.
    :meth:`embed_texts` tokenizes each text once and adds all of the batch's
    new tokens in one step: from ``_SEED_BATCH`` new tokens on, their
    generator states are computed in one vectorized pass
    (:func:`_pcg64_states`) and each direction is drawn from one ``PCG64``
    set to its state, with the bits of its own ``default_rng`` draw.  Fewer
    new tokens are drawn one ``default_rng`` at a time.  One embedder may be
    shared by threads: new tokens are added under a lock, and a token's row
    id is published only once its row is in ``self._table``.
    """

    # The first table is larger than 32 MiB, glibc's cap on its mmap
    # threshold.  Freeing a smaller mapped table raises that threshold, and
    # later arrays then come from a heap that keeps what is freed: repeated
    # index builds peaked ~15% higher in RSS.  Rows not yet written are pages
    # never touched, which cost no memory.
    _INITIAL_BYTES = 2 ** 25 + 1
    # The vectorized seeding costs ~170 us per batch, and a default_rng draw
    # ~14 us per token (2-vCPU host, numpy 2.4), so they break even at ~20
    _SEED_BATCH = 20

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

    def _add_tokens(self, tokens: Iterable[str]) -> None:
        """Draw the rows of the distinct ``tokens`` not yet in the table."""
        with self._lock:
            rows = self._rows
            new = [token for token in tokens if token not in rows]
            if not new:
                return
            first, table = len(rows), self._table
            size = table.shape[0]
            while size < first + len(new):
                size *= 2
            if size > table.shape[0]:
                grown = np.zeros((size, table.shape[1]))
                grown[:first] = table[:first]
                self._table = table = grown
            seeds = [int.from_bytes(hashlib.blake2b(
                token.encode("utf-8"), digest_size=8, key=self._key).digest(), "big")
                for token in new]
            block = table[first:first + len(new), :self.dim]
            if len(new) < self._SEED_BATCH:
                for row, seed in zip(block, seeds):
                    np.random.default_rng(seed).standard_normal(out=row)
            else:
                bit_generator = np.random.PCG64(0)
                generator = np.random.Generator(bit_generator)
                for row, (state, inc) in zip(block, _pcg64_states(seeds)):
                    bit_generator.state = {
                        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
                    generator.standard_normal(out=row)
            rows.update(zip(new, range(first, first + len(new))))

    def _token_ids(self, texts: Sequence[str],
                   empty_ok: bool = False) -> list[list[int]]:
        """Each text's token row ids in text order.  The tokens of the texts
        that miss a row are added in one :meth:`_add_tokens` call, and only
        those texts are looked up again.  A text without tokens is refused
        unless ``empty_ok``."""
        tokens = [text.lower().split() for text in texts]
        if not empty_ok and not all(tokens):
            raise ValueError("cannot embed empty or whitespace-only text")
        rows = self._rows
        row_of = rows.__getitem__
        ids, missed = [], []
        for text_tokens in tokens:
            try:
                ids.append(list(map(row_of, text_tokens)))
            except KeyError:
                missed.append(len(ids))
                ids.append([])
        if missed:
            self._add_tokens(dict.fromkeys(filterfalse(
                rows.__contains__, chain.from_iterable(tokens[i] for i in missed))))
            for i in missed:
                ids[i] = list(map(row_of, tokens[i]))
        return ids

    def _sum_rows(self, ids: list[int]) -> np.ndarray:
        # the ids are read before the table, so the table holds their rows
        acc = np.add.reduce(self._table.take(ids, axis=0), axis=0, initial=0.0)
        return acc[:self.dim]

    def embed_text(self, text: str) -> np.ndarray:
        ids, = self._token_ids([text])
        return self._sum_rows(ids)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        out = np.empty((len(texts), self.dim))
        for row, ids in zip(out, self._token_ids(texts)):
            row[:] = self._sum_rows(ids)
        return out

    def continue_folds(self, starts: np.ndarray, texts: Sequence[str]) -> np.ndarray:
        """Row ``i`` is the sum of ``texts[i]``'s token rows added in text
        order to ``starts[i]``, where :meth:`embed_text` adds them to
        ``+0.0``; an empty text gives its start row.

        So when ``starts[i]`` is this embedder's vector of a text ``a`` and
        ``texts[i]`` is empty or starts with whitespace, row ``i`` has the
        bits of ``embed_text(a + texts[i])``: ``str.lower`` reads no context
        across whitespace, the tokens split there, and a sum from ``+0.0``
        is never ``-0.0``, so starting from it changes no bit.
        """
        out = np.empty((len(texts), self.dim))
        width = self._table.shape[1]
        for row, start, ids in zip(out, starts, self._token_ids(texts, empty_ok=True)):
            # the start row, padded as the table is, then the token rows
            rows = np.empty((len(ids) + 1, width))
            rows[0, :self.dim] = start
            rows[0, self.dim:] = 0.0
            self._table.take(ids, axis=0, out=rows[1:])
            row[:] = np.add.reduce(rows, axis=0, initial=0.0)[:self.dim]
        return out

    def embed_paragraphs(self, paragraphs: Sequence["Paragraph"],
                         texts: Sequence[str]) -> np.ndarray:
        return self.embed_texts(texts)


class RemoteEmbedder(EmbeddingProvider):
    """Client for a remote embedding service speaking the common
    ``POST {base}/embeddings`` JSON protocol.

    Base URL, API key and model name come from the ``REVTREE_EMBED_BASE_URL``,
    ``REVTREE_EMBED_API_KEY`` and ``REVTREE_EMBED_MODEL`` environment
    variables.  Construction fails before any network activity if they are
    not set.

    :meth:`embed_texts` posts ``_CHUNK`` texts per request.  A reply must hold
    one embedding per input; rows are placed by each item's ``index`` when
    the reply gives one, else in reply order.  Every embedding of a run must
    have the dim of the first.
    """

    # common services take up to a few thousand inputs a request; 64
    # paragraphs keep a request well under their body limits and a retry cheap
    _CHUNK = 64
    # seconds a post may take
    TIMEOUT = 60.0

    def __init__(self, session=None, backoff_s: float = 0.5):
        base_url, self._api_key, self.model = read_env(
            (EMBED_BASE_URL_VAR, EMBED_API_KEY_VAR, EMBED_MODEL_VAR),
            "remote embedder")
        self.base_url = base_url.rstrip("/")
        self.provider_id = f"remote:{self.model}"
        self.backoff_s = backoff_s
        self._session = session if session is not None else new_session()

    def embed_text(self, text: str) -> np.ndarray:
        return self.embed_texts([text])[0]

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        if not all(text.strip() for text in texts):
            raise ValueError("cannot embed empty or whitespace-only text")
        chunks = []
        for start in range(0, len(texts), self._CHUNK):
            chunk = list(texts[start:start + self._CHUNK])
            vectors = with_retries(
                lambda: post_json(self._session, f"{self.base_url}/embeddings",
                                  self._api_key, {"model": self.model, "input": chunk},
                                  self.TIMEOUT, "embedding",
                                  lambda body: _reply_rows(body["data"], len(chunk))),
                self.backoff_s, "embedding request")
            if self.dim is None:
                self.dim = vectors.shape[1]
            elif vectors.shape[1] != self.dim:
                raise ProviderConfigError(
                    f"embedding dim changed mid-run: {vectors.shape[1]} != {self.dim}"
                )
            chunks.append(vectors)
        return np.concatenate(chunks) if chunks else np.empty((0, self.dim or 0))

    def embed_paragraphs(self, paragraphs: Sequence["Paragraph"],
                         texts: Sequence[str]) -> np.ndarray:
        return self.embed_texts(texts)


def _reply_rows(data: list, inputs: int) -> np.ndarray:
    """The ``(inputs, dim)`` embeddings of a reply's ``data``, placed by each
    item's ``index`` when it has one; a ``ValueError`` if they are not one
    non-empty embedding per input."""
    if len(data) != inputs:
        raise ValueError(f"{len(data)} embeddings for {inputs} inputs")
    order = [item["index"] if "index" in item else i for i, item in enumerate(data)]
    if sorted(order) != list(range(inputs)):
        raise ValueError(f"embedding indices {order} are not one per input")
    rows: list = [None] * inputs
    for i, item in zip(order, data):
        rows[i] = item["embedding"]
    vectors = np.array(rows, dtype=np.float64)
    if vectors.ndim != 2 or not vectors.shape[1]:
        raise ValueError("embeddings are not non-empty vectors of one dim")
    return vectors


class PrecomputedEmbeddings(EmbeddingProvider):
    """Serves stored paragraph vectors: one ``(n, dim)`` float64 matrix and
    its ids, in the order stored.

    By default they are parsed from the line-delimited file ``path``, one
    JSON record ``{"id": ..., "values": [...]}`` a line.  With ``binary``
    they are loaded instead from the ``matrix.npy`` and ``ids.json`` that
    :func:`write_embeddings_file` writes beside ``path``; the caller has
    checked their checksums, and the stored ids must then be exactly the
    ids an index asks for (:meth:`matrix_for`).  Free-text embedding (needed
    at query time) is delegated to ``fallback``, which must embed to the
    stored dim.  ``document_provider_id`` is the id of the provider whose
    ``embed_text(format_documents([p]))`` is the stored vector of each
    paragraph ``p``, when the caller knows it; an index built from these
    vectors records it (:class:`~revtree.corpus.CorpusIndex`).
    """

    def __init__(self, path: str | Path, fallback: EmbeddingProvider,
                 binary: bool = False, document_provider_id: Optional[str] = None):
        self.path = Path(path)
        self.fallback = fallback
        self._binary = binary
        self.document_provider_id = document_provider_id
        if binary:
            self._load_binary()
        else:
            self._parse()
        self.dim = self.matrix.shape[1] if self.ids else None
        if None not in (fallback.dim, self.dim) and fallback.dim != self.dim:
            raise CorpusError(
                f"{self.path}: query embedder dim {fallback.dim} does not match "
                f"the file's embedding dim {self.dim}"
            )
        self.provider_id = f"precomputed:{self.path.name}"

    def _parse(self) -> None:
        rows: list[np.ndarray] = []
        self._row: dict[str, int] = {}
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
            if rows and vec.shape != rows[0].shape:
                raise CorpusError(
                    f"{self.path}: line {lineno}: inconsistent embedding dim "
                    f"{vec.shape[0]} != {rows[0].shape[0]}"
                )
            if pid in self._row:
                raise CorpusError(
                    f"{self.path}: line {lineno}: duplicate embedding id '{pid}'"
                )
            self._row[pid] = len(rows)
            rows.append(vec)
        self.ids = list(self._row)
        self.matrix = np.array(rows) if rows else np.empty((0, 0))

    def _load_binary(self) -> None:
        ids_path = self.path.with_name(IDS_FILE)
        matrix_path = self.path.with_name(MATRIX_FILE)
        self.ids = json.loads(ids_path.read_text(encoding="utf-8"))
        if not isinstance(self.ids, list) or \
                not all(isinstance(pid, str) for pid in self.ids):
            raise CorpusError(f"{ids_path} does not hold a list of paragraph ids")
        self._row = dict(zip(self.ids, range(len(self.ids))))
        self.matrix = np.load(matrix_path, allow_pickle=False)
        if self.matrix.dtype != np.float64 or self.matrix.ndim != 2 or \
                self.matrix.shape[0] != len(self.ids):
            raise CorpusError(
                f"{matrix_path} holds a {self.matrix.dtype} array of shape "
                f"{self.matrix.shape}, not a float64 matrix with one row for each "
                f"of the {len(self.ids)} ids in {ids_path}")

    def matrix_for(self, ids: Sequence[str]) -> np.ndarray:
        """Row ``i`` is the stored vector of ``ids[i]``.  That is the stored
        matrix itself, not a copy, when ``ids`` are the stored ids in order;
        otherwise it is a gather of the stored rows, which vectors loaded
        with ``binary`` refuse."""
        if list(ids) == self.ids:
            return self.matrix
        if self._binary:
            raise CorpusError(
                f"the corpus's sorted paragraph ids differ from the {len(self.ids)} "
                f"ids stored in {self.path.with_name(IDS_FILE)}")
        return self.matrix[[self._row_of(pid) for pid in ids]]

    def _row_of(self, pid: str) -> int:
        try:
            return self._row[pid]
        except KeyError:
            raise CorpusError(
                f"no precomputed embedding for paragraph id '{pid}'"
            ) from None

    def embed_paragraph(self, paragraph: "Paragraph", text: str) -> np.ndarray:
        return self.matrix[self._row_of(paragraph.id)]

    def embed_text(self, text: str) -> np.ndarray:
        return self.fallback.embed_text(text)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return self.fallback.embed_texts(texts)


# what write_embeddings_file writes beside the line-delimited file
MATRIX_FILE = "matrix.npy"
IDS_FILE = "ids.json"


def write_embeddings_file(path: str | Path, index: "CorpusIndex") -> None:
    """Write an index's embeddings as line-delimited JSON, in its ascending-id
    order, and beside ``path`` its matrix as ``MATRIX_FILE`` and its ids as
    a JSON list in ``IDS_FILE``.

    Each line is ``{"id": ..., "values": [...]}`` with every value spelled
    by ``repr``, as ``json.dumps`` spells a float.  An index holds only finite
    values, so no line spells ``NaN`` or ``Infinity``.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for pid, row in zip(index.ids, index.matrix):
            values = ", ".join(map(repr, row.tolist()))
            handle.write('{"id": ' + json.dumps(pid) + ', "values": [' + values + "]}\n")
    np.save(path.with_name(MATRIX_FILE), index.matrix, allow_pickle=False)
    path.with_name(IDS_FILE).write_text(json.dumps(list(index.ids)), encoding="utf-8")
