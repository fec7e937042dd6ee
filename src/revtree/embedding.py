"""Embedding providers.

Every provider embeds one text with :meth:`EmbeddingProvider.embed_text`
and a batch with :meth:`EmbeddingProvider.embed_texts`, which returns one
row per text in a ``(m, dim)`` float64 array; a custom provider implements
the first, and the second too if it batches.  The index build embeds the
paragraphs through ``embed_texts`` alone, in ascending-id order, and the
re-ranking of fusion evidence embeds in batches too; a batch's rows equal
the texts' single embeddings bit for bit.  Three interchangeable
implementations back the corpus index and query embedding:

* :class:`HashedEmbedder` -- fully offline and deterministic; every token maps
  to a seeded pseudo-random direction and a text embeds to the count-weighted
  sum over its token multiset.  Its only contract is determinism and a fixed
  dimension, not semantic quality.  Each direction is drawn once into one
  token table; a text gathers its tokens' rows and adds them in text order,
  so its vector has the bits of adding one token vector at a time.  Every
  token of a batch is looked up once, and the batch's new tokens are
  seeded together in one vectorized pass, which gives each direction the
  bits of its own ``default_rng`` draw.  A sum
  can also be continued from a stored vector over more text
  (:meth:`HashedEmbedder.continue_folds`), which fusion's re-ranking does
  from the rows of an index the embedder built.
* :class:`RemoteEmbedder` -- thin client for an HTTPS embedding endpoint,
  configured through environment variables; a batch is posted in chunks.
* :class:`PrecomputedEmbeddings` -- serves the stored paragraph vectors an
  ingest writes as a binary matrix, mapped read-only, and its ids,
  delegating free-text (query) embedding to a fallback provider.  Only
  :func:`write_index` and :func:`open_index` know the stored index's files.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import os
import shutil
import signal
import tempfile
import threading
from collections import deque
from functools import partial
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import CorpusError, ProviderConfigError
from .jsonl import field, read_json, write_json
from .llm import new_session, post_json, read_env, with_retries

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Paragraph

EMBED_BASE_URL_VAR = "REVTREE_EMBED_BASE_URL"
EMBED_API_KEY_VAR = "REVTREE_EMBED_API_KEY"
EMBED_MODEL_VAR = "REVTREE_EMBED_MODEL"


class EmbeddingProvider:
    """Base contract: deterministic text -> 1-D float vector of fixed dim.

    Implement :meth:`embed_text`, and :meth:`embed_texts` to batch; an
    index embeds in ascending-id order through :meth:`embed_texts` alone."""

    provider_id: str = "abstract"
    dim: Optional[int] = None

    def embed_text(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Row ``i`` is the embedding of ``texts[i]``.  The default embeds
        each text with :meth:`embed_text`, in order, and refuses vectors of
        unequal shape."""
        vectors = [np.asarray(self.embed_text(text), dtype=np.float64) for text in texts]
        shapes = sorted({vector.shape for vector in vectors})
        if len(shapes) > 1:
            raise CorpusError(f"embeddings of unequal shapes {shapes} in one batch")
        return np.array(vectors) if vectors else np.empty((0, self.dim or 0))

    def embed_paragraph(self, paragraph: "Paragraph", text: str) -> np.ndarray:
        # no program path calls this: benchmark/tracer.py patches it until
        # the benchmark times revtree run's own stages (ROADMAP)
        return self.embed_text(text)


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
    the sum's rounding is that of adding one token at a time.  One routine
    (:meth:`_row_ids`) looks up the tokens of :meth:`embed_text`,
    :meth:`embed_texts` and :meth:`continue_folds`: a batch's tokens are
    split once and each is looked up once; the batch's distinct new tokens
    are added in one step, and only the positions that missed are looked up
    again.  Each text of a batch then sums its rows straight into its output
    row.  From ``_SEED_BATCH`` new tokens on, their generator states are
    computed in one vectorized pass (:func:`_pcg64_states`) and each
    direction is drawn from one ``PCG64`` set to its state, with the bits of
    its own ``default_rng`` draw.  Fewer new tokens are drawn one
    ``default_rng`` at a time.  One embedder may be shared by threads: new
    tokens are added under a lock, a token's row id is published only once
    its row is in ``self._table``, and a reader takes its ids before the
    table.
    """

    # The first table is larger than 32 MiB, glibc's cap on its mmap
    # threshold.  Freeing a smaller mapped table raises that threshold, and
    # later arrays then come from a heap that keeps what is freed: repeated
    # index builds peaked ~15% higher in RSS.  Rows not yet written are pages
    # never touched, which cost no memory.
    _INITIAL_BYTES = 2 ** 25 + 1
    # Over one default_rng a token, the vectorized seeding took x1.07-1.08
    # for 20 new tokens, x1.03 for 22, x0.95-0.97 for 24 and x0.55 for 100
    # (2-vCPU host, numpy 2.4): they break even at ~23
    _SEED_BATCH = 23

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
                # one mapping, its inner state set in place for each token
                pcg = {"state": 0, "inc": 0}
                state = {"bit_generator": "PCG64", "state": pcg,
                         "has_uint32": 0, "uinteger": 0}
                for row, (pcg["state"], pcg["inc"]) in zip(block, _pcg64_states(seeds)):
                    bit_generator.state = state
                    generator.standard_normal(out=row)
            rows.update(zip(new, range(first, first + len(new))))

    def _row_ids(self, tokens: list[str]) -> list[int] | np.ndarray:
        """The row ids of ``tokens``, in order.  Each token is looked up
        once; the distinct tokens that miss a row are added in one
        :meth:`_add_tokens` call, in first-seen order, and only their
        positions are looked up again.

        The ids stay a list when every token has a row: a query's gather
        takes a list faster than it converts one and takes the array."""
        rows = self._rows
        ids = list(map(rows.get, tokens, repeat(-1)))
        if -1 in ids:
            ids = np.array(ids, np.intp)
            missed = np.flatnonzero(ids < 0).tolist()
            new = [tokens[i] for i in missed]
            self._add_tokens(dict.fromkeys(new))
            ids[missed] = list(map(rows.__getitem__, new))
        return ids

    def _batch_ids(self, texts: Sequence[str],
                   empty_ok: bool = False) -> tuple[np.ndarray, list[int]]:
        """The row ids of all of the texts' tokens in text order, and the
        offsets where each text's ids begin and, last, where they end.  A
        text without tokens is refused unless ``empty_ok``."""
        tokens = [text.lower().split() for text in texts]
        if not empty_ok and not all(tokens):
            raise ValueError("cannot embed empty or whitespace-only text")
        return (np.asarray(self._row_ids(list(chain.from_iterable(tokens))), np.intp),
                [0, *accumulate(map(len, tokens))])

    def embed_text(self, text: str) -> np.ndarray:
        tokens = text.lower().split()
        if not tokens:
            raise ValueError("cannot embed empty or whitespace-only text")
        ids = self._row_ids(tokens)
        # the ids are read before the table, so the table holds their rows
        acc = np.add.reduce(self._table.take(ids, axis=0), axis=0, initial=0.0)
        return acc[:self.dim]

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        ids, bounds = self._batch_ids(texts)
        table = self._table   # read after the ids, so it holds their rows
        out = np.empty((len(texts), table.shape[1]))
        for row, start, end in zip(out, bounds, bounds[1:]):
            np.add.reduce(table.take(ids[start:end], axis=0), axis=0, initial=0.0,
                          out=row)
        return np.ascontiguousarray(out[:, :self.dim])

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
        ids, bounds = self._batch_ids(texts, empty_ok=True)
        table = self._table   # read after the ids, so it holds their rows
        out = np.empty((len(texts), self.dim))
        for row, begin, end, start in zip(out, bounds, bounds[1:], starts):
            # the start row, padded as the table is, then the token rows
            rows = np.empty((end - begin + 1, table.shape[1]))
            rows[0, :self.dim] = start
            rows[0, self.dim:] = 0.0
            table.take(ids[begin:end], axis=0, out=rows[1:])
            row[:] = np.add.reduce(rows, axis=0, initial=0.0)[:self.dim]
        return out


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
    # a provider_id starting so names a remote embedder's model
    ID_PREFIX = "remote:"

    def __init__(self, session=None, backoff_s: float = 0.5):
        base_url, self._api_key, self.model = read_env(
            (EMBED_BASE_URL_VAR, EMBED_API_KEY_VAR, EMBED_MODEL_VAR),
            "remote embedder")
        self.base_url = base_url.rstrip("/")
        self.provider_id = f"{self.ID_PREFIX}{self.model}"
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
    """Serves the stored paragraph vectors an ingest wrote: the ``(n, dim)``
    float64 matrix in ``MATRIX_FILE`` and its ids in ``IDS_FILE``, both
    beside the line-delimited file ``path`` (:func:`write_embeddings_file`).

    :func:`open_index` checks the checksums of what this loads.  The matrix
    is mapped read-only, not copied onto the heap; it must be float64 with
    one row per stored id, and the stored ids must be exactly the ids an
    index asks for (:meth:`matrix_for`).  Free-text embedding
    (needed at query time) is delegated to ``fallback``, which must embed to
    the stored dim.  ``document_provider_id`` is the id of the provider whose
    ``embed_text(format_documents([p]))`` is the stored vector of each
    paragraph ``p``, when the caller knows it; an index built from these
    vectors records it (:class:`~revtree.corpus.CorpusIndex`).
    """

    def __init__(self, path: str | Path, fallback: EmbeddingProvider,
                 document_provider_id: Optional[str] = None):
        self.path = Path(path)
        self.fallback = fallback
        self.document_provider_id = document_provider_id
        ids_path = self.path.with_name(IDS_FILE)
        matrix_path = self.path.with_name(MATRIX_FILE)
        self.ids = read_json(ids_path, CorpusError, list[str])
        # mapped read-only, not read: its pages are the file's, and a file
        # renamed over it by a later ingest leaves them as they were.
        # numpy 1.24 may refuse to map an array without rows
        self.matrix = np.load(matrix_path, mmap_mode="r" if self.ids else None,
                              allow_pickle=False)
        if self.matrix.dtype != np.float64 or self.matrix.ndim != 2 or \
                self.matrix.shape[0] != len(self.ids):
            raise CorpusError(
                f"{matrix_path} holds a {self.matrix.dtype} array of shape "
                f"{self.matrix.shape}, not a float64 matrix with one row for each "
                f"of the {len(self.ids)} ids in {ids_path}")
        self.dim = self.matrix.shape[1] if self.ids else None
        if None not in (fallback.dim, self.dim) and fallback.dim != self.dim:
            raise CorpusError(
                f"{self.path}: query embedder dim {fallback.dim} does not match "
                f"the file's embedding dim {self.dim}"
            )
        self.provider_id = f"precomputed:{self.path.name}"

    def matrix_for(self, ids: Sequence[str]) -> np.ndarray:
        """The stored matrix itself, not a copy, whose row ``i`` is the
        vector of ``ids[i]``; ``ids`` must be the stored ids in order."""
        if list(ids) != self.ids:
            raise CorpusError(
                f"the corpus's sorted paragraph ids differ from the {len(self.ids)} "
                f"ids stored in {self.path.with_name(IDS_FILE)}")
        return self.matrix

    def embed_text(self, text: str) -> np.ndarray:
        return self.fallback.embed_text(text)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return self.fallback.embed_texts(texts)


# the files of a stored index
EMBEDDINGS_FILE = "embeddings.jsonl"
MATRIX_FILE = "matrix.npy"
IDS_FILE = "ids.json"
MANIFEST_FILE = "manifest.json"


def _npy_header(shape: tuple[int, int]) -> bytes:
    """The ``np.lib.format`` header ``np.save`` writes for a C-ordered
    float64 array of ``shape``."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False, "shape": shape})
    return buffer.getvalue()


# batches handed to the helper process and not yet written: enough that
# the helper need not wait on the parent, few enough that memory stays flat
_PENDING = 4


def _format_lines(ids: Sequence[str], rows: np.ndarray) -> bytes:
    """The ``embeddings.jsonl`` lines of ``rows``, one per id, in UTF-8."""
    return "".join(
        '{"id": ' + json.dumps(pid) + ', "values": ['
        + ", ".join(map(repr, row)) + "]}\n"
        for pid, row in zip(ids, rows.tolist())
    ).encode("utf-8")


def write_embeddings_file(path: str | Path, ids: Sequence[str],
                          batches: Iterable[np.ndarray]) -> dict:
    """Write the embeddings of ``ids``, given as consecutive ``(m, dim)``
    batches of rows in that order, as line-delimited JSON at ``path`` and,
    beside it, as one float64 matrix in ``MATRIX_FILE`` with the ids as a
    JSON list in ``IDS_FILE``.  :class:`PrecomputedEmbeddings` reads only the
    last two.

    Each batch is written as it comes, so no ``(len(ids), dim)`` array is
    made: the matrix's header, that of ``np.save`` for ``(len(ids), dim)``
    with the first batch's dim, goes first, and without rows the matrix is
    ``(0, 0)``.  Each line is ``{"id": ..., "values": [...]}`` with every
    value spelled by ``repr``, as ``json.dumps`` spells a float; the caller
    passes only finite rows, so no line spells ``NaN`` or ``Infinity``.

    The lines are spelled by one helper process (:func:`_format_lines`)
    while the next batches come, at most ``_PENDING`` batches behind, and
    are written here in batch order.  The helper ignores Ctrl-C, which this
    process takes; it is joined, after the batches it was given, before this
    returns or raises.  A helper that dies is a :class:`CorpusError`.

    Return the files' manifest fields, their sha256 taken from the bytes as
    they are written: ``count``, ``dim`` (``None`` without rows),
    ``checksum`` (of ``path``), ``matrix_sha256`` and ``ids_sha256``.  A
    batch that is not ``(m, dim)`` rows of the first batch's dim is refused.
    """
    # imported here, as it loads multiprocessing, which only ingest uses
    from concurrent.futures.process import BrokenProcessPool

    path = Path(path)
    digests = {key: hashlib.sha256() for key in ("checksum", "matrix_sha256", "ids_sha256")}

    def put(handle, key: str, data: bytes) -> None:
        digests[key].update(data)
        handle.write(data)

    dim, done = None, 0
    pending: deque[concurrent.futures.Future] = deque()
    try:
        with open(path, "wb") as lines, \
                open(path.with_name(MATRIX_FILE), "wb") as matrix, \
                concurrent.futures.ProcessPoolExecutor(
                    1, initializer=signal.signal,
                    initargs=(signal.SIGINT, signal.SIG_IGN)) as helper:
            for batch in batches:
                batch = np.ascontiguousarray(batch, dtype=np.float64)
                if dim is None and batch.ndim == 2:
                    dim = batch.shape[1]
                    put(matrix, "matrix_sha256", _npy_header((len(ids), dim)))
                if batch.shape[1:] != (dim,):
                    raise CorpusError(f"an embedding batch of shape {batch.shape}, not "
                                      f"(m, dim) with the first batch's dim {dim}")
                if len(pending) == _PENDING:
                    put(lines, "checksum", pending.popleft().result())
                pending.append(helper.submit(
                    _format_lines, ids[done:done + len(batch)], batch))
                put(matrix, "matrix_sha256", batch.tobytes())
                done += len(batch)
            while pending:
                put(lines, "checksum", pending.popleft().result())
            if done != len(ids):
                raise CorpusError(f"{done} embedding rows for {len(ids)} ids")
            if dim is None:
                put(matrix, "matrix_sha256", _npy_header((0, 0)))
    except BrokenProcessPool as exc:
        raise CorpusError(f"the helper process writing {path.name} died: {exc}") from None
    with open(path.with_name(IDS_FILE), "wb") as handle:
        put(handle, "ids_sha256", json.dumps(list(ids)).encode("utf-8"))
    return {"count": len(ids), "dim": dim,
            **{key: digest.hexdigest() for key, digest in digests.items()}}


def write_index(out_dir: str | Path, corpus_path: str | Path, corpus_sha256: str,
                ids: Sequence[str], batches: Iterable[np.ndarray], provider_id: str,
                embed_title: bool) -> None:
    """Write :func:`write_embeddings_file`'s files and a manifest of their
    sha256, ``corpus_path`` with the sha256 of the bytes its paragraphs were
    read from, ``provider_id`` and ``embed_title`` into a new directory in
    ``out_dir``, then rename them into ``out_dir``, the manifest last; if
    writing raises, delete every directory made for them."""
    out_dir = Path(out_dir)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".ingest-", dir=out_dir))
    try:
        write_json(stage / MANIFEST_FILE, {
            **write_embeddings_file(stage / EMBEDDINGS_FILE, ids, batches),
            "corpus": str(corpus_path),
            "corpus_sha256": corpus_sha256,
            "provider_id": provider_id,
            "embed_title": embed_title,
        })
    except BaseException:
        shutil.rmtree(made[-1] if made else stage, ignore_errors=True)
        raise
    for name in (EMBEDDINGS_FILE, MATRIX_FILE, IDS_FILE, MANIFEST_FILE):
        os.replace(stage / name, out_dir / name)
    stage.rmdir()


def _saved_sha256(path: Path, matrix: np.ndarray) -> Optional[str]:
    """The sha256 of ``np.save``'s bytes of ``matrix`` if ``path`` is their size
    and starts with their header, else ``None``."""
    header = _npy_header(matrix.shape)
    with open(path, "rb") as handle:
        if handle.read(len(header)) != header or \
                os.fstat(handle.fileno()).st_size != len(header) + matrix.nbytes:
            return None
    digest = hashlib.sha256(header)
    digest.update(matrix)
    return digest.hexdigest()


def open_index(embeddings_path: str | Path, corpus_path: str | Path, corpus_sha256: str,
               dim: int, seed: int, embed_title: bool) -> PrecomputedEmbeddings:
    """The index :func:`write_index` wrote beside ``embeddings_path``; a
    :class:`RemoteEmbedder` embeds its queries if it embedded its rows, else
    the :class:`HashedEmbedder` of ``dim`` and ``seed``.  Refused unless the
    manifest names that embedder and ``embed_title`` and holds
    ``corpus_sha256``, that of the bytes the run's paragraphs were read from
    ``corpus_path``, and the sha256 of the matrix and ids as they were
    loaded."""
    manifest_path = Path(embeddings_path).with_name(MANIFEST_FILE)
    if not manifest_path.exists():
        raise CorpusError(f"{manifest_path} is missing: stored vectors are read "
                          "only from the output of revtree ingest")
    manifest = read_json(manifest_path, CorpusError)
    read = partial(field, manifest, where=str(manifest_path), error_cls=CorpusError)
    stored_by = read("provider_id", str)
    queries = (RemoteEmbedder() if stored_by.startswith(RemoteEmbedder.ID_PREFIX)
               else HashedEmbedder(dim=dim, seed=seed))
    if stored_by != queries.provider_id:
        raise CorpusError(
            f"{embeddings_path} was embedded by {stored_by!r} (per {manifest_path}), "
            f"but queries are embedded by {queries.provider_id!r}")
    if read("embed_title", bool) != embed_title:
        raise CorpusError(
            f"{embeddings_path} was embedded with embed_title "
            f"{manifest['embed_title']} (per {manifest_path}), but the run has "
            f"embed_title {embed_title}: pass --no-embed-title to run exactly "
            "when it was passed to ingest")
    if read("corpus_sha256", str) != corpus_sha256:
        raise CorpusError(
            f"{corpus_path} is not the corpus {embeddings_path} was embedded "
            f"from: its sha256 differs from the one in {manifest_path}")
    stored = PrecomputedEmbeddings(embeddings_path, queries,
                                   queries.provider_id if embed_title else None)
    matrix_path = manifest_path.with_name(MATRIX_FILE)
    for key, path, digest in (
            ("matrix_sha256", matrix_path, _saved_sha256(matrix_path, stored.matrix)),
            ("ids_sha256", manifest_path.with_name(IDS_FILE),
             hashlib.sha256(json.dumps(stored.ids).encode("utf-8")).hexdigest())):
        if read(key, str) != digest:
            raise CorpusError(f"{path} does not match the checksum in {manifest_path}")
    return stored
