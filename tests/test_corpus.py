"""Corpus ingestion, cosine similarity, and top-k retrieval."""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtree import (
    HashedEmbedder,
    Paragraph,
    PrecomputedEmbeddings,
    RemoteEmbedder,
    build_index,
    cosine_similarity,
    retrieve,
)
from revtree.corpus import CorpusIndex, _approx_error, cosine_similarities, \
    format_documents, load_paragraphs
from revtree import corpus, embedding
from revtree.embedding import EmbeddingProvider, write_embeddings_file
from revtree.errors import CorpusError, ProviderConfigError, ProviderError


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestIngest:
    def test_empty_file_gives_empty_index(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        src.write_text("")
        index = build_index(load_paragraphs(src), embedder)
        assert len(index) == 0

    def test_three_records(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        write_corpus(src, [
            {"id": "a", "title": "A", "text": "alpha text"},
            {"id": "b", "title": "B", "text": "beta text"},
            {"id": "c", "title": "C", "text": "gamma text"},
        ])
        index = build_index(load_paragraphs(src), embedder)
        assert len(index) == 3
        assert all(index.embedding(pid).shape == (64,) for pid in index.ids)

    def test_duplicate_id_names_the_id(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        write_corpus(src, [
            {"id": "p1", "title": "", "text": "first"},
            {"id": "p2", "title": "", "text": "second"},
            {"id": "p3", "title": "", "text": "third"},
            {"id": "p1", "title": "", "text": "fourth"},
        ])
        with pytest.raises(CorpusError, match="p1"):
            build_index(load_paragraphs(src), embedder)

    def test_malformed_line_names_line_number(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        src.write_text('{"id": "a", "title": "", "text": "ok"}\n{broken\n')
        with pytest.raises(CorpusError, match="line 2"):
            build_index(load_paragraphs(src), embedder)

    def test_missing_field_is_an_error(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        src.write_text('{"id": "a", "title": "no text field"}\n')
        with pytest.raises(CorpusError, match="line 1"):
            build_index(load_paragraphs(src), embedder)

    def test_empty_text_rejected(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        write_corpus(src, [{"id": "a", "title": "t", "text": "   "}])
        with pytest.raises(CorpusError, match="line 1"):
            build_index(load_paragraphs(src), embedder)

    def test_reingest_is_deterministic(self, tmp_path, embedder):
        src = tmp_path / "corpus.jsonl"
        write_corpus(src, [
            {"id": "a", "title": "A", "text": "alpha beta"},
            {"id": "b", "title": "B", "text": "beta gamma"},
            {"id": "c", "title": "C", "text": "gamma delta"},
        ])
        first = build_index(load_paragraphs(src), embedder)
        second = build_index(load_paragraphs(src), HashedEmbedder(dim=64, seed=7))
        for query in ("alpha", "beta gamma", "delta alpha"):
            r1 = retrieve(first, query, 3, embedder)
            r2 = retrieve(second, query, 3, HashedEmbedder(dim=64, seed=7))
            assert [(p.id, s) for p, s in r1] == [(p.id, s) for p, s in r2]


class TestCosine:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_computed_eight_ninths(self):
        # dot = 2 + 2 + 4 = 8, norms = 3 and 3
        assert cosine_similarity([1, 2, 2], [2, 1, 2]) == pytest.approx(8 / 9, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_not_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            cosine_similarity([[1.0, 2.0]], [1.0, 2.0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarity([0.0, 0.0], [1.0, 2.0])

    def test_tiny_vector_stays_bounded(self):
        # its squared norm is subnormal: unscaled, the cosine read 1.00033
        assert cosine_similarity([6.0362641404948215e-161, 0.0], [1.0, 0.0]) == 1.0

    def test_bit_identical_to_the_unscaled_formula_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            dim = int(rng.integers(1, 400))
            a, b = (rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
                    for _ in range(2))
            unscaled = float(np.dot(a, b) / (float(np.linalg.norm(a))
                                             * float(np.linalg.norm(b))))
            assert cosine_similarity(a, b) == unscaled

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.data(),
    )
    def test_symmetric_and_bounded(self, a, data):
        b = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(a), max_size=len(a)))
        if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
            return
        ab = cosine_similarity(a, b)
        ba = cosine_similarity(b, a)
        assert ab == ba
        assert abs(ab) <= 1 + 1e-9

    @given(st.sampled_from([1, 7, 64, 129]),
           st.lists(st.integers(-1040, 1000), min_size=2, max_size=7),
           st.integers(0, 2**32 - 1))
    def test_batch_bits_equal_per_pair_bits(self, dim, exponents, seed):
        # odd dims start the rows of one matrix at alignments a fresh
        # array does not have
        rng = np.random.default_rng(seed)
        b = np.ldexp(rng.standard_normal(dim), exponents[0])
        rows = np.ldexp(rng.standard_normal((len(exponents) - 1, dim)),
                        np.array(exponents[1:])[:, None])
        if not b.any() or not rows.any(axis=1).all():
            with pytest.raises(ValueError, match="zero"):
                cosine_similarities(rows, b)
            return
        expected = np.array([cosine_similarity(row, b) for row in rows])
        assert (cosine_similarities(rows, b).view(np.uint64)
                == expected.view(np.uint64)).all()

    def test_batch_refuses_zero_vectors_and_mismatched_dims(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarities([[1.0, 2.0], [0.0, 0.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="zero"):
            cosine_similarities([[1.0, 2.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarities([[1.0, 2.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="2-D matrix and a 1-D vector"):
            cosine_similarities([1.0, 2.0], [1.0, 2.0])


def brute_force_topk(index, query, k, provider):
    """Independent oracle: per-pair cosine over the whole corpus, then sort."""
    qvec = provider.embed_text(query)
    scored = [
        (pid, cosine_similarity(index.embedding(pid), qvec)) for pid in index.ids
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [pid for pid, _ in scored[:k]]


class TestRetrieve:
    def test_k_zero(self, small_index, embedder):
        assert retrieve(small_index, "boston", 0, embedder) == []

    def test_negative_k(self, small_index, embedder):
        with pytest.raises(ValueError):
            retrieve(small_index, "boston", -1, embedder)

    def test_empty_query(self, small_index, embedder):
        with pytest.raises(ValueError):
            retrieve(small_index, "   ", 3, embedder)

    def test_k_beyond_corpus_returns_all_sorted(self, small_index, embedder):
        results = retrieve(small_index, "boston population", 50, embedder)
        assert len(results) == 5
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_on_small_corpus(self, small_index, embedder):
        got = [p.id for p, _ in retrieve(small_index, "boston population", 5, embedder)]
        assert got == brute_force_topk(small_index, "boston population", 5, embedder)

    def test_ties_break_by_ascending_id(self, embedder):
        # identical text means identical embeddings and exactly equal scores
        paragraphs = [
            Paragraph("z9", "", "same words"),
            Paragraph("a1", "", "same words"),
            Paragraph("m5", "", "same words"),
        ]
        index = build_index(paragraphs, embedder)
        got = [p.id for p, _ in retrieve(index, "same words", 3, embedder)]
        assert got == ["a1", "m5", "z9"]

    def test_result_length_is_min_of_k_and_size(self, small_index, embedder):
        for k in range(0, 8):
            assert len(retrieve(small_index, "city", k, embedder)) == min(k, 5)

    def test_random_corpora_match_brute_force(self, embedder):
        rng = random.Random(42)
        vocab = [f"w{i}" for i in range(200)]
        for trial in range(10):
            n = rng.randint(1, 60)
            paragraphs = [
                Paragraph(
                    f"d{trial}_{i:03d}", "",
                    " ".join(rng.choices(vocab, k=rng.randint(2, 7))),
                )
                for i in range(n)
            ]
            index = build_index(paragraphs, embedder)
            query = " ".join(rng.choices(vocab, k=3))
            for k in (1, 5, 15):
                got = [p.id for p, _ in retrieve(index, query, k, embedder)]
                assert got == brute_force_topk(index, query, k, embedder)


class FixedQuery(EmbeddingProvider):
    """Embeds every query to one given vector."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)

    def embed_text(self, text):
        return self.vector


def vector_index(vectors: dict) -> CorpusIndex:
    ids = sorted(vectors)
    return CorpusIndex([Paragraph(pid, "", "text") for pid in ids],
                       np.array([vectors[pid] for pid in ids], dtype=np.float64))


class TestScoring:
    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 64, 129, 384])
    def test_scores_equal_the_row_sum_bit_for_bit(self, dim):
        # the ranking contract is stated in terms of this expression; a numpy
        # whose pairwise sum changes order would show up here
        rng = np.random.default_rng(dim)
        matrix = rng.standard_normal((50, dim))
        matrix[:5] = matrix[5]  # exact duplicates must tie exactly
        ids = [f"p{i:02d}" for i in range(50)]
        index = vector_index(dict(zip(ids, matrix)))
        qvec = rng.standard_normal(dim)
        unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        expected = (unit * (qvec / np.linalg.norm(qvec))).sum(axis=1)
        scores = dict((p.id, s) for p, s in
                      retrieve(index, "q", 50, FixedQuery(qvec)))
        assert np.array_equal([scores[pid] for pid in ids], expected)

    def test_tie_straddling_the_kth_score_breaks_by_id(self):
        q = np.array([1.0, 0.0, 0.0])
        tied = ["m3", "c0", "x9", "a5", "k2", "b1", "z0", "e4", "n8", "d7"]
        vectors = {"y1": [1.0, 0.1, 0.0], "f6": [1.0, 0.2, 0.0]}
        vectors.update({pid: [1.0, 1.0, 0.0] for pid in tied})
        vectors.update({"a0": [0.0, 1.0, 0.0], "zz": [-1.0, 0.0, 1.0]})
        index = vector_index(vectors)
        expected = ["y1", "f6"] + sorted(tied) + ["a0", "zz"]
        for k in range(1, 13):
            got = retrieve(index, "q", k, FixedQuery(q))
            assert [p.id for p, _ in got] == expected[:k]
            assert len({s for p, s in got if p.id in tied}) <= 1

    def test_embeddings_come_back_bit_exact(self):
        rng = np.random.default_rng(3)
        vectors = {f"p{i}": rng.standard_normal(16) * 10.0 ** (i - 3)
                   for i in range(8)}
        index = vector_index(vectors)
        for pid, vec in vectors.items():
            assert np.array_equal(index.embedding(pid), vec)
        assert list(index.ids) == sorted(vectors)

    def test_empty_index_retrieves_nothing(self):
        index = vector_index({})
        assert len(index) == 0 and index.ids == ()
        assert retrieve(index, "q", 5, FixedQuery([1.0, 0.0])) == []

    def test_k_beyond_the_index_returns_every_row_ranked(self):
        index = vector_index({"b": [1.0, 0.0], "a": [1.0, 0.0], "c": [0.0, 1.0]})
        got = retrieve(index, "q", 10, FixedQuery([1.0, 0.5]))
        assert [p.id for p, _ in got] == ["a", "b", "c"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_are_named(self, bad):
        vectors = {"a": [1.0, 0.0], "b": [bad, 1.0], "c": [0.0, 1.0],
                   "d": [1.0, bad]}
        with pytest.raises(CorpusError, match=r"non-finite.*\['b', 'd'\]"):
            vector_index(vectors)

    def test_non_finite_query_is_rejected(self):
        index = vector_index({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        with pytest.raises(ValueError, match="non-finite"):
            retrieve(index, "q", 1, FixedQuery([np.nan, 1.0]))

    def test_zero_query_is_rejected(self):
        index = vector_index({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        with pytest.raises(ValueError, match="zero vector"):
            retrieve(index, "q", 1, FixedQuery([0.0, 0.0]))

    def test_nan_from_a_precomputed_file_is_refused(self, tmp_path):
        # a stored matrix can carry one
        path = tmp_path / "embeddings.jsonl"
        np.save(tmp_path / embedding.MATRIX_FILE, np.array([[1.0, np.nan], [0.0, 1.0]]))
        (tmp_path / embedding.IDS_FILE).write_text('["a", "b"]')
        paragraphs = [Paragraph("a", "", "alpha"), Paragraph("b", "", "beta")]
        with pytest.raises(CorpusError, match="'a'"):
            build_index(paragraphs,
                        PrecomputedEmbeddings(path, fallback=HashedEmbedder(dim=2)))

    @pytest.mark.parametrize("row, score, shift", [
        ([1e308, 1e308], 2 ** -0.5, -1024), ([1e-300, 0.0], 1.0, 996)])
    def test_a_row_whose_norm_overflows_or_underflows_is_scaled_not_zeroed(
            self, row, score, shift):
        # 1e308 squared overflows float64 and 1e-300 squared underflows to 0:
        # the row is scaled by its power of two first, as cosine_similarity does
        index = vector_index({"a": row, "b": [0.0, 1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = retrieve(index, "q", 2, FixedQuery([1.0, 0.0]))
        assert [p.id for p, _ in got] == ["a", "b"]
        assert got[0][1] == pytest.approx(score, rel=1e-15)
        assert got[0][1] == pytest.approx(cosine_similarity(row, [1, 0]))
        assert np.array_equal(index.embedding("a"), row)
        assert index._shifts.tolist() == [shift, 0]

    def test_norms_are_taken_in_blocks_with_the_bits_of_one_pass(self):
        rng = np.random.default_rng(12)
        dim = 64
        step = corpus._BLOCK_BYTES // (8 * dim)
        matrix = rng.standard_normal((3 * step + 17, dim))
        matrix[::5] = tiny_vectors(rng, (len(matrix[::5]), dim))
        matrix[1::7] *= 1e150
        index = vector_index(dict(zip((f"p{i:05d}" for i in range(len(matrix))),
                                      matrix)))
        norms = np.linalg.norm(matrix, axis=1)
        assert np.array_equal(index._norms.view(np.uint64), norms.view(np.uint64))
        unit32 = (matrix / norms[:, None]).astype(np.float32)
        assert np.array_equal(index._unit32.view(np.uint32), unit32.view(np.uint32))
        assert index._shifts is None


def row_sum_topk(matrix, qvec, k):
    """The ranking contract itself: every row scored by
    ``(unit * query).sum(axis=1)``, then score descending, row ascending."""
    unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    scores = (unit * (qvec / np.linalg.norm(qvec))).sum(axis=1)
    order = np.lexsort((np.arange(len(matrix)), -scores))[:k]
    return order, scores[order]


def assert_matches_row_sum(matrix, qvec, ks):
    ids = [f"p{i:04d}" for i in range(len(matrix))]
    index = vector_index(dict(zip(ids, matrix)))
    for k in ks:
        got = retrieve(index, "q", k, FixedQuery(qvec))
        order, scores = row_sum_topk(matrix, qvec, k)
        assert [p.id for p, _ in got] == [ids[i] for i in order], k
        assert np.array_equal(np.array([s for _, s in got]).view(np.uint64),
                              scores.view(np.uint64)), k


@st.composite
def adversarial_rows(draw):
    """Rows, a query and the ks to ask for, built to stress the float32
    prefilter: duplicates that tie exactly, differ only in float64 low bits
    or by a few float32 ulps, and components from 1e-30 to 1e3, whose
    products underflow in float32."""
    dim = draw(st.sampled_from([1, 7, 8, 129, 384, 1536]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def spread(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 3, shape)

    matrix = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-30, 3, (n, 1))
    if draw(st.booleans()):
        matrix *= spread((n, dim))
    copies = []
    for _ in range(draw(st.integers(0, 3 * n))):
        row = matrix[rng.integers(n)]
        kind = draw(st.sampled_from(["exact", "power_of_two", "low_bits",
                                     "float32_ulps"]))
        if kind == "power_of_two":  # an exact scale, so the unit row is equal
            row = row * 2.0 ** int(rng.integers(-20, 20))
        elif kind == "low_bits":
            row = row * (1.0 + int(rng.integers(1, 8)) * 2.0 ** -52)
        elif kind == "float32_ulps":  # apart in float32, but barely
            row = row * (1.0 + rng.integers(-4, 5, dim) * 2.0 ** -24)
        copies.append(row)
    matrix = np.vstack([matrix, *copies]) if copies else matrix
    matrix = matrix[rng.permutation(len(matrix))]
    if draw(st.booleans()):
        qvec = matrix[rng.integers(len(matrix))].copy()
    else:
        qvec = spread(dim)
    if not np.linalg.norm(qvec):
        qvec[0] = 1.0
    _, scores = row_sum_topk(matrix, qvec, len(matrix))
    inside_ties = [i + 1 for i in range(len(scores) - 1) if scores[i] == scores[i + 1]]
    ks = {1, len(matrix), len(matrix) + 3}
    if inside_ties:
        ks.add(draw(st.sampled_from(inside_ties)))
    return matrix, qvec, sorted(ks)


def tiny_vectors(rng, shape):
    """Vectors whose unit rows are longer than 1: the squares of their
    components but the first round to zero in the float64 subnormals, so the
    norm comes from the first alone (a unit row ~13 long at dim 384)."""
    vectors = 1.5e-162 * rng.uniform(1.0, 1.04, shape)
    vectors[..., 0] = 1.6e-162
    return vectors


class TestTwoStageTopK:
    @settings(max_examples=300, deadline=None)
    @given(adversarial_rows())
    def test_ids_and_score_bits_equal_the_row_sum(self, case):
        matrix, qvec, ks = case
        assert_matches_row_sum(matrix, qvec, ks)

    def test_zero_scores_match_the_row_sum_bits(self):
        # products that are all -0.0 still sum to +0.0 in the contract
        matrix = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert_matches_row_sum(matrix, np.array([0.0, -1.0]), [1, 2, 3])

    def test_every_row_tied_makes_every_row_a_candidate(self):
        matrix = np.tile([3.0, -1.0, 2.0], (500, 1))
        assert_matches_row_sum(matrix, np.array([1.0, 2.0, -0.5]), [1, 3, 499, 500])

    @pytest.mark.parametrize("dim", [7, 64, 384])
    def test_a_cluster_a_few_float32_ulps_apart(self, dim):
        # float32 orders these rows almost at random, so the candidates must
        # reach well below the k-th approximate score
        rng = np.random.default_rng(dim)
        for _ in range(20):
            base = rng.standard_normal(dim)
            matrix = base * (1.0 + rng.integers(-4, 5, (30, dim)) * 2.0 ** -24)
            for qvec in (base, rng.standard_normal(dim)):
                assert_matches_row_sum(matrix, qvec, [1, 2, 3])

    def test_long_unit_rows_from_tiny_vectors(self):
        rng = np.random.default_rng(8)
        matrix = np.vstack([tiny_vectors(rng, (20, 384)),
                            rng.standard_normal((200, 384))])
        for qvec in [tiny_vectors(rng, 384), *rng.standard_normal((4, 384))]:
            assert_matches_row_sum(matrix, qvec, [1, 5, 30])

    @pytest.mark.parametrize("dim", [1, 7, 8, 64, 129, 384, 1536])
    def test_observed_error_stays_inside_the_derived_bound(self, dim):
        # _approx_error is 4x the derived bound; what is observed must stay
        # inside the derived bound itself, so a bound tightened below what
        # float32 rounding really does fails here
        rng = np.random.default_rng(dim)
        draws = [rng.standard_normal, rng.random,  # one sign: errors add up
                 lambda shape: tiny_vectors(rng, shape)]
        rows = np.vstack([draw((700, dim)) for draw in draws])
        ids = [f"p{i:04d}" for i in range(len(rows))]
        index = vector_index(dict(zip(ids, rows)))
        unit = rows / np.linalg.norm(rows, axis=1)[:, None]
        worst = 0.0  # the largest error as a share of the bound
        for draw in draws:
            for _ in range(10):
                qvec = draw(dim)
                q = qvec / np.linalg.norm(qvec)
                approx = np.einsum("ij,j->i", index._unit32, q.astype(np.float32))
                error = np.abs(approx - (unit * q).sum(axis=1)).max()
                worst = max(worst, error / _approx_error(index, q))
        assert worst <= 1 / 4

    def test_concurrent_retrievals_equal_serial_ones(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((5000, 64))
        matrix[:500] = matrix[500:1000]
        ids = [f"p{i:04d}" for i in range(len(matrix))]
        index = vector_index(dict(zip(ids, matrix)))
        queries = [rng.standard_normal(64) for _ in range(64)]
        queries += [matrix[i] for i in range(0, 800, 25)]

        def ranked(qvec):
            return [(p.id, s) for p, s in retrieve(index, "q", 5, FixedQuery(qvec))]

        serial = [ranked(q) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                barrier = threading.Barrier(8)

                def worker(offset):
                    barrier.wait(timeout=30)
                    return [ranked(queries[(i + offset) % len(queries)])
                            for i in range(len(queries))]

                futures = [pool.submit(worker, offset) for offset in range(8)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for offset, got in enumerate(results):
            assert got == serial[offset:] + serial[:offset]


def loop_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """The hashed embedding added one token at a time, the reference the
    token table must match bit for bit."""
    key = str(seed).encode("utf-8")
    acc = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        acc += np.random.default_rng(int.from_bytes(digest, "big")).standard_normal(dim)
    return acc


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestHashedTable:
    VOCAB = [w for base in ("alpha", "beta", "gamma", "delta", "eps")
             for w in (base, base.upper(), base.title())] + [f"w{i}" for i in range(40)]

    def texts(self, seed):
        # lengths 9 and up are where a pairwise sum departs from the loop
        rng = random.Random(seed)
        lengths = [1, 2, 3, 8, 9, 17, 64, 400] + [rng.randint(1, 400) for _ in range(12)]
        return [" ".join(rng.choices(self.VOCAB, k=n)) for n in lengths]

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 384])
    def test_embed_text_equals_the_token_loop(self, dim):
        warm = HashedEmbedder(dim=dim, seed=3)
        warm.embed_text(" ".join(self.VOCAB))
        for text in self.texts(dim):
            want = loop_embed(text, dim, 3)
            assert_same_bits(HashedEmbedder(dim=dim, seed=3).embed_text(text), want)
            assert_same_bits(warm.embed_text(text), want)

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 384])
    def test_build_index_rows_equal_the_token_loop(self, dim):
        paragraphs = [Paragraph(f"p{i:02d}", "Title" if i % 2 else "", text)
                      for i, text in enumerate(self.texts(100 + dim))][::-1]
        index = build_index(paragraphs, HashedEmbedder(dim=dim, seed=3))
        assert index.ids == tuple(sorted(p.id for p in paragraphs))
        for p in paragraphs:
            assert_same_bits(index.embedding(p.id),
                             loop_embed(format_documents([p]), dim, 3))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 384])
    @pytest.mark.parametrize("new_tokens", [1, HashedEmbedder._SEED_BATCH - 1,
                                            HashedEmbedder._SEED_BATCH,
                                            HashedEmbedder._SEED_BATCH + 1, 300])
    def test_embed_texts_equals_the_token_loop(self, dim, new_tokens, warm, monkeypatch):
        # a batch of exactly new_tokens distinct new tokens, each text
        # repeating some; over a warm table each sits between known tokens,
        # so only the positions in the middle of the texts miss
        rng = random.Random(dim * 1000 + new_tokens)
        vocab = [f"v{i}" for i in range(new_tokens)]
        texts = [" ".join(vocab)] + [" ".join(rng.choices(vocab, k=rng.randint(1, 60)))
                                     for _ in range(12)]
        known = [f"k{i}" for i in range(30)] if warm else []
        if warm:
            texts = [" ".join(f"{rng.choice(known)} {token} {rng.choice(known)}"
                              for token in text.split()) for text in texts]
        single = HashedEmbedder(dim=dim, seed=3)
        singles = [single.embed_text(text) for text in texts]
        batched = HashedEmbedder(dim=dim, seed=3)
        if warm:
            batched.embed_text(" ".join(known))
        passes = []
        states = embedding._pcg64_states
        monkeypatch.setattr(embedding, "_pcg64_states",
                            lambda seeds: passes.append(len(seeds)) or states(seeds))
        rows = batched.embed_texts(texts)
        assert passes == ([new_tokens] if new_tokens >= HashedEmbedder._SEED_BATCH
                          else [])
        assert rows.shape == (len(texts), dim)
        assert len(batched._rows) == len(known) + new_tokens
        for row, text, want in zip(rows, texts, singles):
            assert_same_bits(row, loop_embed(text, dim, 3))
            assert_same_bits(row, want)
            assert_same_bits(batched.embed_text(text), row)
        # a batch over a warm table draws nothing new and keeps its bits
        assert_same_bits(batched.embed_texts(texts[::-1]), rows[::-1])
        assert len(passes) <= 1

    @pytest.mark.parametrize("seeds", [
        [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1],
        [random.Random(8).getrandbits(64) for _ in range(10_000)],
    ], ids=["edges", "random"])
    def test_vectorized_states_equal_default_rng(self, seeds):
        want = [tuple(np.random.default_rng(seed).bit_generator.state["state"].values())
                for seed in seeds]
        assert embedding._pcg64_states(seeds) == want

    def test_vectorized_states_of_real_tokens_draw_their_rows(self):
        tokens = [f"tok{i}" for i in range(2000)] + ["\u00e9t\u00e9", "x" * 300]
        want = np.array([loop_embed(token, 16, 9) for token in tokens])
        embedder = HashedEmbedder(dim=16, seed=9)
        assert_same_bits(embedder.embed_texts(tokens), want)

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim must be positive, got 0"):
            HashedEmbedder(dim=0)

    def test_a_blank_text_in_a_batch_is_refused_before_any_draw(self):
        embedder = HashedEmbedder(dim=8, seed=1)
        for texts in (["alpha beta", "", "gamma"], ["alpha", " \t\n"]):
            with pytest.raises(ValueError, match="empty or whitespace-only"):
                embedder.embed_texts(texts)
        assert not embedder._rows
        assert embedder.embed_texts([]).shape == (0, 8)

    def test_one_batch_grows_the_table_more_than_once(self, monkeypatch):
        monkeypatch.setattr(HashedEmbedder, "_INITIAL_BYTES", 8 * 16 * 10)
        embedder = HashedEmbedder(dim=16, seed=2)
        initial_rows = embedder._table.shape[0]
        texts = [f"a{i} b{i} c{i}" for i in range(50)]
        rows = embedder.embed_texts(texts)
        assert embedder._table.shape[0] == 16 * initial_rows
        for row, text in zip(rows, texts):
            assert_same_bits(row, loop_embed(text, 16, 2))

    def test_threads_adding_batches_equal_a_serial_run(self, monkeypatch):
        # overlapping windows over one stream of new tokens: the threads race
        # to add and read the same rows, and each batch adds dozens of tokens
        texts = [" ".join(f"t{i - d}" for d in range(1 + i % 3) if i >= d)
                 for i in range(3000)]
        batches = [[texts[start:start + 40] for start in range(j * 10, 3000, 40)]
                   for j in range(4)]
        serial = HashedEmbedder(dim=16, seed=2)
        want = [[[serial.embed_text(text) for text in batch] for batch in worker]
                for worker in batches]
        # a small first table, so that one batch grows it more than once
        monkeypatch.setattr(HashedEmbedder, "_INITIAL_BYTES", 8 * 16 * 10)
        shared = HashedEmbedder(dim=16, seed=2)
        initial_rows = shared._table.shape[0]
        barrier = threading.Barrier(4)

        def worker(j):
            barrier.wait(timeout=30)
            # a fold continued from zero rows has the bits of one from +0.0
            if j % 2:
                return [shared.continue_folds(np.zeros((len(batch), 16)), batch)
                        for batch in batches[j]]
            return [shared.embed_texts(batch) for batch in batches[j]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert shared._table.shape[0] > 64 * initial_rows
        for got_worker, want_worker in zip(got, want):
            for rows, want_rows in zip(got_worker, want_worker):
                assert_same_bits(rows, np.array(want_rows))

    def test_threads_adding_tokens_equal_a_serial_run(self, monkeypatch):
        # the threads walk one stream of new tokens in step, each skipping a
        # quarter of it, so they race to add and read the same rows
        texts = [[" ".join(f"t{i - d}" for d in range(1 + i % 3) if i >= d)
                  for i in range(3000) if i % 4 != j] for j in range(4)]
        serial = HashedEmbedder(dim=16, seed=2)
        want = [[serial.embed_text(text) for text in batch] for batch in texts]
        # a small first table, so that it grows many times under the threads
        monkeypatch.setattr(HashedEmbedder, "_INITIAL_BYTES", 8 * 16 * 100)
        shared = HashedEmbedder(dim=16, seed=2)
        initial_rows = shared._table.shape[0]
        barrier = threading.Barrier(4)

        def worker(batch):
            barrier.wait(timeout=30)
            return [shared.embed_text(text) for text in batch]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(worker, texts, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert shared._table.shape[0] > 2 * initial_rows
        for got_batch, want_batch in zip(got, want):
            for vec, ref in zip(got_batch, want_batch):
                assert_same_bits(vec, ref)


class ShapedEmbedder(EmbeddingProvider):
    """Embeds every text to ones of ``dim``, and the text of paragraph
    ``bad`` (``text <bad>``) to ones of ``shape``; a batch goes through the
    base ``embed_texts``."""

    provider_id = "shaped"

    def __init__(self, dim, bad, shape):
        self.dim, self.bad, self.shape = dim, bad, shape

    def embed_text(self, text):
        return np.ones(self.shape if text == f"text {self.bad}" else self.dim)


class TestIndexConstruction:
    PARAGRAPHS = [Paragraph(pid, "", f"text {pid}") for pid in ("c", "a", "b")]

    def test_get_returns_the_paragraph_of_an_id_and_refuses_others(self, embedder):
        index = build_index(self.PARAGRAPHS, embedder)
        assert [index.get(pid) for pid in "abc"] == sorted(self.PARAGRAPHS,
                                                            key=lambda p: p.id)
        with pytest.raises(KeyError):
            index.get("d")

    def test_duplicate_paragraph_id(self, embedder):
        paragraphs = self.PARAGRAPHS + [Paragraph("a", "", "again")]
        with pytest.raises(CorpusError, match="duplicate paragraph id 'a'"):
            build_index(paragraphs, embedder)

    @pytest.mark.parametrize("bad", ["a", "b", "c"])
    @pytest.mark.parametrize("shape", [1, 5, (1, 4), (4, 1), 0, ()])
    def test_wrong_shaped_vector(self, bad, shape):
        with pytest.raises(CorpusError, match="shape"):
            build_index(self.PARAGRAPHS, ShapedEmbedder(4, bad, shape))

    def test_a_batch_of_another_length_is_refused(self):
        class DropsOne(ShapedEmbedder):
            def embed_texts(self, texts):
                return super().embed_texts(texts)[1:]

        with pytest.raises(CorpusError, match="2 embeddings for 3 paragraphs"):
            build_index(self.PARAGRAPHS, DropsOne(4, None, 4))

    def test_paragraphs_are_embedded_through_embed_texts_in_id_order(self, monkeypatch):
        class BatchesOnly(EmbeddingProvider):
            provider_id = "batches"

            def __init__(self):
                self.batches = []

            def embed_text(self, text):
                raise AssertionError("the index embeds through embed_texts alone")

            def embed_texts(self, texts):
                self.batches.append(list(texts))
                return np.array([[1.0, float(text[-1] == "e")] for text in texts])

        monkeypatch.setattr(corpus, "_EMBED_CHUNK", 2)
        provider = BatchesOnly()
        index = build_index([Paragraph(pid, "", f"text {pid}") for pid in "dbeac"],
                            provider)
        assert provider.batches == [["text a", "text b"], ["text c", "text d"],
                                    ["text e"]]
        assert index.ids == tuple("abcde")
        assert index.matrix.tolist() == [[1.0, 0.0]] * 4 + [[1.0, 1.0]]

    @pytest.mark.parametrize("shapes", [[(2,)], [(2, 0)], [(2, 4, 1)], [(2, 4), (1, 3)]])
    def test_a_batch_that_is_not_one_vector_per_paragraph_is_refused(
            self, monkeypatch, shapes):
        class BatchShapes(EmbeddingProvider):
            provider_id = "batch-shapes"

            def embed_texts(self, texts):
                return np.ones(shapes.pop(0))

        monkeypatch.setattr(corpus, "_EMBED_CHUNK", 2)
        with pytest.raises(CorpusError, match="shape"):
            build_index(self.PARAGRAPHS, BatchShapes())

    def test_precomputed_file_without_a_paragraph(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        index = vector_index({"a": np.ones(4), "c": np.ones(4)})
        write_embeddings_file(path, index.ids, [index.matrix])
        with pytest.raises(CorpusError, match="ids differ"):
            build_index(self.PARAGRAPHS,
                        PrecomputedEmbeddings(path, fallback=HashedEmbedder(dim=4)))

    def test_all_zero_rows_are_named(self):
        with pytest.raises(CorpusError, match=r"all-zero.*\['b'\]"):
            vector_index({"a": [1.0, 0.0], "b": [0.0, 0.0]})

    def test_index_refuses_unsorted_or_repeated_ids(self):
        a, b = Paragraph("a", "", "x"), Paragraph("b", "", "y")
        with pytest.raises(CorpusError, match="out of order"):
            CorpusIndex([b, a], np.eye(2))
        with pytest.raises(CorpusError, match="duplicate paragraph id 'a'"):
            CorpusIndex([a, a], np.eye(2))

    @pytest.mark.parametrize("matrix", [np.ones(2), np.ones((3, 2)), np.ones((1, 2))])
    def test_index_refuses_a_matrix_of_another_row_count(self, matrix):
        with pytest.raises(CorpusError, match="one row for each of 2"):
            CorpusIndex([Paragraph("a", "", "x"), Paragraph("b", "", "y")], matrix)

    def test_built_matrix_is_adopted_read_only(self, embedder):
        index = build_index(self.PARAGRAPHS, embedder)
        assert not index._matrix.flags.writeable
        with pytest.raises(ValueError):
            index.embedding("a")[0] = 1.0


class TestEmbeddingsFile:
    def test_lines_equal_json_dumps(self, tmp_path):
        rng = np.random.default_rng(6)
        vectors = {"b": rng.standard_normal(7) * 1e3,
                   "a\u00e9\"q": np.array([-0.0, 0.0, 5e-324, 1e308, 1 / 3, 2.0, -7.5]),
                   "c": rng.standard_normal(7).astype(np.float32),
                   "d": [0.1, 1, 2.5, 3, -4, 1e-300, 7],
                   **{f"\u65e5\"{i}\\": rng.standard_normal(7) * 10.0 ** (i - 4)
                      for i in range(9)}}
        path = tmp_path / "embeddings.jsonl"
        index = vector_index(vectors)
        # more batches than embedding._PENDING, of uneven sizes, so that the
        # lines come back from several helper tasks
        bounds = np.cumsum([0, 1, 4, 2, 3, 1, 2])
        written = write_embeddings_file(path, index.ids, [
            index.matrix[start:end] for start, end in zip(bounds, bounds[1:])])
        want = "".join(
            json.dumps({"id": pid, "values": [float(x) for x in vectors[pid]]},
                       sort_keys=True) + "\n" for pid in sorted(vectors)).encode("utf-8")
        assert path.read_bytes() == want
        assert written["checksum"] == hashlib.sha256(want).hexdigest()

    @pytest.mark.parametrize("dim", [1, 64])
    @pytest.mark.parametrize("rows", [0, 1, 128, 129])
    def test_streamed_files_equal_those_of_the_whole_index(self, tmp_path, dim, rows):
        # 128 rows are one batch of corpus._EMBED_CHUNK, 129 are two
        paragraphs = [Paragraph(f"p{i:03d}", "T", f"word{i} shared") for i in range(rows)]
        provider = HashedEmbedder(dim=dim, seed=3)
        path = tmp_path / "embeddings.jsonl"
        written = write_embeddings_file(path, [p.id for p in paragraphs],
                                        corpus.embed_batches(paragraphs, provider))
        index = build_index(paragraphs, HashedEmbedder(dim=dim, seed=3))
        saved = tmp_path / "saved.npy"
        np.save(saved, index.matrix, allow_pickle=False)
        assert (tmp_path / "matrix.npy").read_bytes() == saved.read_bytes()
        assert json.loads((tmp_path / "ids.json").read_text()) == list(index.ids)
        assert len(path.read_text().splitlines()) == rows
        assert (written["count"], written["dim"]) == (rows, index.dim)
        for key, name in (("checksum", "embeddings.jsonl"),
                          ("matrix_sha256", "matrix.npy"), ("ids_sha256", "ids.json")):
            assert written[key] == hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest()

    def test_a_row_count_other_than_the_ids_is_refused(self, tmp_path):
        with pytest.raises(CorpusError, match="2 embedding rows for 3 ids"):
            write_embeddings_file(tmp_path / "e.jsonl", ["a", "b", "c"], [np.ones((2, 4))])

    @pytest.mark.parametrize("batches, shape", [
        # the matrix's header would say (4, 3), and rows c and d would load
        # as [2, 2, 2] while their lines held 5 values
        ([np.ones((2, 3)), np.full((2, 5), 2.0)], "(2, 5)"),
        ([np.ones(4)], "(4,)"),
    ])
    def test_a_batch_of_another_width_is_refused(self, tmp_path, batches, shape):
        message = re.escape(f"an embedding batch of shape {shape}")
        with pytest.raises(CorpusError, match=message):
            write_embeddings_file(tmp_path / "e.jsonl", ["a", "b", "c", "d"], batches)


class TestProviders:
    def test_hashed_embedder_deterministic(self):
        a = HashedEmbedder(dim=32, seed=5)
        b = HashedEmbedder(dim=32, seed=5)
        assert np.array_equal(a.embed_text("some words here"),
                              b.embed_text("some words here"))

    def test_hashed_embedder_seed_changes_vectors(self):
        a = HashedEmbedder(dim=32, seed=5)
        b = HashedEmbedder(dim=32, seed=6)
        assert not np.array_equal(a.embed_text("some words"), b.embed_text("some words"))

    def test_hashed_embedder_rejects_empty(self, embedder):
        with pytest.raises(ValueError):
            embedder.embed_text("   ")

    def test_remote_embedder_requires_env(self, monkeypatch):
        for var in ("REVTREE_EMBED_BASE_URL", "REVTREE_EMBED_API_KEY",
                    "REVTREE_EMBED_MODEL"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(ProviderConfigError, match="REVTREE_EMBED"):
            RemoteEmbedder()

    def test_remote_embedder_parses_and_retries(self, monkeypatch):
        monkeypatch.setenv("REVTREE_EMBED_BASE_URL", "https://emb.example/v1")
        monkeypatch.setenv("REVTREE_EMBED_API_KEY", "key")
        monkeypatch.setenv("REVTREE_EMBED_MODEL", "embed-model")

        class FlakySession:
            def __init__(self):
                self.calls = 0

            def post(self, url, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    return type("R", (), {"status_code": 500, "text": "oops"})()
                return type("R", (), {
                    "status_code": 200,
                    "raise_for_status": staticmethod(lambda: None),
                    "json": staticmethod(
                        lambda: {"data": [{"embedding": [1.0, 2.0, 3.0]}]}),
                })()

        session = FlakySession()
        provider = RemoteEmbedder(session=session, backoff_s=0)
        vec = provider.embed_text("hello world")
        assert list(vec) == [1.0, 2.0, 3.0]
        assert provider.dim == 3
        assert session.calls == 2

    def test_remote_ingest_fails_on_a_chunk_that_fails(self, monkeypatch):
        # the fifth post, of texts 256 to 319, is refused: the whole build
        # fails rather than index part of the corpus
        for var in ("REVTREE_EMBED_BASE_URL", "REVTREE_EMBED_API_KEY",
                    "REVTREE_EMBED_MODEL"):
            monkeypatch.setenv(var, "https://emb.example/v1")

        class RefusingSession:
            def __init__(self):
                self.inputs = []

            def post(self, url, json, **kwargs):
                self.inputs.append(json["input"])
                if len(self.inputs) == 5:
                    return type("R", (), {"status_code": 400, "text": "no"})()
                data = [{"index": i, "embedding": [1.0, float(len(text))]}
                        for i, text in enumerate(json["input"])]
                return type("R", (), {"status_code": 200,
                                      "json": staticmethod(lambda: {"data": data})})()

        paragraphs = [Paragraph(f"p{i:04d}", "", f"text {i}") for i in range(600)]
        session = RefusingSession()
        with pytest.raises(ProviderError, match="rejected the request: 400"):
            build_index(paragraphs, RemoteEmbedder(session=session, backoff_s=0))
        assert [len(texts) for texts in session.inputs] == [64] * 5
        assert session.inputs[4][0] == "text 256"
        # a corpus that fits four posts is built, one row per text
        index = build_index(paragraphs[:200],
                            RemoteEmbedder(session=RefusingSession(), backoff_s=0))
        assert index.embedding("p0123").tolist() == [1.0, len("text 123")]

    def test_precomputed_roundtrip(self, tmp_path, embedder):
        paragraphs = [Paragraph("a", "", "alpha"), Paragraph("b", "", "beta")]
        index = build_index(paragraphs, embedder)
        path = tmp_path / "embeddings.jsonl"
        write_embeddings_file(path, index.ids, [index.matrix])

        provider = PrecomputedEmbeddings(path, fallback=embedder)
        rebuilt = build_index(paragraphs, provider)
        assert np.array_equal(rebuilt.embedding("a"), index.embedding("a"))
        # queries go through the fallback
        got = [p.id for p, _ in retrieve(rebuilt, "alpha", 1, provider)]
        assert got == ["a"]

    def test_stored_vectors_in_id_order_are_adopted_not_copied(self, tmp_path, embedder):
        paragraphs = [Paragraph(pid, "", f"text {pid}") for pid in ("c", "a", "b")]
        path = tmp_path / "embeddings.jsonl"
        index = build_index(paragraphs, embedder)
        write_embeddings_file(path, index.ids, [index.matrix])
        provider = PrecomputedEmbeddings(path, fallback=embedder)
        assert np.shares_memory(build_index(paragraphs, provider).matrix,
                                provider.matrix)
        # other ids are refused, not gathered
        with pytest.raises(CorpusError, match="ids differ"):
            build_index(paragraphs[:2], provider)

    def test_precomputed_refuses_a_fallback_of_another_dim(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        index = vector_index({"a": np.ones(4)})
        write_embeddings_file(path, index.ids, [index.matrix])
        with pytest.raises(CorpusError, match="dim 64 does not match"):
            PrecomputedEmbeddings(path, fallback=HashedEmbedder(dim=64))


def test_load_paragraphs_skips_blank_lines(tmp_path):
    src = tmp_path / "corpus.jsonl"
    src.write_text('{"id": "a", "title": "", "text": "one"}\n\n'
                   '{"id": "b", "title": "", "text": "two"}\n')
    assert [p.id for p in load_paragraphs(src)] == ["a", "b"]


def test_load_paragraphs_hashes_the_bytes_it_parses(tmp_path):
    src = tmp_path / "c.jsonl"
    raw = ('{"id": "a", "text": "x"}\r\n\r\n{"id": "b", "text": "y"}\r'
           '{"id": "c", "text": "\u00e9\u65e5"}').encode("utf-8")
    src.write_bytes(raw)
    digest = hashlib.sha256()
    assert [p.id for p in load_paragraphs(src, digest)] == ["a", "b", "c"]
    assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("raw", [
    b'{"id": "a", "text": "x"}\r\n{"id": "b", "text": "y"\r\n',
    b'{"id": "a", "text": "x"}\r{"id": "b",\r"text": "y"}\n',
    b'{"id": "a", "text": "x"}\n\r\n{"id": "b", "text": "y"\r',
])
def test_load_paragraphs_ends_lines_as_universal_newlines_do(tmp_path, raw):
    src = tmp_path / "c.jsonl"
    src.write_bytes(raw)
    # the line and message of the first non-blank line a text-mode read refuses
    with open(src, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            try:
                if line.strip():
                    json.loads(line)
            except json.JSONDecodeError as exc:
                want = f"{src}: line {lineno}: invalid JSON: {exc}"
                break
    with pytest.raises(CorpusError) as refused:
        load_paragraphs(src, hashlib.sha256())
    assert str(refused.value) == want
