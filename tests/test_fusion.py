"""Evidence packing, answer generation, extraction, and scored selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtree import (
    Evidence,
    EvidencePool,
    FusionStrategy,
    HashedEmbedder,
    LlmClient,
    Paragraph,
    RunStats,
    ScriptedOracle,
    cosine_similarity,
    estimate_tokens,
    extract_answer,
    generate_answer,
    make_token_estimator,
    pack_evidence,
    select_scored_paragraphs,
)
from revtree import PrecomputedEmbeddings, build_index
from revtree.corpus import format_documents
from revtree.embedding import write_embeddings_file
from revtree.fusion import _evidence_rest, _evidence_text, _first_document_rows, \
    render_context
from revtree.search import distinct_paragraphs


def make_evidence(index: int, n_paragraphs: int = 1, words_per_text: int = 4,
                  analysis: str = "short analysis") -> Evidence:
    path = tuple(
        Paragraph(
            f"e{index}p{j}", "",
            " ".join(f"w{index}x{j}y{w}" for w in range(words_per_text)),
        )
        for j in range(n_paragraphs)
    )
    return Evidence(path=path, brief_analysis=analysis, accepted_at_call=index + 1)


def make_pool(n: int, **kwargs) -> EvidencePool:
    pool = EvidencePool()
    for i in range(n):
        pool.add(make_evidence(i, **kwargs))
    return pool


def render_prefix(prefix, strategy: FusionStrategy) -> str:
    """The context of an evidence prefix, rendered from scratch."""
    if strategy is FusionStrategy.ANALYSIS:
        return "\n".join(e.brief_analysis for e in prefix)
    if strategy is FusionStrategy.PARAGRAPH:
        first_seen: dict = {}
        for e in prefix:
            for p in e.path:
                first_seen.setdefault(p.id, p)
        return format_documents(first_seen.values())
    return "\n\n".join(f"Assertions:{e.brief_analysis}\n"
                       f"Documents:{format_documents(e.path)}" for e in prefix)


def assert_packs_like_every_prefix(pool: EvidencePool, strategy: FusionStrategy,
                                   estimate) -> None:
    """``pack_evidence`` equals rendering every prefix and stopping at the
    first that overflows, at every limit within one of a prefix's size."""
    evidences = pool.evidences

    def reference(limit):
        included = 0
        while included < len(evidences) and estimate(
                render_prefix(evidences[:included + 1], strategy)) <= limit:
            included += 1
        return render_prefix(evidences[:included], strategy), included

    prefixes = [evidences[:i] for i in range(len(evidences) + 1)]
    assert [render_context(p, strategy) for p in prefixes] == \
        [render_prefix(p, strategy) for p in prefixes]
    sizes = {estimate(render_prefix(p, strategy)) for p in prefixes}
    limits = {size + d for size in sizes for d in (-1, 0, 1) if size + d > 0}
    for limit in sorted(limits):
        context, included = pack_evidence(pool, strategy, limit + 3, estimate,
                                          reserved_tokens=3)
        want_context, want_included = reference(limit)
        assert (context, included) == (want_context, list(range(want_included)))


# words and whitespace of several kinds, Unicode ones among them, so that
# parts have leading and trailing whitespace
_TEXT = st.lists(st.sampled_from(["ab", "c", "dé", " ", "  ", "\n", "\t", "\u00a0",
                                  "\u2028", "\x1c"]), max_size=6).map("".join)


@st.composite
def random_pools(draw) -> EvidencePool:
    """Pools whose paths repeat paragraphs from a small set, with empty or
    blank analyses and titles among them."""
    paragraphs = [
        Paragraph(f"p{i}", draw(_TEXT), draw(_TEXT.filter(str.strip)))
        for i in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    pool = EvidencePool()
    for call in range(draw(st.integers(min_value=0, max_value=6))):
        path = draw(st.lists(st.sampled_from(paragraphs), min_size=1, max_size=3))
        pool.add(Evidence(path=tuple(path), brief_analysis=draw(_TEXT),
                          accepted_at_call=call + 1))
    return pool


class TestPackEvidence:
    def test_empty_pool(self):
        context, included = pack_evidence(EvidencePool(), FusionStrategy.EVIDENCE,
                                          budget_tokens=100)
        assert context == ""
        assert included == []

    def test_everything_fits(self):
        pool = make_pool(3)
        context, included = pack_evidence(pool, FusionStrategy.EVIDENCE,
                                          budget_tokens=10_000)
        assert included == [0, 1, 2]
        assert context == render_context(pool.evidences, FusionStrategy.EVIDENCE)

    def test_budget_admits_exactly_two_of_four(self):
        # each evidence block renders as "Assertions:short analysis" (2 tokens)
        # plus one 4-word document line: 6 tokens per evidence under the
        # whitespace estimator, so a 13-token limit admits exactly two
        pool = make_pool(4)
        per_item = estimate_tokens(render_context(pool.evidences[:1],
                                                  FusionStrategy.EVIDENCE))
        assert per_item == 6
        context, included = pack_evidence(pool, FusionStrategy.EVIDENCE,
                                          budget_tokens=13)
        assert included == [0, 1]
        assert estimate_tokens(context) <= 13

    @pytest.mark.parametrize("estimator", ["whitespace", "chars"])
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("pool_kind", ["mixed", "oner"])
    def test_greedy_prefix_at_every_budget_boundary(self, pool_kind, strategy,
                                                    estimator):
        estimate = make_token_estimator(estimator)
        titled = Paragraph("t1", "Boston", "boston is a city")
        blank = Paragraph("t2", "  ", "census population figures")
        if pool_kind == "oner":
            evidences = [Evidence(path=(titled, blank, make_evidence(9).path[0]),
                                  brief_analysis="", accepted_at_call=0)]
        else:
            evidences = [
                # an empty first part still takes a separator after it
                Evidence(path=(blank,), brief_analysis="", accepted_at_call=1),
                make_evidence(1, n_paragraphs=2),
                Evidence(path=(titled, blank), brief_analysis="a city",
                         accepted_at_call=3),
                # adds no new paragraph to a paragraph context
                Evidence(path=(blank, titled), brief_analysis="again",
                         accepted_at_call=4),
                make_evidence(5, n_paragraphs=3, analysis="the last one"),
            ]
        pool = EvidencePool()
        for evidence in evidences:
            pool.add(evidence)

        assert_packs_like_every_prefix(pool, strategy, estimate)

    @given(random_pools(), st.sampled_from(list(FusionStrategy)),
           st.sampled_from(["whitespace", "chars"]))
    def test_random_pools_pack_like_every_prefix(self, pool, strategy, estimator):
        assert_packs_like_every_prefix(pool, strategy, make_token_estimator(estimator))

    def test_budget_below_reserve_is_an_error(self):
        with pytest.raises(ValueError, match="fixed prompt parts"):
            pack_evidence(make_pool(1), FusionStrategy.EVIDENCE,
                          budget_tokens=10, reserved_tokens=10)

    def test_first_item_overflow_gives_empty_context(self):
        pool = make_pool(2, words_per_text=50)
        context, included = pack_evidence(pool, FusionStrategy.EVIDENCE,
                                          budget_tokens=5)
        assert included == []
        assert context == ""

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=120),
        st.sampled_from(list(FusionStrategy)),
    )
    def test_packed_context_respects_budget(self, n, budget, strategy):
        pool = make_pool(n)
        context, included = pack_evidence(pool, strategy, budget_tokens=budget)
        assert estimate_tokens(context) <= budget
        # inclusion is always a prefix of acceptance order
        assert included == list(range(len(included)))


class TestRenderContext:
    def test_analysis_renders_assertions_only(self):
        pool = make_pool(2)
        context = render_context(pool.evidences, FusionStrategy.ANALYSIS)
        assert "short analysis" in context
        assert "w0x0y0" not in context

    def test_paragraph_renders_documents_only(self):
        pool = make_pool(2)
        context = render_context(pool.evidences, FusionStrategy.PARAGRAPH)
        assert "w0x0y0" in context
        assert "short analysis" not in context

    def test_paragraph_dedups_across_evidence(self):
        shared = Paragraph("shared", "", "common words here")
        pool = EvidencePool()
        pool.add(Evidence(path=(shared,), brief_analysis="a", accepted_at_call=1))
        pool.add(Evidence(path=(shared,), brief_analysis="b", accepted_at_call=2))
        context = render_context(pool.evidences, FusionStrategy.PARAGRAPH)
        assert context.count("common words here") == 1

    def test_evidence_groups_assertions_with_documents(self):
        pool = make_pool(1)
        context = render_context(pool.evidences, FusionStrategy.EVIDENCE)
        assert context.startswith("Assertions:short analysis\nDocuments:")


class TestExtractAnswer:
    def test_simple_extraction(self):
        assert extract_answer("Blah blah. The answer is Boston.") == ("Boston", True)

    def test_last_occurrence_wins(self):
        text = "The answer is Paris. Wait, actually the answer is Boston."
        assert extract_answer(text) == ("Boston", True)

    def test_missing_pattern_flags_fallback(self):
        extracted, found = extract_answer("  no marker at all  ")
        assert extracted == "no marker at all"
        assert found is False

    def test_case_insensitive_match_preserving_payload_case(self):
        assert extract_answer("THE ANSWER IS McCarthy.") == ("McCarthy", True)

    def test_idempotent_on_extracted_payload(self):
        for payload in ("Boston", "42", "a small dog"):
            extracted, _ = extract_answer(f"The answer is {payload}.")
            again, _ = extract_answer(f"The answer is {extracted}.")
            assert again == extracted == payload


class TestGenerateAnswer:
    def test_one_call_with_extraction(self):
        pool = make_pool(2)
        oracle = ScriptedOracle([], default_response="Sure. The answer is 42.")
        client = LlmClient(oracle)
        result = generate_answer("what is it?", pool, FusionStrategy.EVIDENCE,
                                 client)
        assert result.extracted_answer == "42"
        assert result.fusion_calls == 1
        assert client.calls == 1
        assert result.evidence_included == (0, 1)

    def test_empty_pool_still_answers(self):
        oracle = ScriptedOracle([], default_response="The answer is from memory.")
        result = generate_answer("q", EvidencePool(), FusionStrategy.PARAGRAPH,
                                 LlmClient(oracle))
        assert result.extracted_answer == "from memory"
        assert result.evidence_included == ()

    def test_budget_squeeze_drops_later_evidence(self):
        pool = make_pool(4)
        oracle = ScriptedOracle([], default_response="The answer is x.")
        full = generate_answer("q", pool, FusionStrategy.EVIDENCE,
                               LlmClient(oracle), budget_tokens=10_000)
        assert full.evidence_included == (0, 1, 2, 3)
        squeezed = generate_answer("q", pool, FusionStrategy.EVIDENCE,
                                   LlmClient(oracle), budget_tokens=80)
        assert len(squeezed.evidence_included) < 4

    def test_budget_too_small_errors(self):
        oracle = ScriptedOracle([], default_response="The answer is x.")
        with pytest.raises(ValueError):
            generate_answer("q", make_pool(1), FusionStrategy.EVIDENCE,
                            LlmClient(oracle), budget_tokens=3)

    def test_missing_pattern_keeps_full_response(self):
        oracle = ScriptedOracle([], default_response="I refuse to use the format")
        result = generate_answer("q", make_pool(1), FusionStrategy.ANALYSIS,
                                 LlmClient(oracle))
        assert result.pattern_found is False
        assert result.extracted_answer == "I refuse to use the format"


class CountingEmbedder(HashedEmbedder):
    """Records the texts of every embedding call, one list per call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls: list[list[str]] = []

    def embed_text(self, text):
        self.calls.append([text])
        return super().embed_text(text)

    def embed_texts(self, texts):
        self.calls.append(list(texts))
        return super().embed_texts(texts)


class TestSelectScoredParagraphs:
    def test_under_limit_short_circuits_without_embedding(self):
        provider = CountingEmbedder(dim=32, seed=1)
        pool = EvidencePool()
        for i in range(3):
            pool.add(make_evidence(i, n_paragraphs=2))
        # 6 distinct paragraphs <= 15
        result = select_scored_paragraphs(pool, "final response", provider)
        assert len(result) == 6
        assert provider.calls == []
        assert result == [p.id for p in distinct_paragraphs(pool)]

    def test_empty_pool(self, embedder):
        assert select_scored_paragraphs(EvidencePool(), "resp", embedder) == []

    def test_blank_response_falls_back_to_acceptance_order(self):
        provider = CountingEmbedder(dim=32, seed=1)
        small, large = make_pool(2, n_paragraphs=2), make_pool(6, n_paragraphs=3)
        # no re-ranking under the limit, so a blank response does no harm
        assert select_scored_paragraphs(small, " ", provider) == \
            [p.id for p in distinct_paragraphs(small)]
        # over it, re-ranking needs a response: counted when the run's stats
        # are given, raised otherwise
        stats = RunStats()
        assert select_scored_paragraphs(large, "\n ", provider, stats=stats) == \
            [p.id for p in distinct_paragraphs(large)[:15]]
        assert stats.provider_failures == 1
        with pytest.raises(ValueError, match="non-empty"):
            select_scored_paragraphs(large, "   ", provider)
        assert provider.calls == []

    def test_non_finite_embeddings_fall_back_to_acceptance_order(self):
        class NonFiniteEmbedder(HashedEmbedder):
            def embed_texts(self, texts):
                vectors = super().embed_texts(texts)
                vectors[4, 0] = float("nan")
                vectors[12, 3] = float("inf")
                return vectors

        pool = make_pool(20)
        # 20 evidence texts; re-ranking them would move at least one
        ranked = select_scored_paragraphs(pool, "final response",
                                          HashedEmbedder(dim=32, seed=1))
        assert ranked != [p.id for p in distinct_paragraphs(pool)[:15]]
        provider = NonFiniteEmbedder(dim=32, seed=1)
        stats = RunStats()
        assert select_scored_paragraphs(pool, "final response", provider,
                                        stats=stats) == \
            [p.id for p in distinct_paragraphs(pool)[:15]]
        assert stats.provider_failures == 1
        with pytest.raises(ValueError, match="non-finite"):
            select_scored_paragraphs(pool, "final response", provider)

    def test_over_limit_matches_brute_force_rerank(self, embedder):
        pool = EvidencePool()
        for i in range(6):
            pool.add(make_evidence(i, n_paragraphs=3,
                                   analysis=f"statement number {i}"))
        # 18 distinct paragraphs > 15
        response = "statement number 4 looks right"
        result = select_scored_paragraphs(pool, response, embedder)
        assert len(result) == 15
        assert len(set(result)) == 15

        # independent re-ranking oracle over evidence text
        def evidence_text(e):
            docs = "\n\n".join(p.text for p in e.path)
            return f"{docs}\n{e.brief_analysis}"

        rvec = embedder.embed_text(response)
        ranked = sorted(
            range(6),
            key=lambda i: (-cosine_similarity(
                embedder.embed_text(evidence_text(pool.evidences[i])), rvec), i),
        )
        expected = []
        for i in ranked:
            for p in pool.evidences[i].path:
                if p.id not in expected:
                    expected.append(p.id)
        assert result == expected[:15]

    def test_response_and_evidence_are_embedded_in_one_batch(self):
        provider = CountingEmbedder(dim=32, seed=1)
        pool = make_pool(6, n_paragraphs=3)
        select_scored_paragraphs(pool, "the final response", provider)
        assert provider.calls == [["the final response"]
                                  + [_evidence_text(e) for e in pool.evidences]]

    def test_no_duplicates_and_limit(self, embedder):
        shared = Paragraph("dup", "", "alpha beta gamma")
        pool = EvidencePool()
        for i in range(8):
            path = (shared,) + tuple(
                Paragraph(f"q{i}r{j}", "", f"text v{i}w{j}") for j in range(2)
            )
            pool.add(Evidence(path=path, brief_analysis=f"claim {i}",
                              accepted_at_call=i + 1))
        result = select_scored_paragraphs(pool, "claim 3", embedder)
        assert len(result) == len(set(result)) <= 15


# letters whose lower case depends on their neighbours or grows (final sigma,
# dotted capital I), case-ignorable combining marks, and whitespace that
# str.split splits on but a space test would miss
EDGE_TEXT = st.text(alphabet=st.sampled_from(
    ["a", "B", "x", "Σ", "σ", "ς", "İ", "i", "\u0307", "\u0301", "Α", " ", "\n",
     "\x85", "\u2028", "\t"]), max_size=14)


@st.composite
def corpora_and_pools(draw):
    """A corpus of 16-20 paragraphs, some with blank titles, and a pool
    with an evidence starting at each, in a drawn order, whose paths hold
    up to two more paragraphs and whose analyses may be empty."""
    paragraphs = [Paragraph(f"p{i:02d}", draw(EDGE_TEXT),
                            draw(EDGE_TEXT.filter(str.strip)))
                  for i in range(draw(st.integers(16, 20)))]
    pool = EvidencePool()
    for call, first in enumerate(draw(st.permutations(paragraphs))):
        rest = draw(st.lists(st.sampled_from(paragraphs), max_size=2))
        pool.add(Evidence(path=(first, *rest), brief_analysis=draw(EDGE_TEXT),
                          accepted_at_call=call + 1))
    return paragraphs, pool


class TestReRankingFromIndexRows:
    """With the index its pool came from, re-ranking continues each
    evidence's fold from its first paragraph's stored row."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    @settings(max_examples=30, deadline=None)
    @given(case=corpora_and_pools(), response=EDGE_TEXT.filter(str.strip))
    def test_continued_folds_have_the_bits_of_whole_texts(self, dim, case, response):
        paragraphs, pool = case
        embedder = HashedEmbedder(dim=dim, seed=3)
        index = build_index(paragraphs, embedder)
        starts = np.array([index.embedding(e.path[0].id) for e in pool.evidences])
        continued = embedder.continue_folds(
            starts, [_evidence_rest(e) for e in pool.evidences])
        whole = HashedEmbedder(dim=dim, seed=3).embed_texts(
            [_evidence_text(e) for e in pool.evidences])
        assert continued.tobytes() == whole.tobytes()
        assert _first_document_rows(pool.evidences, embedder, index) is not None
        assert select_scored_paragraphs(pool, response, embedder, index=index) == \
            select_scored_paragraphs(pool, response, HashedEmbedder(dim=dim, seed=3))

    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    @pytest.mark.parametrize("new_tokens", [1, HashedEmbedder._SEED_BATCH + 1])
    def test_rests_of_new_tokens_continue_as_whole_texts(self, dim, new_tokens):
        # a table warm from the index, and rests made only of tokens it has
        # not seen, repeating across the rests of the one batch
        paragraphs = [Paragraph(f"p{i:02d}", f"T{i}", f"word{i} shared")
                      for i in range(20)]
        embedder = HashedEmbedder(dim=dim, seed=1)
        index = build_index(paragraphs, embedder)
        fresh = [f"new{i}" for i in range(new_tokens)]
        rests = [" " + " ".join(fresh[(i + j) % new_tokens] for j in range(1 + i % 7))
                 for i in range(len(paragraphs))]
        starts = np.array([index.embedding(p.id) for p in paragraphs])
        continued = embedder.continue_folds(starts, rests)
        whole = HashedEmbedder(dim=dim, seed=1).embed_texts(
            [format_documents([p]) + rest for p, rest in zip(paragraphs, rests)])
        assert continued.tobytes() == whole.tobytes()
        known = {token for p in paragraphs for token in format_documents([p]).lower().split()}
        assert len(embedder._rows) == len(known) + new_tokens

    def test_an_empty_rest_gives_its_start_row(self):
        embedder = HashedEmbedder(dim=1, seed=0)
        starts = np.array([[1.5], [-2.0]])
        assert embedder.continue_folds(starts, ["", " \n"]).tobytes() == \
            starts.tobytes()

    def test_stored_rows_of_a_title_embedding_provider_are_reused(self, tmp_path):
        paragraphs = [Paragraph(f"p{i:02d}", f"T{i}", f"word{i} shared")
                      for i in range(20)]
        pool = make_pool(0)
        for i, p in enumerate(paragraphs):
            pool.add(Evidence(path=(p,), brief_analysis=f"claim {i}",
                              accepted_at_call=i + 1))
        hashed = HashedEmbedder(dim=16, seed=1)
        index = build_index(paragraphs, hashed)
        assert index.document_provider_id == hashed.provider_id
        # stored vectors, through their hashed query embedder, when the
        # caller vouches for them
        write_embeddings_file(tmp_path / "e.jsonl", index.ids, [index.matrix])
        for vouched in (None, hashed.provider_id):
            stored = PrecomputedEmbeddings(tmp_path / "e.jsonl", fallback=hashed,
                                           document_provider_id=vouched)
            reuse = _first_document_rows(pool.evidences, stored,
                                         build_index(paragraphs, stored))
            assert (reuse is not None and reuse[0] is hashed) == bool(vouched)
        # not for vectors of the texts alone, another provider, a subclass
        # that may embed otherwise, or a paragraph the index does not hold
        assert build_index(paragraphs, hashed, embed_title=False) \
            .document_provider_id is None
        for provider in (HashedEmbedder(dim=16, seed=2), CountingEmbedder(dim=16, seed=1)):
            assert _first_document_rows(pool.evidences, provider, index) is None
        other = make_evidence(99)
        assert _first_document_rows(pool.evidences + [other], hashed, index) is None
        edited = Evidence(path=(Paragraph("p03", "T3", "edited"),), brief_analysis="",
                          accepted_at_call=99)
        assert _first_document_rows([edited], hashed, index) is None
        assert _first_document_rows(pool.evidences, hashed, None) is None
