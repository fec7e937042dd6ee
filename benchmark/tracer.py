"""Per-layer spans taken from outside the program.

The tracer replaces, for the rest of a traced run's process, the names through which
one layer calls the next (for example ``revtree.search.retrieve``, the name
``run_tree`` calls) with wrappers that time each call.  Spans nest per
thread; a span's self time is its duration minus the time of the spans it
caused.  Totals are kept in memory per phase (``setup`` or ``question``) and
read once the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from revtree import cli, corpus, embedding, fusion, llm, review, search
from revtree.errors import TransportError

SETUP, QUESTION, OTHER = "setup", "question", "other"


class Tracer:
    def __init__(self):
        self.phase = OTHER
        # (phase, span name) -> [calls, total ns, child ns]
        self.spans: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        # (phase, counter name) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, name: str, fn, after=None, on_error=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` and
        ``on_error(exc)`` may count."""
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                duration = time.perf_counter_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                record = spans[(self.phase, name)]
                record[0] += 1
                record[1] += duration
                record[2] += child
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, on_error=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper for the rest of the
        process."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after, on_error))

    @contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def total_ms(self, phase: str, name: str, self_time: bool = False) -> float:
        _calls, total, child = self.spans.get((phase, name), (0, 0, 0))
        return ((total - child) if self_time else total) / 1e6

    def calls(self, phase: str, name: str) -> int:
        return self.spans.get((phase, name), (0, 0, 0))[0]


def install_layer_spans(tracer: Tracer, provider_classes) -> None:
    """Wrap every layer boundary the workloads cross.

    ``provider_classes`` are the completion providers whose ``generate`` the
    workload's ``LlmClient`` calls; their time is the model wait.
    """

    def on_generate_error(exc):
        if isinstance(exc, TransportError):
            tracer.count("llm.retries")

    def on_review(result, args):
        if isinstance(result, review.ParseFailure):
            tracer.count("review.parse_failures")

    def on_run_tree(result, args):
        _pool, stats, trace = result
        max_depth = trace.meta["max_depth"]
        tracer.count("search.nodes", len(trace.nodes))
        tracer.count("search.pruned", len(trace.pruned))
        tracer.count("search.max_depth_mpc_calls", sum(
            1 for n in trace.nodes
            if n["depth"] == max_depth and n["decision"] == "search"))
        tracer.count("search.distinct_docs", stats.distinct_docs)
        tracer.count("search.api_calls", stats.api_calls)

    def on_generate_answer(result, args):
        pool = args[1]
        tracer.count("fusion.pool", len(pool))
        tracer.count("fusion.included", len(result.evidence_included))

    for cls in provider_classes:
        tracer.patch(cls, "generate", "llm.generate", on_error=on_generate_error)

    tracer.patch(llm.LlmClient, "complete", "llm.complete")
    for module in (review, fusion):
        tracer.patch(module, "render_prompt", "llm.render_prompt")
    tracer.patch(search, "retrieve", "corpus.retrieve")
    tracer.patch(search, "review_path", "review.review_path", after=on_review)
    tracer.patch(review, "parse_review_output", "review.parse")
    tracer.patch(review, "parse_mpc_output", "review.parse")
    tracer.patch(embedding.HashedEmbedder, "embed_text", "embedding.embed_text")
    tracer.patch(embedding.EmbeddingProvider, "embed_paragraph", "embedding.embed_paragraph")
    tracer.patch(embedding.PrecomputedEmbeddings, "embed_paragraph",
                 "embedding.embed_paragraph")
    tracer.patch(embedding.PrecomputedEmbeddings, "__init__", "embedding.precomputed_load")
    tracer.patch(embedding, "write_embeddings_file", "embedding.write_file")
    tracer.patch(search.RunTrace, "to_json", "cli.trace_json")
    for module in (corpus, cli):
        tracer.patch(module, "build_index", "corpus.build_index")
        tracer.patch(module, "load_paragraphs", "corpus.load_paragraphs")
    for module in (search, cli):
        tracer.patch(module, "run_tree", "search.run_tree", after=on_run_tree)
    for module in (fusion, cli):
        tracer.patch(module, "generate_answer", "fusion.generate_answer",
                     after=on_generate_answer)
        tracer.patch(module, "select_scored_paragraphs", "fusion.select_scored")
    tracer.patch(fusion, "pack_evidence", "fusion.pack")


def per_layer_metrics(tracer: Tracer, questions: int, setups: int) -> dict[str, float]:
    """Per-question means of question-phase spans and per-set-up means of
    set-up spans, named as in ``BENCHMARK.json``."""
    q, s = QUESTION, SETUP

    def per_q_ms(name, self_time=False):
        return tracer.total_ms(q, name, self_time) / questions

    def per_setup_s(name, self_time=False):
        return tracer.total_ms(s, name, self_time) / 1000.0 / setups

    def per_q_count(name):
        return tracer.counts.get((q, name), 0.0) / questions

    api_calls = tracer.counts.get((q, "search.api_calls"), 0.0)
    pool = tracer.counts.get((q, "fusion.pool"), 0.0)
    return {
        "corpus.retrieve_ms": per_q_ms("corpus.retrieve", self_time=True),
        "corpus.retrieve_calls": tracer.calls(q, "corpus.retrieve") / questions,
        "corpus.build_index_s": per_setup_s("corpus.build_index", self_time=True),
        "corpus.load_paragraphs_s": per_setup_s("corpus.load_paragraphs"),
        "embedding.embed_text_ms": per_q_ms("embedding.embed_text"),
        "embedding.embed_text_calls": tracer.calls(q, "embedding.embed_text") / questions,
        "embedding.embed_paragraph_s": per_setup_s("embedding.embed_paragraph"),
        "embedding.precomputed_load_s": per_setup_s("embedding.precomputed_load"),
        "embedding.write_file_s": per_setup_s("embedding.write_file"),
        "llm.provider_wait_ms": per_q_ms("llm.generate"),
        "llm.complete_self_ms": per_q_ms("llm.complete", self_time=True),
        "llm.retries": per_q_count("llm.retries"),
        "llm.render_prompt_ms": per_q_ms("llm.render_prompt"),
        "review.review_path_self_ms": per_q_ms("review.review_path", self_time=True),
        "review.parse_ms": per_q_ms("review.parse"),
        "review.parse_failures": per_q_count("review.parse_failures"),
        "search.run_tree_self_ms": per_q_ms("search.run_tree", self_time=True),
        "search.nodes": per_q_count("search.nodes"),
        "search.pruned": per_q_count("search.pruned"),
        "search.max_depth_mpc_calls": per_q_count("search.max_depth_mpc_calls"),
        "search.docs_per_call": (tracer.counts.get((q, "search.distinct_docs"), 0.0)
                                 / api_calls if api_calls else 0.0),
        "fusion.pack_ms": per_q_ms("fusion.pack"),
        "fusion.select_scored_ms": per_q_ms("fusion.select_scored"),
        "fusion.generate_answer_self_ms": per_q_ms("fusion.generate_answer",
                                                   self_time=True),
        "fusion.included_share": (tracer.counts.get((q, "fusion.included"), 0.0) / pool
                                  if pool else 0.0),
        "cli.ingest_s": per_setup_s("cli.ingest"),
        "cli.trace_json_ms": per_q_ms("cli.trace_json"),
    }
