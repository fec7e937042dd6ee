"""The three workloads: set-up, a timed closed loop of questions, then checks.

Each workload function takes the run's options and a tracer (or ``None``)
and returns a :class:`Outcome`.  Questions run one at a time; the next one
starts when the previous one has finished.  A workload patches module
attributes of the program for the rest of the process, so a process runs
one workload.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from revtree import ExampleResult, Paragraph, QAExample, ReviewDecision, RunStats, \
    render_review_output
from revtree import cli, corpus, embedding, fusion, llm, metrics, search
from revtree.fusion import FusionStrategy
from revtree.review import ExpansionStrategy

import checks
import gen
import simmodel
from tracer import OTHER, QUESTION, SETUP, Tracer, install_layer_spans

MIN_QUESTIONS = 100      # at least ten samples beyond p90
RANKING_SAMPLE = 3       # traces whose every retrieval is brute-forced
RERUN_SAMPLE = 3         # questions answered twice and compared byte for byte
BUDGET_TOKENS = 4096
EMBED_DIM = 64
EMBED_SEED = 0


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    question_s: list[float] = field(default_factory=list)
    timed_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    completions: int = 0
    prompt_tokens: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        n = len(self.question_s)
        ms = [1000.0 * s for s in self.question_s]
        cuts = statistics.quantiles(ms, n=10, method="inclusive")
        return {
            "setup_s": statistics.median(self.setup_s),
            "qps": n / self.timed_wall_s,
            "question_ms_p50": statistics.median(ms),
            "question_ms_p90": cuts[8],
            "peak_rss_mb": self.peak_rss_mb,
            "llm_calls_per_q": self.completions / n,
            "prompt_tokens_per_q": self.prompt_tokens / n,
        }


def _peak_rss_mb() -> float:
    """Peak RSS of this process so far; read before the checks, whose own
    allocations are not the workload's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _phase(tracer: Tracer | None, phase: str):
    return tracer.in_phase(phase) if tracer is not None else contextlib.nullcontext()


def _timed_loop(seconds: float, step, limit: int, pause=None) -> tuple[list[float], float]:
    """Call ``step(i)``, which returns question ``i``'s time, until
    ``seconds`` have passed and at least ``MIN_QUESTIONS`` questions are
    done, or until all ``limit`` distinct questions are; returns the question
    times and the loop's wall time.  ``pause(elapsed)``, if given, runs
    before each step with the loop's time so far, and its own time is left
    out of the loop's."""
    samples: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    while True:
        if pause is not None:
            t0 = time.perf_counter()
            pause(t0 - start - paused)
            paused += time.perf_counter() - t0
        samples.append(step(len(samples)))
        elapsed = time.perf_counter() - start - paused
        if (elapsed >= seconds and len(samples) >= MIN_QUESTIONS) or len(samples) == limit:
            return samples, elapsed


# Library workloads: run_tree + fusion called in-process ----------------------

TREE = search.TreeConfig(widths=(5, 3, 3), expansion=ExpansionStrategy.MPC)


@dataclass
class _Answered:
    """What the checks need from one answered question."""

    qid: str
    answer: str
    included: list[int]
    evidence: list[dict]
    api_calls: int
    fusion_calls: int
    parse_failures: int
    trace_calls: int
    nodes: int
    model_calls: int
    malformed: int
    retries: int


def _answer_question(question: gen.Question, index, embedder, provider,
                     backoff_s: float):
    client = llm.LlmClient(provider, backoff_s=backoff_s)
    pool, stats, trace = search.run_tree(question.text, TREE, index, embedder, client)
    answer = fusion.generate_answer(question.text, pool, FusionStrategy.EVIDENCE, client,
                                    BUDGET_TOKENS)
    scored = fusion.select_scored_paragraphs(pool, answer.full_response, embedder)
    record = {
        "id": question.id,
        "answer": answer.extracted_answer,
        "full_response": answer.full_response,
        "evidence_included": list(answer.evidence_included),
        "fusion_calls": answer.fusion_calls,
        "scored_ids": scored,
        "stats": stats.to_dict(),
    }
    return record, trace, trace.to_json()


def _library_workload(seconds: float, tracer: Tracer | None, setups: int,
                      records: list[tuple[str, str, str]], questions: list[gen.Question],
                      model: simmodel.SimModel, make_provider, backoff_s: float = 0.2,
                      session: simmodel.FakeSession | None = None,
                      planted: gen.PlantedCounts | None = None) -> Outcome:
    """Set up, answer distinct questions in a closed loop, then check.

    The loop sets up again, outside the questions' time, each time another
    ``1 / setups`` of ``seconds`` has passed, and answers on with the new
    set-up; so the ``setups`` set-up times sample the whole run, not only
    the spell of host speed it began in.  A question whose run swallowed a
    provider or retrieval failure counts as failed.  With ``planted``, every
    question must also cost exactly the planted counts."""
    out = Outcome()
    live = None   # (index, embedder, provider) the questions are answered with

    def set_up(elapsed: float = 0.0) -> None:
        nonlocal live
        if len(out.setup_s) >= setups or elapsed < seconds * len(out.setup_s) / setups:
            return
        # the old set-up is released first, so that peak RSS holds one; it
        # holds reference cycles, which only a collection frees
        live = None
        gc.collect()
        with _phase(tracer, SETUP):
            t0 = time.perf_counter()
            paragraphs = [Paragraph(pid, title, text) for pid, title, text in records]
            embedder = embedding.HashedEmbedder(dim=EMBED_DIM, seed=EMBED_SEED)
            index = corpus.build_index(paragraphs, embedder)
            provider = make_provider()
            out.setup_s.append(time.perf_counter() - t0)
        live = index, embedder, provider

    set_up()

    answered: list[_Answered] = []
    group_errors: list[str] = []
    first_bytes: dict[str, bytes] = {}
    sampled_traces: list[dict] = []

    def unavailable() -> int:
        return session.unavailable if session is not None else 0

    def answer(question: gen.Question):
        if session is not None:
            session.new_question()
        return _answer_question(question, *live, backoff_s)

    def step(i: int) -> float:
        question = questions[i]
        calls_before, malformed_before = model.completions, model.malformed
        unavailable_before = unavailable()
        t0 = time.perf_counter()
        record, trace, trace_json = answer(question)
        elapsed = time.perf_counter() - t0
        # bookkeeping for the checks, outside the question's time
        stats = record["stats"]
        if stats["provider_failures"]:
            out.failed += 1
        trace_doc = trace.to_dict()
        group_errors.extend(checks.check_retrieval_groups(trace_doc, len(records)))
        answered.append(_Answered(
            qid=question.id, answer=record["answer"],
            included=record["evidence_included"], evidence=trace.evidence,
            api_calls=stats["api_calls"], fusion_calls=record["fusion_calls"],
            parse_failures=stats["parse_failures"],
            trace_calls=checks.calls_from_trace(trace_doc), nodes=len(trace.nodes),
            model_calls=model.completions - calls_before,
            malformed=model.malformed - malformed_before,
            retries=unavailable() - unavailable_before))
        if i < max(RANKING_SAMPLE, RERUN_SAMPLE):
            first_bytes[question.id] = (json.dumps(record, sort_keys=True)
                                        + trace_json).encode("utf-8")
            sampled_traces.append(json.loads(trace_json))
        return elapsed

    completions_before, tokens_before = model.completions, model.prompt_tokens
    with _phase(tracer, QUESTION):
        out.question_s, out.timed_wall_s = _timed_loop(
            seconds, step, len(questions), set_up)
    out.completions = model.completions - completions_before
    out.prompt_tokens = model.prompt_tokens - tokens_before
    out.peak_rss_mb = _peak_rss_mb()

    with _phase(tracer, OTHER):
        out.errors = group_errors + _library_checks(
            answered, sampled_traces, first_bytes, records, questions, live[0], answer,
            planted)
    return out


def _library_checks(answered, sampled_traces, first_bytes, records, questions, index,
                    answer, planted) -> list[str]:
    errors: list[str] = []
    paragraphs = {pid: (title, text) for pid, title, text in records}
    ids = sorted(paragraphs)
    # (a) every retrieval of the sampled traces against brute force
    unit = checks.unit_rows([index.embedding(pid) for pid in ids])
    query_embedder = embedding.HashedEmbedder(dim=EMBED_DIM, seed=EMBED_SEED)
    for trace in sampled_traces[:RANKING_SAMPLE]:
        errors += checks.check_ranking(trace, unit, ids, query_embedder.embed_text)
    # (b) call accounting, (c) parse accounting, (d) packing per question
    for a in answered:
        errors += checks.check_calls(a.api_calls, a.fusion_calls, a.model_calls,
                                     a.trace_calls, a.qid)
    errors += checks.check_parse_failures(sum(a.parse_failures for a in answered),
                                          sum(a.malformed for a in answered))
    golds = {q.id: q.gold for q in questions}
    texts = {q.id: q.text for q in questions}
    expected_em = {}
    for a in answered:
        tokens = checks.block_tokens(a.evidence, paragraphs.__getitem__)
        limit = checks.fusion_limit(texts[a.qid], BUDGET_TOKENS)
        errors += checks.check_packing(a.included, tokens, limit, a.qid)
        # the model answers the gold iff its packed context is non-empty
        expected_em[a.qid] = int(bool(tokens) and tokens[0] <= limit)
    # (e) answers against the model's known fusion rule, scored by evaluate_run
    examples = [QAExample(id=a.qid, question=texts[a.qid], gold_answers=(golds[a.qid],))
                for a in answered]
    results = {a.qid: ExampleResult(example_id=a.qid, answer=a.answer,
                                    stats=RunStats(api_calls=a.api_calls))
               for a in answered}
    report = metrics.evaluate_run(examples, results)
    errors += checks.check_answers({a.qid: a.answer for a in answered}, golds,
                                   expected_em, report.em)
    if planted is not None:
        # every planted tree has the same size, one retried 503 and an
        # accepted path, so the answer is the gold
        want = {"nodes": planted.nodes, "completions": planted.completions,
                "parse_failures": planted.malformed, "retries": 1, "em": 1}
        for a in answered:
            got = {"nodes": a.nodes, "completions": a.model_calls,
                   "parse_failures": a.parse_failures, "retries": a.retries,
                   "em": int(metrics.normalize_answer(a.answer)
                             == metrics.normalize_answer(golds[a.qid]))}
            errors += checks.check_counts(got, want, a.qid)
    # (f) the first questions answered again give identical bytes
    again = {}
    for question in questions[:RERUN_SAMPLE]:
        record, _trace, trace_json = answer(question)
        again[question.id] = (json.dumps(record, sort_keys=True)
                              + trace_json).encode("utf-8")
    errors += checks.check_reruns(
        {k: v for k, v in first_bytes.items() if k in again}, again)
    return errors


def tor_retrieval(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """20k vocabulary paragraphs; the model searches at almost every node, so
    each question makes ~130 calls and 21 retrievals."""
    vocab = gen.make_vocab(seed)
    records = list(gen.vocab_records(seed, vocab, 20000))
    questions = gen.vocab_questions(seed, vocab, 1000)
    model = simmodel.SimModel(simmodel.MostlySearchPolicy(seed, vocab, TREE.max_depth),
                              {q.text: q.gold for q in questions})
    if tracer is not None:
        install_layer_spans(tracer, [simmodel.SimProvider])
    return _library_workload(seconds, tracer, setups=3, records=records,
                             questions=questions, model=model,
                             make_provider=lambda: simmodel.SimProvider(model))


REMOTE_ENV = {
    llm.LLM_BASE_URL_VAR: "https://model.invalid/v1",
    llm.LLM_API_KEY_VAR: "benchmark",
    llm.LLM_MODEL_VAR: "simulated",
}
REMOTE_BACKOFF_S = 0.005
REMOTE_QUESTIONS = 160    # more than a run answers, so no prompt repeats
REMOTE_SETUPS = 15        # a small index builds in ~0.4 s


def tor_remote_sim(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """A small planted corpus; every question makes 33 completions through
    ``RemoteChatProvider`` and a fake session that sleeps per call."""
    world = gen.planted_world(seed, questions=REMOTE_QUESTIONS)
    model = simmodel.SimModel(simmodel.PlantedPolicy(world),
                              {q.text: q.gold for q in world.questions})
    session = simmodel.FakeSession(model, world.flaky)
    os.environ.update(REMOTE_ENV)
    if tracer is not None:
        install_layer_spans(tracer, [llm.RemoteChatProvider])
    return _library_workload(seconds, tracer, setups=REMOTE_SETUPS, records=world.records,
                             questions=world.questions, model=model,
                             make_provider=lambda: llm.RemoteChatProvider(session=session),
                             backoff_s=REMOTE_BACKOFF_S, session=session,
                             planted=gen.planted_counts())


# CLI workload: ingest, run, eval through revtree.cli.main ----------------------

CLI_WIDTH = 40            # layer-1 width; every layer-1 review accepts
CLI_FIRST_ROUND = 30
CLI_ROUNDS = 3


@dataclass
class Tally:
    completions: int = 0
    prompt_tokens: int = 0


def counting_oracle(tally: Tally) -> type:
    """The scripted oracle class, counting into ``tally`` the completions
    it gives and the prompt tokens it is sent."""

    class CountingOracle(llm.ScriptedOracle):
        def generate(self, request, call_index):
            text = super().generate(request, call_index)
            tally.completions += 1
            tally.prompt_tokens += len(request.prompt.split())
            return text

    return CountingOracle


class QuestionClock:
    """Times each ``cli._run_one`` call: per-question wall time and the
    moment a run starts answering."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.starts: list[float] = []
        self.durations: list[float] = []

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.phase = QUESTION
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.starts.append(t0)
                self.durations.append(time.perf_counter() - t0)
        return timed


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _cli(argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"revtree {' '.join(argv[:1])} exited {code}")


def cli_batch(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Outcome:
    """``revtree ingest``, ``revtree run --embedder precomputed`` and
    ``revtree eval`` on a 20k corpus; every review accepts, so fusion works
    on 40-item pools."""
    out = Outcome()
    vocab = gen.make_vocab(seed)
    questions = gen.vocab_questions(seed, vocab, 5000)
    # a seeded half of the questions has the question itself as gold answer,
    # which is what the fusion rule below answers
    golds = {q.id: (q.text if gen.stable_unit(seed, "gold", q.id) < 0.5 else q.gold)
             for q in questions}
    # streamed, so the benchmark holds no copy of the corpus that the
    # program's peak RSS would include
    corpus_path = workdir / "corpus.jsonl"
    records = gen.vocab_records(seed, vocab, 20000)
    _write_jsonl(corpus_path, ({"id": pid, "title": title, "text": text}
                               for pid, title, text in records))
    rules_path = workdir / "rules.jsonl"
    accept = render_review_output(ReviewDecision.accept(
        "the passage settles part of {question}", thought="it names the link"))
    _write_jsonl(rules_path, [
        {"template": "review_cot", "response": accept},
        {"template": "fusion_evidence",
         "response": simmodel.fusion_response("{question}")},
    ])

    clock = QuestionClock(tracer)
    tally = Tally()
    oracle_class = counting_oracle(tally)
    cli.ScriptedOracle = oracle_class
    cli._run_one = clock.wrap(cli._run_one)
    if tracer is not None:
        install_layer_spans(tracer, [oracle_class])
    ingest = tracer.wrap("cli.ingest", _cli) if tracer is not None else _cli
    rounds: list[dict] = []
    qphase_s = 0.0
    for r in range(CLI_ROUNDS):
        # a round stands for separate revtree invocations, which start
        # without the previous round's cyclic garbage; without this, peak
        # RSS swung by ~20 MB with the collector's timing
        gc.collect()
        if r == 0:
            n = CLI_FIRST_ROUND
        else:
            per_q = qphase_s / len(clock.durations)
            left = seconds - qphase_s
            n = max(math.ceil(left / per_q / (CLI_ROUNDS - 1)),
                    math.ceil((MIN_QUESTIONS - CLI_FIRST_ROUND) / (CLI_ROUNDS - 1)))
        round_dir = workdir / f"round{r}"
        round_dir.mkdir()
        dataset_path = round_dir / "dataset.jsonl"
        _write_jsonl(dataset_path, ({"id": q.id, "question": q.text,
                                     "gold_answers": [golds[q.id]]}
                                    for q in questions[:n]))
        index_dir = round_dir / "index"
        run_dir = round_dir / "run"
        before = len(clock.durations)
        calls_before, tokens_before = tally.completions, tally.prompt_tokens
        with _phase(tracer, SETUP):
            t0 = time.perf_counter()
            ingest(["ingest", "--corpus", str(corpus_path), "--out", str(index_dir)])
            _cli(["run", "--corpus", str(corpus_path), "--dataset", str(dataset_path),
                  "--out", str(run_dir), "--rules", str(rules_path),
                  "--embedder", "precomputed",
                  "--embeddings", str(index_dir / "embeddings.jsonl"),
                  "--widths", f"{CLI_WIDTH},3,3", "--budget", str(BUDGET_TOKENS)])
            t1 = time.perf_counter()
        first = clock.starts[before]
        out.setup_s.append(first - t0)
        qphase_s += t1 - first
        rounds.append({"dir": round_dir, "calls": tally.completions - calls_before})
        out.completions += tally.completions - calls_before
        out.prompt_tokens += tally.prompt_tokens - tokens_before
        with _phase(tracer, OTHER):
            _cli(["eval", "--dataset", str(dataset_path), "--run", str(run_dir)])
        if r < CLI_ROUNDS - 1:
            # only the last round's index is read again, by the ranking check
            (index_dir / "embeddings.jsonl").unlink()
    out.question_s = list(clock.durations)
    out.timed_wall_s = qphase_s
    out.peak_rss_mb = _peak_rss_mb()
    with _phase(tracer, OTHER):
        out.errors, out.failed = _cli_checks(rounds, corpus_path, questions, golds)
    return out


def _cli_checks(rounds, corpus_path, questions, golds) -> tuple[list[str], int]:
    errors: list[str] = []
    failed = 0
    with open(corpus_path, encoding="utf-8") as handle:
        paragraphs = {row["id"]: (row["title"], row["text"])
                      for row in map(json.loads, handle)}
    texts = {q.id: q.text for q in questions}
    answers_bytes = []
    for r, rnd in enumerate(rounds):
        run_dir = rnd["dir"] / "run"
        summary = json.loads((run_dir / "stats_summary.json").read_text(encoding="utf-8"))
        failed += summary["failed"]
        raw = (run_dir / "answers.jsonl").read_bytes()
        answers_bytes.append(raw.splitlines())
        answers = [json.loads(line) for line in raw.splitlines()]
        traces = {a["id"]: json.loads((run_dir / "traces" / f"{a['id']}.json")
                                      .read_text(encoding="utf-8")) for a in answers}
        totals = {"api": 0, "fusion": 0, "trace": 0}
        expected_em = {}
        # a swallowed provider or retrieval failure fails the question
        failed += sum(1 for a in answers if a["stats"]["provider_failures"])
        for a in answers:
            trace = traces[a["id"]]
            label = f"round {r} {a['id']}"
            errors += checks.check_retrieval_groups(trace, len(paragraphs))
            api, fcalls = a["stats"]["api_calls"], a["fusion_calls"]
            trace_calls = checks.calls_from_trace(trace)
            totals["api"] += api
            totals["fusion"] += fcalls
            totals["trace"] += trace_calls
            # every review accepts: one call per layer-1 candidate, then fusion
            errors += checks.check_calls(api, fcalls, CLI_WIDTH + 1, trace_calls, label)
            tokens = checks.block_tokens(trace["evidence"], paragraphs.__getitem__)
            limit = checks.fusion_limit(texts[a["id"]], BUDGET_TOKENS)
            errors += checks.check_packing(a["evidence_included"], tokens, limit, label)
            # the fusion rule answers the question itself
            expected_em[a["id"]] = int(metrics.normalize_answer(texts[a["id"]])
                                       == metrics.normalize_answer(golds[a["id"]]))
        errors += checks.check_calls(totals["api"], totals["fusion"], rnd["calls"],
                                     totals["trace"], f"round {r} total")
        errors += checks.check_parse_failures(
            sum(a["stats"]["parse_failures"] for a in answers), 0)
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        errors += checks.check_answers({a["id"]: a["answer"] for a in answers}, golds,
                                       expected_em, report["em"])
        if r == len(rounds) - 1:
            errors += _cli_ranking(rnd["dir"] / "index" / "embeddings.jsonl",
                                   [traces[a["id"]] for a in answers[:RANKING_SAMPLE]])
    # (f) consecutive rounds answer a common prefix of questions: identical bytes
    for r in range(1, len(rounds)):
        common = min(len(answers_bytes[r - 1]), len(answers_bytes[r]))
        for i, q in enumerate(questions[:common]):
            errors += checks.check_reruns(
                {q.id: answers_bytes[r - 1][i] + _trace_bytes(rounds[r - 1], q.id)},
                {q.id: answers_bytes[r][i] + _trace_bytes(rounds[r], q.id)})
    return errors, failed


def _trace_bytes(rnd: dict, qid: str) -> bytes:
    return (rnd["dir"] / "run" / "traces" / f"{qid}.json").read_bytes()


def _cli_ranking(embeddings_path: Path, traces: list[dict]) -> list[str]:
    vectors = {}
    with open(embeddings_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            vectors[record["id"]] = np.asarray(record["values"], dtype=np.float64)
    ids = sorted(vectors)
    unit = checks.unit_rows([vectors[pid] for pid in ids])
    embedder = embedding.HashedEmbedder(dim=EMBED_DIM, seed=EMBED_SEED)
    errors = []
    for trace in traces:
        errors += checks.check_ranking(trace, unit, ids, embedder.embed_text)
    return errors
