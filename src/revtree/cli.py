"""Command-line entry point: corpus ingestion, batch question runs, and
evaluation."""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import logging
import sys
from collections import deque
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Optional

from . import embedding
from .corpus import CorpusIndex, build_index, embed_batches, load_paragraphs
from .errors import RevtreeError
from .fusion import FusionStrategy, generate_answer, reserved_tokens, \
    select_scored_paragraphs
from .jsonl import field, read_json, read_jsonl, write_json
from .llm import LlmClient, RemoteChatProvider, ScriptedOracle, load_demos, \
    make_token_estimator
from .metrics import ExampleResult, QAExample, evaluate_run, load_dataset, sum_results
from .review import ExpansionStrategy
from .search import RunStats, RunTrace, TreeConfig, run_chain, run_oner, run_tree

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one batch run, checked once when it is built, and
    serialized next to the run's outputs.  Each ``run`` flag sets the field
    its argparse ``dest`` names; argparse types the flags, and
    :func:`_resolve_run_config` the ``--config`` file."""

    mode: str = "tor"
    corpus_path: str = ""
    dataset_path: str = ""
    output_dir: str = ""
    provider: str = "scripted"
    rules_path: Optional[str] = None
    embedder: str = "hashed"
    embeddings_path: Optional[str] = None
    dim: int = 64
    seed: int = 0
    embed_title: bool = True
    widths: tuple[int, ...] = (5, 3, 3)
    expansion: str = "mpc"
    relevance_pruning: bool = True
    repetitive_pruning: bool = True
    within_path_dedup: bool = True
    # unset, it is "paragraph" under oner and "evidence" otherwise
    fusion: Optional[str] = None
    budget_tokens: int = 4096
    estimator: str = "whitespace"
    oner_k: int = 15
    max_turns: int = 3
    per_turn_k: int = 5
    parallel: int = 1
    demos_dir: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ("tor", "cor", "oner"):
            raise ValueError(f"unknown mode '{self.mode}'")
        if not self.corpus_path or not self.dataset_path or not self.output_dir:
            raise ValueError("run needs --corpus, --dataset and --out (or a "
                             "--config file carrying them)")
        if self.provider not in ("scripted", "remote"):
            raise ValueError(f"unknown provider '{self.provider}'")
        if self.provider == "scripted" and not self.rules_path:
            raise ValueError("scripted provider requires --rules")
        if self.embedder not in ("hashed", "remote", "precomputed"):
            raise ValueError(f"unknown embedder '{self.embedder}'")
        if self.embedder == "precomputed" and not self.embeddings_path:
            raise ValueError("precomputed embedder requires --embeddings")
        for name in ("oner_k", "max_turns", "per_turn_k", "parallel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.fusion is None:
            object.__setattr__(self, "fusion",
                               "paragraph" if self.mode == "oner" else "evidence")
        # built once here, so that a bad value fails the run before its index
        object.__setattr__(self, "tree", TreeConfig(
            widths=self.widths,
            relevance_pruning=self.relevance_pruning,
            repetitive_pruning=self.repetitive_pruning,
            expansion=ExpansionStrategy(self.expansion),
            within_path_dedup=self.within_path_dedup,
        ))
        object.__setattr__(self, "fusion_strategy", FusionStrategy(self.fusion))
        object.__setattr__(self, "token_estimator",
                           make_token_estimator(self.estimator))


def _build_embedder(kind: str, dim: int, seed: int,
                    embeddings_path: Optional[str] = None,
                    corpus_path: Optional[str] = None,
                    corpus_sha256: Optional[str] = None, embed_title: bool = True):
    if kind == "remote":
        return embedding.RemoteEmbedder()
    if kind == "precomputed":
        return embedding.open_index(embeddings_path, corpus_path, corpus_sha256,
                                    dim, seed, embed_title)
    return embedding.HashedEmbedder(dim=dim, seed=seed)


def cmd_ingest(args: argparse.Namespace) -> int:
    provider = _build_embedder(args.embedder, args.dim, args.seed)
    embed_title = not args.no_embed_title
    # the corpus is read once, and hashed as it is parsed
    corpus_sha256 = hashlib.sha256()
    ordered = sorted(load_paragraphs(args.corpus, corpus_sha256), key=lambda p: p.id)
    # each batch is written as it is embedded
    embedding.write_index(args.out, args.corpus, corpus_sha256.hexdigest(),
                          [p.id for p in ordered],
                          embed_batches(ordered, provider, embed_title),
                          provider.provider_id, embed_title)
    print(f"ingested {len(ordered)} paragraphs -> {Path(args.out)}")
    return 0


def _run_one(example, config: RunConfig, index: CorpusIndex, embedder,
             llm_provider, demos: dict) -> tuple[dict, RunTrace]:
    client = LlmClient(llm_provider)
    if config.mode == "tor":
        pool, stats, trace = run_tree(example.question, config.tree,
                                      index, embedder, client,
                                      demos=demos.get("review", ()))
    elif config.mode == "cor":
        pool, stats, trace = run_chain(example.question, index, embedder, client,
                                       max_turns=config.max_turns,
                                       per_turn_k=config.per_turn_k,
                                       demos=demos.get("review", ()))
    else:
        pool, stats, trace = run_oner(example.question, config.oner_k, index,
                                      embedder)

    answer = generate_answer(example.question, pool, config.fusion_strategy,
                             client, budget_tokens=config.budget_tokens,
                             estimator=config.token_estimator,
                             demos=demos.get("fusion", ()))
    scored = select_scored_paragraphs(pool, answer.full_response, embedder,
                                      stats=stats, index=index)
    # the trace's stats take a re-ranking failure too
    trace.stats = stats.to_dict()
    record = {
        "id": example.id,
        "question": example.question,
        "answer": answer.extracted_answer,
        "full_response": answer.full_response,
        "pattern_found": answer.pattern_found,
        "evidence_included": list(answer.evidence_included),
        "fusion_calls": answer.fusion_calls,
        "scored_ids": list(scored),
        "stats": stats.to_dict(),
    }
    return record, trace


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_run_config(args)
    dataset = load_dataset(config.dataset_path)
    if not dataset:
        raise ValueError(f"{config.dataset_path}: the dataset holds no questions")
    demos = {}
    if config.demos_dir:
        demos = {
            "review": load_demos(config.demos_dir, "review"),
            "fusion": load_demos(config.demos_dir, "fusion"),
        }
    for example in dataset:
        needed = reserved_tokens(example.question, config.fusion_strategy,
                                 config.token_estimator, demos.get("fusion", ()))
        if config.budget_tokens <= needed:
            raise ValueError(
                f"budget of {config.budget_tokens} tokens cannot cover the fixed "
                f"fusion prompt of question {example.id!r}, which needs more "
                f"than {needed} tokens")
    # at most max(widths) reviews of each of --parallel questions in flight
    llm_provider = (ScriptedOracle.from_file(config.rules_path)
                    if config.provider == "scripted" else
                    RemoteChatProvider(pool_size=config.parallel * max(config.tree.widths)))
    # the corpus is read once, and a stored index is opened only if it was
    # embedded from the bytes read
    corpus_sha256 = hashlib.sha256()
    paragraphs = load_paragraphs(config.corpus_path, corpus_sha256)
    embedder = _build_embedder(config.embedder, config.dim, config.seed,
                               config.embeddings_path, config.corpus_path,
                               corpus_sha256.hexdigest(), config.embed_title)
    index = build_index(paragraphs, embedder, embed_title=config.embed_title)
    # made only now, so that a run refused before its first question leaves
    # no output tree
    out_dir = Path(config.output_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", asdict(config))

    # questions are written in dataset order, each trace before its record,
    # so that a run cut short keeps every answer before the cut; at most two
    # questions per worker are submitted and not yet written, so that memory
    # stays flat however many questions a run answers
    window = 2 * config.parallel
    queue: deque[tuple[QAExample, concurrent.futures.Future]] = deque()

    def write_oldest(answers) -> None:
        """Wait on the oldest submitted question and write it; its future,
        which holds its record and trace, is dropped on return."""
        example, future = queue.popleft()
        # taken, not raised, so that its traceback does not hold this frame
        # and, through it, the batch's traces
        exc = future.exception()
        if isinstance(exc, Exception):
            logger.error("question %s failed: %s", example.id, exc)
            record, trace = {"id": example.id, "error": str(exc)}, None
        else:
            record, trace = future.result()
        if trace is not None:
            (traces_dir / f"{record['id']}.json").write_text(
                trace.to_json(), encoding="utf-8")
        answers.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")

    # line-buffered, so that a killed run keeps each answer whose trace it wrote
    with open(out_dir / "answers.jsonl", "w", encoding="utf-8", buffering=1) as answers, \
            concurrent.futures.ThreadPoolExecutor(config.parallel) as executor:
        try:
            for example in dataset:
                if len(queue) == window:
                    write_oldest(answers)
                queue.append((example, executor.submit(
                    _run_one, example, config, index, embedder, llm_provider, demos)))
            while queue:
                write_oldest(answers)
        except BaseException:
            # a cut run answers no queued question: only the running ones finish
            executor.shutdown(cancel_futures=True)
            raise

    # the totals eval reads, summed from the records as written
    totals = sum_results(result for _, result in _read_answers(out_dir / "answers.jsonl"))
    n, failures = totals["completed"], totals["failed"]
    summary = {
        "n": len(dataset),
        "completed": n,
        "failed": failures,
        "provider": config.provider,
        # remote-provider runs are only best-effort reproducible
        "reproducible": config.provider == "scripted",
        "mean_api_calls": totals["api_calls"] / n if n else 0.0,
        "mean_distinct_docs": totals["distinct_docs"] / n if n else 0.0,
        "mean_evidence": totals["evidence_count"] / n if n else 0.0,
        "total_parse_failures": totals["parse_failures"],
        "total_provider_failures": totals["provider_failures"],
        "total_fusion_calls": totals["fusion_calls"],
    }
    write_json(out_dir / "stats_summary.json", summary)
    print(f"ran {len(dataset)} questions ({failures} failed) -> {out_dir}")
    # a run that answered nothing, or whose every retrieval came back empty,
    # is not a success, though its files stand
    if totals["distinct_docs"]:
        return 0
    if n:
        logger.error("no question retrieved a paragraph")
    return 1


def _read_answers(path: Path):
    """Each record of an ``answers.jsonl`` as ``(line number, ExampleResult)``."""
    for lineno, record in read_jsonl(path, RevtreeError):
        where = f"{path}: line {lineno}"
        read = partial(field, record, where=where, error_cls=RevtreeError)
        stats = read("stats", dict, default={})
        # the counts a report reads; rate is taken from their means
        counts = {f.name: field(stats, f.name, int, f"{where}: stats", RevtreeError,
                                default=0)
                  for f in fields(RunStats) if f.name != "rate"}
        yield lineno, ExampleResult(
            example_id=read("id", str), answer=read("answer", str, default=""),
            scored_ids=tuple(read("scored_ids", list[str], default=[])),
            stats=RunStats(**counts), fusion_calls=read("fusion_calls", int, default=0),
            failed="error" in record)


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    run_dir = Path(args.run)
    results: dict[str, ExampleResult] = {}
    # the line of each id's record, to refuse a repeated or unknown id
    lines = dict.fromkeys((example.id for example in dataset), 0)
    answers_path = run_dir / "answers.jsonl"
    for lineno, result in _read_answers(answers_path):
        where, example_id = f"{answers_path}: line {lineno}", result.example_id
        results[example_id] = result
        if example_id not in lines:
            raise RevtreeError(f"{where}: id '{example_id}' is not in the "
                               f"dataset {args.dataset}")
        if lines[example_id]:
            raise RevtreeError(f"{where}: duplicate id '{example_id}' (first "
                               f"seen on line {lines[example_id]})")
        lines[example_id] = lineno
    report = evaluate_run(dataset, results)
    out_path = Path(args.out) if args.out else run_dir / "report.json"
    write_json(out_path, report.to_dict())
    print(report.format_table())
    return 0


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """The file ``--config`` names, if any, with every given flag over it."""
    given = {k: v for k, v in vars(args).items()
             if k in RunConfig.__dataclass_fields__}
    if "config" not in args:
        return RunConfig(**given)
    data = read_json(args.config, ValueError)
    unknown = set(data) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"{args.config}: unknown config fields: {sorted(unknown)}")
    for f in fields(RunConfig):
        kind = type(f.default)
        if f.default is None:  # a path or choice, which a null leaves unset
            kind = str
        elif kind is tuple:  # the widths, a JSON list
            kind = list[int]
        data[f.name] = field(data, f.name, kind, args.config, ValueError, f.default)
    data["widths"] = tuple(data["widths"])
    try:
        return RunConfig(**{**data, **given})
    except ValueError as exc:
        raise ValueError(f"{args.config}, with the flags given over it: {exc}") from None


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revtree",
        description="Review-driven tree search engine for multi-hop QA",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="embed a corpus file and write an index")
    p_ingest.add_argument("--corpus", required=True)
    p_ingest.add_argument("--out", required=True)
    p_ingest.add_argument("--embedder", choices=["hashed", "remote"], default="hashed")
    p_ingest.add_argument("--dim", type=int, default=64)
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--no-embed-title", action="store_true")
    p_ingest.set_defaults(func=cmd_ingest)

    # no flag has a default: RunConfig holds them, and a flag given
    # overrides the --config file
    p_run = sub.add_parser("run", help="run a batch of questions",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--config", help="JSON config file; given flags override it")
    p_run.add_argument("--mode", choices=["tor", "cor", "oner"])
    p_run.add_argument("--corpus", dest="corpus_path")
    p_run.add_argument("--dataset", dest="dataset_path")
    p_run.add_argument("--out", dest="output_dir")
    p_run.add_argument("--provider", choices=["scripted", "remote"])
    p_run.add_argument("--rules", dest="rules_path", help="scripted oracle rule file")
    p_run.add_argument("--embedder", choices=["hashed", "remote", "precomputed"])
    p_run.add_argument("--embeddings", dest="embeddings_path",
                       help="embeddings.jsonl written by ingest; the vectors "
                       "load from the matrix.npy and ids.json beside it")
    p_run.add_argument("--dim", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--no-embed-title", dest="embed_title", action="store_false")
    p_run.add_argument("--widths", type=_widths,
                       help="per-layer retrieval k, one per layer (default 5,3,3)")
    p_run.add_argument("--expansion", choices=["direct", "cot", "mpc"])
    p_run.add_argument("--no-relevance-pruning", dest="relevance_pruning",
                       action="store_false")
    p_run.add_argument("--no-repetitive-pruning", dest="repetitive_pruning",
                       action="store_false")
    p_run.add_argument("--no-within-path-dedup", dest="within_path_dedup",
                       action="store_false")
    p_run.add_argument("--fusion", choices=["analysis", "paragraph", "evidence"])
    p_run.add_argument("--budget", dest="budget_tokens", type=int)
    p_run.add_argument("--estimator", choices=["whitespace", "chars"])
    p_run.add_argument("--k", dest="oner_k", type=int, help="retrieval k for oner")
    p_run.add_argument("--max-turns", type=int)
    p_run.add_argument("--per-turn-k", type=int)
    p_run.add_argument("--parallel", type=int)
    p_run.add_argument("--demos-dir")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a finished run against a dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--run", required=True, help="run output directory")
    p_eval.add_argument("--out", help="report path (default <run>/report.json)")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (RevtreeError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    except MemoryError as exc:
        logger.error("out of memory: %s", exc)
        return 1
    except KeyboardInterrupt:
        logger.error("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
