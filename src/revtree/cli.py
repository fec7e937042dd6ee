"""Command-line entry point: corpus ingestion, batch question runs, and
evaluation."""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from . import embedding
from .corpus import CorpusIndex, build_index, load_paragraphs
from .errors import CorpusError, RevtreeError
from .fusion import FusionStrategy, generate_answer, reserved_tokens, \
    select_scored_paragraphs
from .jsonl import read_jsonl
from .llm import LlmClient, RemoteChatProvider, ScriptedOracle, load_demos, \
    make_token_estimator
from .metrics import ExampleResult, QAExample, evaluate_run, load_dataset
from .review import ExpansionStrategy
from .search import RunStats, RunTrace, TreeConfig, run_chain, run_oner, run_tree

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one batch run, checked once when it is built, and
    serialized next to the run's outputs.  Each ``run`` flag sets the field
    its argparse ``dest`` names."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            # exact types, since a bool is also an int; a None default
            # admits a string
            if type(value) is not type(f.default) and not (
                    f.default is None and isinstance(value, str)):
                raise ValueError(f"config field '{f.name}' has the wrong type: "
                                 f"{value!r}")
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

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if isinstance(data.get("widths"), list):
            data = dict(data, widths=tuple(data["widths"]))
        return cls(**data)


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_manifest(embeddings_path: str, corpus_path: str,
                    query_embedder) -> tuple[bool, Optional[str]]:
    """Refuse an embeddings file whose ingest manifest, when one sits beside
    it, is not a JSON object with a string ``provider_id`` and, if it has
    one, a bool ``embed_title``, or names another embedder than the one
    queries use, another checksum than the file has, or another corpus
    checksum than ``corpus_path`` has (manifests written before ingest
    recorded one are not checked for it).

    Return whether the manifest records the checksums of the matrix and ids
    files ingest writes beside the file, once they are checked too (only
    then are the vectors loaded from those files), and the query embedder's
    id if the stored vectors are its embeddings of ``format_documents([p])``:
    the manifest says ``embed_title`` and its corpus checksum was checked."""
    manifest_path = Path(embeddings_path).with_name("manifest.json")
    if not manifest_path.exists():
        return False, None
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise CorpusError(f"{manifest_path} does not hold a JSON object")
    for key, kind in (("provider_id", str), ("embed_title", bool)):
        if key in manifest and not isinstance(manifest[key], kind):
            raise CorpusError(f"{manifest_path}: {key} is not a {kind.__name__}: "
                              f"{manifest[key]!r}")
    if manifest.get("provider_id") != query_embedder.provider_id:
        raise CorpusError(
            f"{embeddings_path} was embedded by {manifest.get('provider_id')!r} "
            f"(per {manifest_path}), but queries are embedded by "
            f"{query_embedder.provider_id!r}")
    if manifest.get("checksum") != _file_sha256(embeddings_path):
        raise CorpusError(
            f"{embeddings_path} does not match the checksum in {manifest_path}")
    recorded = manifest.get("corpus_sha256")
    if recorded is not None and recorded != _file_sha256(corpus_path):
        raise CorpusError(
            f"{corpus_path} is not the corpus {embeddings_path} was embedded "
            f"from: its sha256 differs from the one in {manifest_path}")
    documents = query_embedder.provider_id \
        if recorded is not None and manifest.get("embed_title") is True else None
    stored = {"matrix_sha256": embedding.MATRIX_FILE, "ids_sha256": embedding.IDS_FILE}
    if not stored.keys() <= manifest.keys():
        return False, documents
    for key, name in stored.items():
        path = manifest_path.with_name(name)
        if manifest[key] != _file_sha256(path):
            raise CorpusError(f"{path} does not match the checksum in {manifest_path}")
    return True, documents


def _build_embedder(kind: str, dim: int, seed: int,
                    embeddings_path: Optional[str] = None,
                    corpus_path: Optional[str] = None):
    if kind == "remote":
        return embedding.RemoteEmbedder()
    hashed = embedding.HashedEmbedder(dim=dim, seed=seed)
    if kind == "hashed":
        return hashed
    binary, documents = _check_manifest(embeddings_path, corpus_path, hashed)
    return embedding.PrecomputedEmbeddings(embeddings_path, fallback=hashed,
                                           binary=binary,
                                           document_provider_id=documents)


def cmd_ingest(args: argparse.Namespace) -> int:
    provider = _build_embedder(args.embedder, args.dim, args.seed)
    index = build_index(load_paragraphs(args.corpus), provider,
                        embed_title=not args.no_embed_title)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    embeddings_path = out_dir / "embeddings.jsonl"
    embedding.write_embeddings_file(embeddings_path, index)
    _dump_json(out_dir / "manifest.json", {
        "corpus": str(args.corpus),
        "corpus_sha256": _file_sha256(args.corpus),
        "count": len(index),
        "dim": index.dim,
        "provider_id": index.provider_id,
        "embed_title": not args.no_embed_title,
        "checksum": _file_sha256(embeddings_path),
        "matrix_sha256": _file_sha256(out_dir / embedding.MATRIX_FILE),
        "ids_sha256": _file_sha256(out_dir / embedding.IDS_FILE),
    })
    print(f"ingested {len(index)} paragraphs -> {out_dir}")
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
    embedder = _build_embedder(config.embedder, config.dim, config.seed,
                               config.embeddings_path, config.corpus_path)
    index = build_index(load_paragraphs(config.corpus_path), embedder,
                        embed_title=config.embed_title)
    # made only now, so that a run refused before its first question leaves
    # no output tree
    out_dir = Path(config.output_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    records: dict[str, dict] = {}
    # at most two questions per worker are submitted and not yet written,
    # so that memory stays flat however many questions a run answers
    window = 2 * config.parallel
    pending: dict[concurrent.futures.Future, QAExample] = {}

    def take_finished() -> None:
        """Write the trace and keep the record of each finished question."""
        done, _ = concurrent.futures.wait(
            pending, return_when=concurrent.futures.FIRST_COMPLETED)
        for future in done:
            example = pending.pop(future)
            # taken, not raised, so that its traceback does not hold this
            # frame and, through it, the batch's traces
            exc = future.exception()
            if isinstance(exc, Exception):
                logger.error("question %s failed: %s", example.id, exc)
                records[example.id] = {"id": example.id, "error": str(exc)}
                continue
            record, trace = future.result()
            records[example.id] = record
            (traces_dir / f"{example.id}.json").write_text(
                trace.to_json(), encoding="utf-8")

    with concurrent.futures.ThreadPoolExecutor(config.parallel) as executor:
        for example in dataset:
            if len(pending) == window:
                take_finished()
            pending[executor.submit(_run_one, example, config, index, embedder,
                                    llm_provider, demos)] = example
        while pending:
            take_finished()

    with open(out_dir / "answers.jsonl", "w", encoding="utf-8") as handle:
        for example in dataset:
            handle.write(json.dumps(records[example.id], sort_keys=True,
                                    ensure_ascii=False) + "\n")

    ok_records = [r for r in records.values() if "error" not in r]
    n = len(ok_records)
    failures = len(records) - n
    summary = {
        "n": len(dataset),
        "completed": n,
        "failed": failures,
        "provider": config.provider,
        # remote-provider runs are only best-effort reproducible
        "reproducible": config.provider == "scripted",
        "mean_api_calls": sum(r["stats"]["api_calls"] for r in ok_records) / n if n else 0.0,
        "mean_distinct_docs": sum(r["stats"]["distinct_docs"] for r in ok_records) / n if n else 0.0,
        "mean_evidence": sum(r["stats"]["evidence_count"] for r in ok_records) / n if n else 0.0,
        "total_parse_failures": sum(r["stats"]["parse_failures"] for r in ok_records),
        "total_provider_failures": sum(r["stats"]["provider_failures"]
                                       for r in ok_records),
        "total_fusion_calls": sum(r.get("fusion_calls", 0) for r in ok_records),
    }
    _dump_json(out_dir / "stats_summary.json", summary)
    _dump_json(out_dir / "config.json", asdict(config))
    print(f"ran {len(dataset)} questions ({failures} failed) -> {out_dir}")
    # a run that answered nothing, or whose every retrieval came back empty,
    # is not a success, though its files stand
    if any(r["stats"]["distinct_docs"] for r in ok_records):
        return 0
    if n:
        logger.error("no question retrieved a paragraph")
    return 1


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    run_dir = Path(args.run)
    results: dict[str, ExampleResult] = {}
    answers_path = run_dir / "answers.jsonl"
    for lineno, record in read_jsonl(answers_path, RevtreeError):
        try:
            stats = RunStats(**{k: v for k, v in record.get("stats", {}).items()
                                if k in RunStats.__dataclass_fields__})
            results[record["id"]] = ExampleResult(
                example_id=record["id"], answer=record.get("answer", ""),
                scored_ids=tuple(record.get("scored_ids", ())), stats=stats,
                failed="error" in record)
        except (AttributeError, KeyError, TypeError) as exc:
            raise RevtreeError(
                f"{answers_path}: line {lineno}: invalid answer record: {exc!r}") from exc
    report = evaluate_run(dataset, results)
    out_path = Path(args.out) if args.out else run_dir / "report.json"
    _dump_json(out_path, report.to_dict())
    print(report.format_table())
    return 0


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """The file ``--config`` names, if any, with every given flag over it."""
    given = {k: v for k, v in vars(args).items()
             if k in RunConfig.__dataclass_fields__}
    data = {}
    if "config" in args:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: a config file holds one JSON object")
    return RunConfig.from_dict({**data, **given})


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
                       help="precomputed embedding file")
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


if __name__ == "__main__":
    sys.exit(main())
