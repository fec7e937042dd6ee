"""Command-line entry point: corpus ingestion, batch question runs, and
evaluation."""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

from . import embedding
from .corpus import CorpusIndex, build_index, ingest_corpus, load_paragraphs
from .errors import CorpusError, RevtreeError
from .fusion import FusionStrategy, generate_answer, select_scored_paragraphs
from .llm import LlmClient, RemoteChatProvider, ScriptedOracle, load_demos, \
    make_token_estimator
from .metrics import ExampleResult, evaluate_run, load_dataset
from .review import ExpansionStrategy
from .search import RunStats, RunTrace, TreeConfig, run_chain, run_oner, run_tree

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one batch run; serialized next to its outputs."""

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
    max_depth: int = 3
    widths: tuple[int, ...] = (5, 3, 3)
    expansion: str = "mpc"
    relevance_pruning: bool = True
    repetitive_pruning: bool = True
    within_path_dedup: bool = True
    fusion: str = "evidence"
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
        if self.provider not in ("scripted", "remote"):
            raise ValueError(f"unknown provider '{self.provider}'")
        if self.provider == "scripted" and not self.rules_path:
            raise ValueError("scripted provider requires --rules")
        if self.embedder not in ("hashed", "remote", "precomputed"):
            raise ValueError(f"unknown embedder '{self.embedder}'")
        if self.embedder == "precomputed" and not self.embeddings_path:
            raise ValueError("precomputed embedder requires --embeddings")
        if self.parallel < 1:
            raise ValueError("--parallel must be >= 1")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["widths"] = list(self.widths)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "widths" in data:
            data = dict(data, widths=tuple(data["widths"]))
        return cls(**data)

    def tree_config(self) -> TreeConfig:
        return TreeConfig(
            max_depth=self.max_depth,
            widths=self.widths,
            relevance_pruning=self.relevance_pruning,
            repetitive_pruning=self.repetitive_pruning,
            expansion=ExpansionStrategy(self.expansion),
            within_path_dedup=self.within_path_dedup,
        )


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


def _check_manifest(embeddings_path: str, query_embedder) -> None:
    """Refuse an embeddings file whose ingest manifest, when one sits beside
    it, names another embedder than the one queries use, or another
    checksum than the file has."""
    manifest_path = Path(embeddings_path).with_name("manifest.json")
    if not manifest_path.exists():
        return
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("provider_id") != query_embedder.provider_id:
        raise CorpusError(
            f"{embeddings_path} was embedded by {manifest.get('provider_id')!r} "
            f"(per {manifest_path}), but queries are embedded by "
            f"{query_embedder.provider_id!r}")
    if manifest.get("checksum") != _file_sha256(embeddings_path):
        raise CorpusError(
            f"{embeddings_path} does not match the checksum in {manifest_path}")


def _build_embedder(kind: str, dim: int, seed: int,
                    embeddings_path: Optional[str] = None):
    if kind == "remote":
        return embedding.RemoteEmbedder()
    hashed = embedding.HashedEmbedder(dim=dim, seed=seed)
    if kind == "hashed":
        return hashed
    _check_manifest(embeddings_path, hashed)
    return embedding.PrecomputedEmbeddings(embeddings_path, fallback=hashed)


def _build_llm_provider(config: RunConfig):
    if config.provider == "scripted":
        return ScriptedOracle.from_file(config.rules_path)
    return RemoteChatProvider()


def cmd_ingest(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    provider = _build_embedder(args.embedder, args.dim, args.seed)
    index = ingest_corpus(args.corpus, provider, embed_title=not args.no_embed_title)

    embeddings_path = out_dir / "embeddings.jsonl"
    embedding.write_embeddings_file(embeddings_path, index.embeddings)
    checksum = _file_sha256(embeddings_path)
    _dump_json(out_dir / "manifest.json", {
        "corpus": str(args.corpus),
        "count": len(index),
        "dim": index.dim,
        "provider_id": index.provider_id,
        "embed_title": not args.no_embed_title,
        "checksum": checksum,
    })
    print(f"ingested {len(index)} paragraphs -> {out_dir}")
    return 0


def _run_one(example, config: RunConfig, index: CorpusIndex, embedder,
             llm_provider, demos: dict) -> tuple[dict, RunTrace]:
    client = LlmClient(llm_provider)
    estimator = make_token_estimator(config.estimator)

    if config.mode == "tor":
        pool, stats, trace = run_tree(example.question, config.tree_config(),
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

    strategy = FusionStrategy(config.fusion)
    answer = generate_answer(example.question, pool, strategy, client,
                             budget_tokens=config.budget_tokens,
                             estimator=estimator,
                             demos=demos.get("fusion", ()))
    scored = select_scored_paragraphs(pool, answer.full_response, embedder)
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
    out_dir = Path(config.output_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    embedder = _build_embedder(config.embedder, config.dim, config.seed,
                               config.embeddings_path)
    llm_provider = _build_llm_provider(config)
    index = build_index(load_paragraphs(config.corpus_path), embedder,
                        embed_title=config.embed_title)
    dataset = load_dataset(config.dataset_path)
    demos = {}
    if config.demos_dir:
        demos = {
            "review": load_demos(config.demos_dir, "review"),
            "fusion": load_demos(config.demos_dir, "fusion"),
        }

    records: dict[str, dict] = {}
    failures = 0
    with concurrent.futures.ThreadPoolExecutor(config.parallel) as executor:
        futures = {
            executor.submit(_run_one, example, config, index, embedder,
                            llm_provider, demos): example
            for example in dataset
        }
        for future in concurrent.futures.as_completed(futures):
            example = futures[future]
            try:
                record, trace = future.result()
            except Exception as exc:
                failures += 1
                logger.error("question %s failed: %s", example.id, exc)
                records[example.id] = {"id": example.id, "error": str(exc)}
                continue
            records[example.id] = record
            (traces_dir / f"{example.id}.json").write_text(
                trace.to_json(), encoding="utf-8")

    with open(out_dir / "answers.jsonl", "w", encoding="utf-8") as handle:
        for example in dataset:
            handle.write(json.dumps(records[example.id], sort_keys=True,
                                    ensure_ascii=False) + "\n")

    ok_records = [r for r in records.values() if "error" not in r]
    n = len(ok_records)
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
    _dump_json(out_dir / "config.json", config.to_dict())
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
    with open(run_dir / "answers.jsonl", "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if "error" in record:
                continue
            stats_data = record.get("stats", {})
            stats = RunStats(**{k: v for k, v in stats_data.items()
                                if k in RunStats.__dataclass_fields__})
            results[record["id"]] = ExampleResult(
                example_id=record["id"],
                answer=record.get("answer", ""),
                scored_ids=tuple(record.get("scored_ids", ())),
                stats=stats,
            )
    report = evaluate_run(dataset, results)
    out_path = Path(args.out) if args.out else run_dir / "report.json"
    _dump_json(out_path, report.to_dict())
    print(report.format_table())
    return 0


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        config = RunConfig.from_dict(data)
    else:
        config = RunConfig(
            mode=args.mode,
            corpus_path=args.corpus,
            dataset_path=args.dataset,
            output_dir=args.out,
            provider=args.provider,
            rules_path=args.rules,
            embedder=args.embedder,
            embeddings_path=args.embeddings,
            dim=args.dim,
            seed=args.seed,
            embed_title=not args.no_embed_title,
            max_depth=args.depth,
            widths=tuple(int(w) for w in args.widths.split(",")),
            expansion=args.expansion,
            relevance_pruning=not args.no_relevance_pruning,
            repetitive_pruning=not args.no_repetitive_pruning,
            within_path_dedup=not args.no_within_path_dedup,
            fusion=args.fusion or ("paragraph" if args.mode == "oner" else "evidence"),
            budget_tokens=args.budget,
            estimator=args.estimator,
            oner_k=args.k,
            max_turns=args.max_turns,
            per_turn_k=args.per_turn_k,
            parallel=args.parallel,
            demos_dir=args.demos_dir,
        )
    overrides = {}
    if args.config and args.out:
        overrides["output_dir"] = args.out
    if overrides:
        config = replace(config, **overrides)
    if not config.corpus_path or not config.dataset_path or not config.output_dir:
        raise ValueError("run needs --corpus, --dataset and --out (or a --config "
                         "file carrying them)")
    return config


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

    p_run = sub.add_parser("run", help="run a batch of questions")
    p_run.add_argument("--config", help="JSON config file (flags override --out)")
    p_run.add_argument("--mode", choices=["tor", "cor", "oner"], default="tor")
    p_run.add_argument("--corpus")
    p_run.add_argument("--dataset")
    p_run.add_argument("--out")
    p_run.add_argument("--provider", choices=["scripted", "remote"],
                       default="scripted")
    p_run.add_argument("--rules", help="scripted oracle rule file")
    p_run.add_argument("--embedder", choices=["hashed", "remote", "precomputed"],
                       default="hashed")
    p_run.add_argument("--embeddings", help="precomputed embedding file")
    p_run.add_argument("--dim", type=int, default=64)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--no-embed-title", action="store_true")
    p_run.add_argument("--depth", type=int, default=3)
    p_run.add_argument("--widths", default="5,3,3")
    p_run.add_argument("--expansion", choices=["direct", "cot", "mpc"],
                       default="mpc")
    p_run.add_argument("--no-relevance-pruning", action="store_true")
    p_run.add_argument("--no-repetitive-pruning", action="store_true")
    p_run.add_argument("--no-within-path-dedup", action="store_true")
    p_run.add_argument("--fusion", choices=["analysis", "paragraph", "evidence"])
    p_run.add_argument("--budget", type=int, default=4096)
    p_run.add_argument("--estimator", choices=["whitespace", "chars"],
                       default="whitespace")
    p_run.add_argument("--k", type=int, default=15, help="retrieval k for oner")
    p_run.add_argument("--max-turns", type=int, default=3)
    p_run.add_argument("--per-turn-k", type=int, default=5)
    p_run.add_argument("--parallel", type=int, default=1)
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
