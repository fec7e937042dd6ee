"""Golden output digests: a seeded scripted run matrix through ``revtree``'s
command line must reproduce the committed bytes of every output file.

The corpus, dataset and rule file are generated here from fixed seeds: titled,
empty and blank titles, exact and token-permuted duplicate paragraphs, and
rules that mix accept, reject, search, unparseable reviews, MPC outputs with
and without ``[INFO]``, chain verdicts, and fusion replies with and without
the answer marker.  Every run then goes through ``eval``.

A change that alters output bytes on purpose regenerates the digests with::

    PYTHONPATH=src python tests/test_golden.py --update

and names each changed file, and why, in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path

from revtree import (
    HashedEmbedder,
    Paragraph,
    ReviewDecision,
    build_index,
    render_mpc_output,
    render_review_output,
    retrieve,
)
from revtree.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

# (run name, extra ``run`` flags); every run also gets ``eval``
RUNS = [
    ("tor", []),
    ("tor_cot", ["--expansion", "cot", "--no-relevance-pruning", "--widths", "4,3,2"]),
    ("tor_parallel", ["--parallel", "3", "--budget", "300"]),
    ("tor_precomputed", ["--embedder", "precomputed", "--embeddings",
                         "index/embeddings.jsonl", "--fusion", "analysis"]),
    ("cor", ["--mode", "cor"]),
    ("oner", ["--mode", "oner", "--k", "7"]),
    ("tor_direct", ["--expansion", "direct", "--widths", "6,4,2",
                    "--no-repetitive-pruning"]),
    ("oner_wide", ["--mode", "oner", "--k", "40", "--embedder", "precomputed",
                   "--embeddings", "index/embeddings.jsonl"]),
    # a budget that cuts packing, over pools of more than 15 paragraphs that
    # are re-ranked by cosine to the response
    ("tor_wide_cut", ["--widths", "20,3,3", "--fusion", "analysis", "--budget", "90"]),
    ("tor_wide_chars", ["--widths", "20,3,3", "--fusion", "paragraph",
                        "--estimator", "chars", "--budget", "150"]),
]

N_PARAGRAPHS = 4000
N_DUPLICATES = 400
N_QUESTIONS = 16
VOCAB = [f"w{i:03d}" for i in range(400)]
WEIGHTS = [1.0 / (i + 1) for i in range(len(VOCAB))]


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choices(VOCAB, WEIGHTS, k=n))


def make_corpus(rng: random.Random) -> list[Paragraph]:
    paragraphs = []
    for i in range(N_PARAGRAPHS):
        title = (f"Title {_words(rng, 2)}" if i % 4 < 2
                 else "" if i % 4 == 2 else "   ")
        paragraphs.append(Paragraph(f"p{i:05d}", title, _words(rng, rng.randint(8, 30))))
    for j in range(N_DUPLICATES):
        source = paragraphs[rng.randrange(N_PARAGRAPHS)]
        text = source.text
        if j % 2:
            tokens = text.split()
            rng.shuffle(tokens)
            text = " ".join(tokens)
        paragraphs.append(Paragraph(f"d{j:04d}", source.title, text))
    return paragraphs


def make_dataset(rng: random.Random, paragraphs) -> list[dict]:
    examples = []
    for i in range(N_QUESTIONS):
        a, b = rng.sample(paragraphs[:N_PARAGRAPHS], 2)
        question = " ".join(a.text.split()[:4] + b.text.split()[:4])
        example = {"id": f"q{i:02d}", "question": question,
                   "gold_answers": [f"gold {i}", f"alias {i}"]}
        if i % 4 != 3:
            example["gold_paragraph_ids"] = [a.id, b.id]
        examples.append(example)
    return examples


def _verdict(rng: random.Random, i: int) -> tuple[str, str | None]:
    """A seeded review response and, for a search verdict, its next query."""
    roll = rng.random()
    if roll < 0.25:
        return render_review_output(ReviewDecision.accept(f"fact {i} {_words(rng, 3)}")), None
    if roll < 0.45:
        return render_review_output(ReviewDecision.reject("off topic")), None
    if roll < 0.85:
        query = _words(rng, 5)
        return render_review_output(ReviewDecision.search(query)), query
    if roll < 0.93:
        return "free prose with no bracketed tokens", None
    return "- Judgment: [RELEVANT]\n- Output: [ANSWER] x [QUERY] y", None


def _mpc(rng: random.Random, query: str) -> str:
    roll = rng.random()
    if roll < 0.15:
        return "- Thought: nothing comes to mind"
    return render_mpc_output(query, answer=_words(rng, 2) if roll < 0.6 else "")


def make_rules(rng: random.Random, paragraphs, dataset) -> list[dict]:
    """Path rules for every reviewed path of length 1 and 2 that the
    matrix's widths can reach, then per-question fallbacks and a default.

    An MPC rule precedes each search rule of the same path, since an MPC
    request carries the path of the review it follows; its ``[INFO]`` query
    is the review's own, so every expansion retrieves the same children.
    """
    embedder = HashedEmbedder(dim=64, seed=0)
    index = build_index(paragraphs, embedder)
    rules: list[dict] = []

    def path_rule(question: str, path: list[str], i: int) -> str | None:
        response, query = _verdict(rng, i)
        if query is not None:
            rules.append({"template": "mpc", "question": question,
                          "path_ids": path, "response": _mpc(rng, query)})
        rules.append({"question": question, "path_ids": path, "response": response})
        return query

    for i, example in enumerate(dataset):
        question = example["question"]
        for first, _score in retrieve(index, question, 12, embedder):
            query = path_rule(question, [first.id], i)
            if query is None:
                continue
            for second, _score in retrieve(index, query, 4, embedder):
                path_rule(question, [first.id, second.id], i)

    for i, example in enumerate(dataset):
        question = example["question"]
        deep = [
            render_review_output(ReviewDecision.accept(f"deep fact {i}")),
            render_review_output(ReviewDecision.reject("too far")),
            render_review_output(ReviewDecision.search(f"w00{i} w01{i} w1{i}0")),
            "an unparseable deep review",
        ][i % 4]
        chain = [
            render_review_output(ReviewDecision.search(f"w02{i} w2{i}0")),
            render_review_output(ReviewDecision.accept(f"chain fact {i}")),
            render_review_output(ReviewDecision.reject("chain done")),
            "an unparseable chain review",
        ][i % 4]
        fused = [f"Fused reply {i}; the answer is gold {i}.",
                 f"The answer is alias {i}",
                 f"No marker in reply {i}",
                 f"the ANSWER IS wrong {i}."][i % 4]
        rules += [
            {"question": question, "template": "review_cot", "response": deep},
            {"question": question, "template": "review_direct", "response": deep},
            {"question": question, "template": "mpc",
             "response": _mpc(rng, f"w03{i} w3{i}0 w0{i}5")},
            {"question": question, "template": "cor", "response": chain},
        ]
        rules += [{"question": question, "template": template, "response": fused}
                  for template in ("fusion_evidence", "fusion_analysis",
                                   "fusion_paragraph")]
    rules.append({"default": render_review_output(ReviewDecision.reject("default"))})
    return rules


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def write_inputs(workdir: Path) -> list[dict]:
    """Write the seeded ``corpus.jsonl``, ``dataset.jsonl`` and
    ``rules.jsonl`` into ``workdir``, and return the dataset."""
    rng = random.Random(20241018)
    paragraphs = make_corpus(rng)
    dataset = make_dataset(rng, paragraphs)
    rules = make_rules(rng, paragraphs, dataset)
    _write_jsonl(workdir / "corpus.jsonl", [
        {"id": p.id, "title": p.title, "text": p.text} for p in paragraphs])
    _write_jsonl(workdir / "dataset.jsonl", dataset)
    _write_jsonl(workdir / "rules.jsonl", rules)
    return dataset


def run_matrix(workdir: Path) -> dict[str, str]:
    """Run the matrix in ``workdir`` (paths stay relative, so ``config.json``
    does not name the directory) and return ``{file: sha256}``."""
    write_inputs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(["ingest", "--corpus", "corpus.jsonl", "--out", "index"]) == 0
        for name, extra in RUNS:
            out = f"runs/{name}"
            assert main(["run", "--corpus", "corpus.jsonl", "--dataset",
                         "dataset.jsonl", "--rules", "rules.jsonl", "--out", out,
                         *extra]) == 0, name
            assert main(["eval", "--dataset", "dataset.jsonl", "--run", out]) == 0, name
    finally:
        os.chdir(cwd)
    files = [workdir / "index" / "embeddings.jsonl"]
    for name, _extra in RUNS:
        run_dir = workdir / "runs" / name
        files += [run_dir / f for f in ("answers.jsonl", "stats_summary.json",
                                         "config.json", "report.json")]
        files += sorted((run_dir / "traces").glob("*.json"))
    return {f.relative_to(workdir).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


def test_outputs_match_the_golden_digests(tmp_path):
    got = run_matrix(tmp_path)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(name for name in set(got) | set(want)
                     if got.get(name) != want.get(name))
    assert not changed, (
        f"{len(changed)} output files differ from {DIGESTS.name}: {changed[:20]}")


def test_each_question_is_answered_as_it_is_alone(tmp_path):
    """A question's record and trace do not depend on the other questions of
    its run, on their order or on ``--parallel``, which workers in other
    processes will rely on."""
    dataset = write_inputs(tmp_path)

    def run(name: str, examples: list[dict], parallel: int) -> dict:
        _write_jsonl(tmp_path / f"{name}.jsonl", examples)
        out = tmp_path / name
        assert main(["run", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--dataset", str(tmp_path / f"{name}.jsonl"),
                     "--rules", str(tmp_path / "rules.jsonl"), "--out", str(out),
                     "--parallel", str(parallel)]) == 0
        lines = (out / "answers.jsonl").read_text(encoding="utf-8").splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        return {qid: (line, (out / "traces" / f"{qid}.json").read_bytes())
                for qid, line in zip(ids, lines)}

    forward = run("forward", dataset, 1)
    rng = random.Random(7)
    for i in range(2):
        subset = rng.sample(dataset, 10)
        for parallel in (1, 3):
            got = run(f"subset{i}_parallel{parallel}", subset, parallel)
            assert list(got) == [example["id"] for example in subset]
            assert got == {qid: forward[qid] for qid in got}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --update")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = run_matrix(Path(scratch))
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
