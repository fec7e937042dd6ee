"""Seeded mutation of every input file: one field of a valid corpus, dataset,
rule file, ``--config`` file or ingest directory is given the wrong type,
deleted, blanked, given path characters or a bool where an int goes.  The
CLI then either succeeds with a full output tree, or exits 1 before writing
one, with a logged error that names the file at fault; no exception leaves
``main``."""

from __future__ import annotations

import contextlib
import json
import logging
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revtree import ReviewDecision, render_review_output
from revtree.cli import main

ACCEPT = render_review_output(ReviewDecision.accept("it is Boston"))

CORPUS = [
    {"id": "p1", "title": "Boston", "text": "boston is a city"},
    {"id": "p2", "title": "Census", "text": "census population figures"},
    {"id": "p3", "title": "Rivers", "text": "rivers flow to the sea"},
]
DATASET = [
    {"id": "q1", "question": "boston city", "gold_answers": ["Boston"],
     "gold_paragraph_ids": ["p1"]},
    {"id": "q2", "question": "river sea", "gold_answers": ["sea"]},
]
RULES = [
    {"template": "review_cot", "path_ids": ["p1"], "response": ACCEPT},
    {"template": "fusion_evidence", "question": "boston city",
     "response": "The answer is Boston."},
    {"default": ACCEPT},
]
# settings the flags do not give; dim, seed and embed_title are the
# defaults, which the ingest below uses too
CONFIG = {"mode": "tor", "widths": [2, 2], "expansion": "mpc", "fusion": "evidence",
          "estimator": "whitespace", "budget_tokens": 4096, "parallel": 2,
          "dim": 64, "seed": 0, "embed_title": True, "relevance_pruning": True}
# the fields of manifest.json, with a value of the type ingest writes each
MANIFEST_KEYS = {"corpus": "", "corpus_sha256": "", "count": 0, "dim": 0,
                 "provider_id": "", "embed_title": True, "checksum": "",
                 "matrix_sha256": "", "ids_sha256": ""}
LINE_FILES = {"corpus": CORPUS, "dataset": DATASET, "rules": RULES}
# the files a mutation can hit; "manifest" and "ids" are the ingest's
NAMES = {"corpus": "corpus.jsonl", "dataset": "dataset.jsonl", "rules": "rules.jsonl",
         "config": "config.json", "manifest": "index/manifest.json",
         "ids": "index/ids.json"}
PATH_TEXT = ["/", "a/b", "../x", "\\", "\x00", ".", ".."]


def mutations(value) -> list[str]:
    """The mutations that apply to a field holding ``value``."""
    kinds = ["swap", "delete"]
    if isinstance(value, (str, list)):
        kinds.append("blank")
    if isinstance(value, str):
        kinds.append("path")
    if type(value) is int or (isinstance(value, list) and value
                              and type(value[0]) is int):
        kinds.append("bool")
    return kinds


def mutate(record: dict | list, key, kind: str, text: str) -> None:
    """Apply mutation ``kind`` to ``record[key]`` in place; ``text`` is the
    blank or the path characters to use."""
    value = record[key]
    if kind == "delete":
        del record[key]
    elif kind == "swap":
        record[key] = {str: 5, int: "5", bool: "true", list: "text"}[type(value)]
    elif kind == "blank":
        record[key] = text if isinstance(value, str) else []
    elif kind == "path":
        record[key] = value + text
    elif type(value) is int:
        record[key] = True
    else:
        value[0] = True


@st.composite
def targets(draw):
    """``(file, line or None, key, mutation, text)``."""
    file = draw(st.sampled_from(sorted(NAMES)))
    if file in LINE_FILES:
        line = draw(st.integers(0, len(LINE_FILES[file]) - 1))
        record = LINE_FILES[file][line]
    elif file == "config":
        line, record = None, CONFIG
    elif file == "ids":
        # the stored ids are one JSON list
        line, record = None, {i: pid for i, pid in enumerate(sorted(
            p["id"] for p in CORPUS))}
    else:
        line, record = None, MANIFEST_KEYS
    key = draw(st.sampled_from(sorted(record, key=str)))
    kind = draw(st.sampled_from(mutations(record[key])))
    text = draw(st.sampled_from(PATH_TEXT if kind == "path" else ["", "   "]))
    return file, line, key, kind, text


def write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


class Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextlib.contextmanager
def logged_errors():
    handler = Errors()
    logger = logging.getLogger("revtree")
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def run_mutated(work: Path, target) -> None:
    file, line, key, kind, text = target
    rows = {name: json.loads(json.dumps(data)) for name, data in LINE_FILES.items()}
    config = dict(CONFIG, widths=list(CONFIG["widths"]))
    if file in rows:
        mutate(rows[file][line], key, kind, text)
    elif file == "config":
        mutate(config, key, kind, text)
    for name, data in rows.items():
        write_jsonl(work / NAMES[name], data)
    (work / NAMES["config"]).write_text(json.dumps(config), encoding="utf-8")
    at_fault = str(work / NAMES[file])
    index, out = work / "index", work / "out"

    with logged_errors() as errors:
        code = main(["ingest", "--corpus", str(work / NAMES["corpus"]),
                     "--out", str(index)])
    if code != 0:
        assert file == "corpus" and code == 1
        assert any(at_fault in m for m in errors), errors
        assert not index.exists()
        return
    if file == "manifest":
        manifest = json.loads((index / "manifest.json").read_text())
        mutate(manifest, key, kind, text)
        (index / "manifest.json").write_text(json.dumps(manifest))
    elif file == "ids":
        ids = json.loads((index / "ids.json").read_text())
        mutate(ids, key, kind, text)
        (index / "ids.json").write_text(json.dumps(ids))

    with logged_errors() as errors:
        code = main(["run", "--config", str(work / NAMES["config"]),
                     "--corpus", str(work / NAMES["corpus"]),
                     "--dataset", str(work / NAMES["dataset"]),
                     "--rules", str(work / NAMES["rules"]),
                     "--embedder", "precomputed",
                     "--embeddings", str(index / "embeddings.jsonl"),
                     "--out", str(out)])
    if code != 0:
        assert code == 1
        assert any(at_fault in m for m in errors), errors
        assert not out.exists()
        return
    ids = [json.loads(line)["id"] for line in
           (work / NAMES["dataset"]).read_text().splitlines()]
    for name in ("answers.jsonl", "stats_summary.json", "config.json"):
        assert (out / name).is_file()
    assert sorted(p.name for p in (out / "traces").iterdir()) == \
        sorted(f"{qid}.json" for qid in ids)
    assert main(["eval", "--dataset", str(work / NAMES["dataset"]),
                 "--run", str(out)]) == 0
    assert (out / "report.json").is_file()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(targets())
def test_a_mutated_input_runs_or_is_refused_naming_its_file(target):
    work = Path(tempfile.mkdtemp())
    try:
        run_mutated(work, target)
    finally:
        shutil.rmtree(work)
