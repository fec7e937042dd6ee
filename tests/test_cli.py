"""Command-line workflows: ingest, run, eval."""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from revtree import ReviewDecision, render_mpc_output, render_review_output
from revtree import cli, embedding, fusion, llm, search
from revtree import corpus as corpus_module
from revtree.cli import main
from revtree.corpus import build_index, load_paragraphs
from revtree.errors import ProviderError


def write_jsonl(path: Path, rows) -> None:
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"id": "p1", "title": "Boston", "text": "boston is a city"},
        {"id": "p2", "title": "Census", "text": "census population figures"},
        {"id": "p3", "title": "Rivers", "text": "rivers flow to the sea"},
    ])
    return path


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_jsonl(path, [
        {"id": "q1", "question": "boston city", "gold_answers": ["Boston"],
         "gold_paragraph_ids": ["p1"]},
    ])
    return path


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.jsonl"
    accept = render_review_output(ReviewDecision.accept("it is Boston"))
    write_jsonl(path, [
        {"template": "fusion_evidence", "response": "The answer is Boston."},
        {"template": "fusion_paragraph", "response": "The answer is Boston."},
        {"default": accept},
    ])
    return path


def read_run_dir(out_dir: Path) -> dict:
    answers = [json.loads(line) for line in
               (out_dir / "answers.jsonl").read_text().splitlines() if line]
    return {
        "answers": answers,
        "config": json.loads((out_dir / "config.json").read_text()),
        "summary": json.loads((out_dir / "stats_summary.json").read_text()),
    }


class TestIngest:
    def test_writes_manifest_with_count(self, tmp_path, corpus_file):
        out = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus_file),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 3
        assert manifest["provider_id"].startswith("hashed:")
        assert manifest["corpus_sha256"] == \
            hashlib.sha256(corpus_file.read_bytes()).hexdigest()
        assert (out / "embeddings.jsonl").exists()

    def test_rerun_same_input_same_checksum(self, tmp_path, corpus_file):
        out1, out2 = tmp_path / "i1", tmp_path / "i2"
        main(["ingest", "--corpus", str(corpus_file), "--out", str(out1)])
        main(["ingest", "--corpus", str(corpus_file), "--out", str(out2)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["checksum"] == m2["checksum"]

    def test_corrupt_line_fails_with_line_number(self, tmp_path, caplog):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "title": "", "text": "fine"}\n{oops\n')
        out = tmp_path / "index"
        code = main(["ingest", "--corpus", str(bad), "--out", str(out)])
        assert code == 1
        assert "line 2" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("lines, extra, message", [
        (['{"id": "a", "text": "one"}', '{"id": "a", "text": "two"}'], [],
         "duplicate id 'a'"),
        (['{"id": "a", "title": "t", "text": "  "}'], [], "empty text"),
        (['{"id": "a", "text": "one"}'], ["--embedder", "remote"],
         "REVTREE_EMBED_BASE_URL"),
    ])
    def test_a_refused_ingest_leaves_no_output_directory(
            self, tmp_path, caplog, monkeypatch, lines, extra, message):
        for var in ("REVTREE_EMBED_BASE_URL", "REVTREE_EMBED_API_KEY",
                    "REVTREE_EMBED_MODEL"):
            monkeypatch.delenv(var, raising=False)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out),
                     *extra]) == 1
        assert message in caplog.text
        assert not out.exists()


class Lengths(embedding.EmbeddingProvider):
    """A deterministic embedder with no token table: ``text``'s vector is
    ``len(text) * [1, 2, ..., dim]``; it raises on batch ``fail_at`` (from
    1) if given, and gives ``bad[text]`` for the texts in ``bad``."""

    provider_id = "lengths"

    def __init__(self, dim=4, fail_at=None, bad=None):
        self.dim, self.fail_at, self.bad, self.batches = dim, fail_at, bad or {}, 0

    def embed_text(self, text):
        if text in self.bad:
            return np.full(self.dim, self.bad[text])
        return np.arange(1.0, self.dim + 1) * len(text)

    def embed_texts(self, texts):
        self.batches += 1
        if self.batches == self.fail_at:
            raise ProviderError(f"batch {self.batches} refused")
        return super().embed_texts(texts)


class Interrupted(Lengths):
    """Ctrl-C while the second batch is embedded."""

    def embed_texts(self, texts):
        if self.batches == 1:
            raise KeyboardInterrupt
        return super().embed_texts(texts)


class KillsTheHelper(Lengths):
    """Kills every child process with SIGKILL before the third batch."""

    def embed_texts(self, texts):
        if self.batches == 2:
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
        return super().embed_texts(texts)


def exit_at_once(ids, rows):
    """Stands in for the helper's line formatter: its process exits."""
    os._exit(1)


# Ctrl-C from a terminal reaches every process of its group, the ingest's
# helper too; here the ingest sends it to its own new group once the helper
# has returned a batch
SIGINT_PROBE = """
import multiprocessing, os, signal, sys, time
from revtree import cli, corpus, embedding

class SendsCtrlC(embedding.EmbeddingProvider):
    provider_id, dim, batches = "lengths", 4, 0

    def embed_text(self, text):
        return [float(len(text))] * 4

    def embed_texts(self, texts):
        self.batches += 1
        if self.batches == embedding._PENDING + 2:
            os.killpg(os.getpgrp(), signal.SIGINT)
            time.sleep(30)
        return super().embed_texts(texts)

corpus._EMBED_CHUNK = 2
cli._build_embedder = lambda *args: SendsCtrlC()
code = cli.main(["ingest", "--corpus", sys.argv[1], "--out", sys.argv[2]])
print(code, multiprocessing.active_children())
"""


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


class TestStreamedIngest:
    """``ingest`` writes each batch as it is embedded, under a temporary
    directory whose files are renamed into ``--out`` only once every batch
    is written and every row accepted."""

    @pytest.fixture
    def corpus9(self, tmp_path):
        corpus = tmp_path / "corpus9.jsonl"
        write_jsonl(corpus, [{"id": f"p{i}", "title": "", "text": "x" * (i + 1)}
                             for i in reversed(range(9))])
        return corpus

    def ingest(self, monkeypatch, corpus, out, provider, chunk=2):
        monkeypatch.setattr(cli, "_build_embedder", lambda *args: provider)
        monkeypatch.setattr(corpus_module, "_EMBED_CHUNK", chunk)
        return main(["ingest", "--corpus", str(corpus), "--out", str(out),
                     "--no-embed-title"])

    def test_the_manifest_holds_the_checksums_of_the_published_files(
            self, monkeypatch, tmp_path, corpus9):
        out = tmp_path / "index"
        assert self.ingest(monkeypatch, corpus9, out, Lengths()) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key, name in (("checksum", "embeddings.jsonl"),
                          ("matrix_sha256", "matrix.npy"), ("ids_sha256", "ids.json")):
            assert manifest[key] == hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert (manifest["count"], manifest["dim"]) == (9, 4)
        assert sorted(p.name for p in out.iterdir()) == [
            "embeddings.jsonl", "ids.json", "manifest.json", "matrix.npy"]
        assert np.load(out / "matrix.npy")[:, 0].tolist() == list(range(1, 10))

    def test_an_empty_index_loads(self, tmp_path, dataset_file, rules_file):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "index"
        assert main(["ingest", "--corpus", str(empty), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["count"], manifest["dim"]) == (0, None)
        stored = embedding.PrecomputedEmbeddings(
            out / "embeddings.jsonl", fallback=embedding.HashedEmbedder())
        assert stored.matrix.shape == (0, 0)
        assert len(build_index([], stored)) == 0
        # a run on it answers nothing, and says so
        code = main(run_args(empty, dataset_file, tmp_path / "run", rules_file,
                             "--embedder", "precomputed",
                             "--embeddings", str(out / "embeddings.jsonl")))
        assert code == 1

    def test_a_failed_batch_leaves_no_output_tree(self, monkeypatch, tmp_path,
                                                  caplog, corpus9):
        out = tmp_path / "new" / "index"
        assert self.ingest(monkeypatch, corpus9, out, Lengths(fail_at=2)) == 1
        assert "batch 2 refused" in caplog.text
        assert not (tmp_path / "new").exists()

    def test_an_interrupted_ingest_exits_130_and_leaves_no_output_tree(
            self, monkeypatch, tmp_path, caplog, corpus9):
        out = tmp_path / "new" / "index"
        assert self.ingest(monkeypatch, corpus9, out, Interrupted()) == 130
        assert caplog.messages[-1] == "interrupted"
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("cut, code, message", [
        ("refused", 1, "batch 2 refused"),
        ("interrupted", 130, "interrupted"),
        ("helper_exits", 1, "the helper process writing embeddings.jsonl died"),
        ("helper_killed", 1, "the helper process writing embeddings.jsonl died"),
    ])
    def test_a_cut_ingest_leaves_no_files_and_no_process(
            self, monkeypatch, tmp_path, caplog, capfd, corpus9, cut, code, message):
        provider = {"refused": Lengths(fail_at=2), "interrupted": Interrupted(),
                    "helper_exits": Lengths(), "helper_killed": KillsTheHelper()}[cut]
        if cut == "helper_exits":
            monkeypatch.setattr(embedding, "_format_lines", exit_at_once)
        submit, submitted = concurrent.futures.ProcessPoolExecutor.submit, []

        def counted_submit(executor, *args):
            submitted.append(args)
            return submit(executor, *args)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit",
                            counted_submit)
        out = tmp_path / "new" / "index"
        assert self.ingest(monkeypatch, corpus9, out, provider) == code
        # the helper was given a batch before the cut
        assert submitted
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in capfd.readouterr().err
        assert not (tmp_path / "new").exists()
        assert not list(tmp_path.rglob(".ingest-*"))
        assert multiprocessing.active_children() == []

    def test_ctrl_c_to_the_process_group_exits_130_without_a_traceback(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"id": f"p{i:02d}", "title": "", "text": "x" * (i + 1)}
                             for i in range(40)])
        out = tmp_path / "new" / "index"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", SIGINT_PROBE, str(corpus), str(out)], env=env,
            capture_output=True, text=True, timeout=60, start_new_session=True)
        assert result.stdout.split("\n")[0] == "130 []", result.stderr
        assert result.stderr == "ERROR revtree.cli: interrupted\n"
        assert not (tmp_path / "new").exists()

    def test_the_manifest_holds_the_hash_of_the_corpus_read(self, monkeypatch,
                                                             tmp_path, corpus9):
        read, original = cli.load_paragraphs, corpus9.read_bytes()

        def read_then_rewrite(path, *rest):
            paragraphs = read(path, *rest)
            corpus9.write_bytes(original.replace(b'"x"', b'"y"'))
            return paragraphs

        monkeypatch.setattr(cli, "load_paragraphs", read_then_rewrite)
        out = tmp_path / "index"
        assert self.ingest(monkeypatch, corpus9, out, Lengths()) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert corpus9.read_bytes() != original
        assert manifest["corpus_sha256"] == hashlib.sha256(original).hexdigest()

    def test_a_failed_ingest_into_an_index_leaves_its_files(self, monkeypatch,
                                                            tmp_path, corpus9):
        out = tmp_path / "index"
        assert self.ingest(monkeypatch, corpus9, out, Lengths()) == 0
        before = tree_bytes(out)
        assert self.ingest(monkeypatch, corpus9, out, Lengths(dim=3, fail_at=3)) == 1
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("bad, message", [
        # over the whole corpus, in id order, across batches; non-finite first
        ({"x": 0.0, "xxx": np.nan, "xxxxx": 0.0, "xxxxxxxx": np.inf},
         "non-finite embeddings for ids: ['p2', 'p7']"),
        # p1's norm underflows to 0, but its row is not all-zero
        ({"xx": 1e-300, **{text: 0.0 for text in
                           ("x", "xxx", "xxxx", "xxxxxx", "xxxxxxxx", "x" * 9)}},
         "all-zero embeddings for ids: ['p0', 'p2', 'p3', 'p5', 'p7']"),
    ])
    def test_rows_an_index_refuses_are_refused_with_its_message(
            self, monkeypatch, tmp_path, caplog, corpus9, bad, message):
        out = tmp_path / "index"
        assert self.ingest(monkeypatch, corpus9, out, Lengths(bad=bad)) == 1
        assert message in caplog.text
        assert not out.exists()

    def test_an_open_index_keeps_its_rows_across_a_reingest(self, monkeypatch,
                                                            tmp_path, corpus9):
        out = tmp_path / "index"
        assert self.ingest(monkeypatch, corpus9, out, Lengths()) == 0
        stored = embedding.PrecomputedEmbeddings(out / "embeddings.jsonl",
                                                 fallback=Lengths())
        old = np.array(stored.matrix)
        assert self.ingest(monkeypatch, corpus9, out, Lengths(bad={"x": 7.0})) == 0
        assert np.load(out / "matrix.npy")[0].tolist() == [7.0] * 4
        assert np.array_equal(stored.matrix, old)
        assert np.array_equal(build_index(load_paragraphs(corpus9), stored).matrix, old)

    def test_memory_peaks_below_one_matrix(self, monkeypatch, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"id": f"p{i:04d}", "title": f"T{i}",
                              "text": f"paragraph {i} of the corpus"} for i in range(2000)])
        provider = Lengths(dim=256)
        monkeypatch.setattr(cli, "_build_embedder", lambda *args: provider)
        tracemalloc.start()
        try:
            assert main(["ingest", "--corpus", str(corpus),
                         "--out", str(tmp_path / "index")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 256 * 8


class PromptSession:
    """Stands in for ``requests.Session`` behind ``RemoteChatProvider``.  Each
    post sleeps 1-3 ms and answers from the prompt text alone; ``peak`` is
    the most posts in flight at once."""

    def __init__(self):
        self.peak = 0
        self._inflight = 0
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
        prompt = json["messages"][0]["content"]
        roll = int.from_bytes(hashlib.blake2b(prompt.encode(), digest_size=8).digest(),
                              "big")
        time.sleep((1000 + roll % 2001) / 1e6)
        if "\nReferences: " in prompt:
            text = render_mpc_output(f"word{roll % 7} shared")
        elif "\nDocuments: " in prompt:
            text = render_review_output((
                ReviewDecision.accept(f"settled {roll % 97}"),
                ReviewDecision.reject("off topic"),
                ReviewDecision.search(f"word{roll % 5}"))[roll % 3])
        else:
            text = "The answer is x."
        with self._lock:
            self._inflight -= 1
        return PromptResponse({"choices": [{"message": {"content": text}}]})


class PromptResponse:
    status_code = 200

    def __init__(self, payload: dict):
        self._payload = payload

    def json(self) -> dict:
        return self._payload


def questions(**second) -> list[str]:
    """Three dataset lines; the second is ``q1`` with ``second`` over it."""
    good = {"id": "q0", "question": "boston city", "gold_answers": ["Boston"]}
    return [json.dumps(good), json.dumps({**good, "id": "q1", **second}),
            json.dumps({**good, "id": "q2"})]


def run_args(corpus, dataset, out, rules, *extra):
    return ["run", "--corpus", str(corpus), "--dataset", str(dataset),
            "--out", str(out), "--rules", str(rules), *extra]


class TestRun:
    def test_single_question_produces_files(self, tmp_path, corpus_file,
                                            dataset_file, rules_file):
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file)) == 0
        data = read_run_dir(out)
        assert data["answers"][0]["answer"] == "Boston"
        assert data["summary"]["completed"] == 1
        trace = json.loads((out / "traces" / "q1.json").read_text())
        assert trace["mode"] == "tor"
        assert trace["stats"]["api_calls"] >= 1

    @pytest.mark.parametrize("mode", ["tor", "cor", "oner"])
    def test_rerun_same_config_is_byte_identical(self, tmp_path, corpus_file,
                                                 dataset_file, rules_file, mode):
        out = tmp_path / "run"
        args = run_args(corpus_file, dataset_file, out, rules_file, "--mode", mode)
        assert main(args) == 0
        snapshot = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert main(args) == 0
        again = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert snapshot == again

    def test_rerun_from_resolved_config_reproduces(self, tmp_path, corpus_file,
                                                   dataset_file, rules_file):
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file)) == 0
        first = (out / "answers.jsonl").read_bytes()
        out2 = tmp_path / "run2"
        assert main(["run", "--config", str(out / "config.json"),
                     "--out", str(out2)]) == 0
        assert (out2 / "answers.jsonl").read_bytes() == first

    def test_oner_mode_uses_zero_review_calls(self, tmp_path, corpus_file,
                                              dataset_file, rules_file):
        out = tmp_path / "oner"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--mode", "oner", "--k", "2")) == 0
        record = read_run_dir(out)["answers"][0]
        assert record["stats"]["api_calls"] == 0
        assert record["fusion_calls"] == 1
        assert len(record["scored_ids"]) == 2
        trace = json.loads((out / "traces" / "q1.json").read_text())
        assert trace["mode"] == "oner"
        assert len(trace["evidence"][0]["path"]) == 2

    def test_summary_flags_scripted_runs_reproducible(self, tmp_path,
                                                      corpus_file, dataset_file,
                                                      rules_file):
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file)) == 0
        summary = read_run_dir(out)["summary"]
        assert summary["provider"] == "scripted"
        assert summary["reproducible"] is True

    def test_cor_mode_runs(self, tmp_path, corpus_file, dataset_file,
                           rules_file):
        out = tmp_path / "cor"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--mode", "cor")) == 0
        trace = json.loads((out / "traces" / "q1.json").read_text())
        assert trace["mode"] == "cor"
        assert trace["turns"][0]["decision"] == "accept"

    def test_per_question_failure_keeps_exit_zero(self, tmp_path, corpus_file):
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [
            {"id": "ok", "question": "boston city", "gold_answers": ["B"]},
            {"id": "bad", "question": "census figures", "gold_answers": ["B"]},
        ])
        # no default and no fusion rule for the second question: its answer
        # generation misses the oracle and fails that question alone
        rules = tmp_path / "partial_rules.jsonl"
        accept = render_review_output(ReviewDecision.accept("it is Boston"))
        write_jsonl(rules, [
            {"template": "review_cot", "response": accept},
            {"template": "fusion_evidence", "question": "boston city",
             "response": "The answer is Boston."},
        ])
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset, out, rules)) == 0
        data = read_run_dir(out)
        by_id = {r["id"]: r for r in data["answers"]}
        assert "error" in by_id["bad"]
        assert "error" not in by_id["ok"]
        assert data["summary"]["failed"] == 1

    def test_no_completed_question_exits_one(self, tmp_path, corpus_file):
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [
            {"id": "a", "question": "boston city", "gold_answers": ["B"]},
            {"id": "b", "question": "census figures", "gold_answers": ["B"]},
        ])
        # no fusion rule and no default: every answer generation fails
        rules = tmp_path / "no_fusion.jsonl"
        accept = render_review_output(ReviewDecision.accept("it is Boston"))
        write_jsonl(rules, [{"template": "review_cot", "response": accept}])
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset, out, rules)) == 1
        summary = read_run_dir(out)["summary"]
        assert summary["failed"] == summary["n"] == 2
        assert summary["completed"] == 0

    def test_summary_totals_provider_failures(self, tmp_path, corpus_file):
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [
            {"id": "a", "question": "boston city", "gold_answers": ["B"]},
            {"id": "b", "question": "census figures", "gold_answers": ["B"]},
        ])
        # no review rule and no default: each of the three layer-1 reviews
        # misses the oracle, is counted, and the question still completes
        rules = tmp_path / "fusion_only.jsonl"
        write_jsonl(rules, [{"template": "fusion_evidence",
                             "response": "The answer is Boston."}])
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset, out, rules)) == 0
        data = read_run_dir(out)
        assert data["summary"]["completed"] == 2
        assert [r["stats"]["provider_failures"] for r in data["answers"]] == [3, 3]
        assert data["summary"]["total_provider_failures"] == 6
        # a failed review reads the same in a tree node and a chain turn
        chain = tmp_path / "chain"
        assert main(run_args(corpus_file, dataset, chain, rules, "--mode", "cor")) == 0
        for qid in ("a", "b"):
            nodes = json.loads((out / "traces" / f"{qid}.json").read_text())["nodes"]
            turns = json.loads((chain / "traces" / f"{qid}.json").read_text())["turns"]
            assert len(nodes) == 3 and len(turns) == 1
            for record in nodes + turns:
                assert record["decision"] == "provider_failure"
                assert record["parse_reason"].startswith("provider failure: ")
                assert record["call_index"] is None
            assert all(n["supported"] is None for n in nodes)
        assert read_run_dir(chain)["summary"]["total_provider_failures"] == 2

    def test_parallel_runs_match_serial(self, tmp_path, corpus_file, rules_file):
        dataset = tmp_path / "many.jsonl"
        write_jsonl(dataset, [
            {"id": f"q{i}", "question": f"boston city {i}", "gold_answers": ["B"]}
            for i in range(4)
        ])
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(run_args(corpus_file, dataset, serial, rules_file)) == 0
        assert main(run_args(corpus_file, dataset, parallel, rules_file,
                             "--parallel", "3")) == 0
        assert (serial / "answers.jsonl").read_bytes() == \
            (parallel / "answers.jsonl").read_bytes()

    def test_remote_runs_match_serial_runs(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"id": f"p{i:02d}", "title": f"T{i}",
                              "text": f"word{i % 7} word{i % 5} shared"}
                             for i in range(20)])
        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"word{i} shared",
                               "gold_answers": ["x"]} for i in range(4)])
        for var in (llm.LLM_BASE_URL_VAR, llm.LLM_API_KEY_VAR, llm.LLM_MODEL_VAR):
            monkeypatch.setenv(var, "https://llm.example/v1")
        sessions, pool_sizes = [], []

        def new_session(pool_size):
            pool_sizes.append(pool_size)
            sessions.append(PromptSession())
            return sessions[-1]

        monkeypatch.setattr(llm, "new_session", new_session)
        outputs = {}
        for name, order_free, extra in (("serial", False, ()),
                                        ("overlapped", True, ()),
                                        ("parallel", True, ("--parallel", "2"))):
            monkeypatch.setattr(llm.RemoteChatProvider, "order_free", order_free)
            out = tmp_path / name
            assert main(["run", "--corpus", str(corpus), "--dataset", str(dataset),
                         "--out", str(out), "--provider", "remote", *extra]) == 0
            files = [out / "answers.jsonl", out / "stats_summary.json",
                     *sorted((out / "traces").iterdir())]
            outputs[name] = {f.relative_to(out).as_posix(): f.read_bytes()
                             for f in files}
        assert outputs["overlapped"] == outputs["serial"]
        assert outputs["parallel"] == outputs["serial"]
        # in flight at once: one call serially, up to the widest layer's
        # reviews per question overlapped
        serial, overlapped, parallel = (s.peak for s in sessions)
        assert serial == 1 and 1 < overlapped <= 5 and parallel <= 2 * 5
        # the connection pool covers every post that can be in flight
        assert pool_sizes == [5, 5, 2 * 5]
        decisions = {n["decision"] for name, data in outputs["serial"].items()
                     if name.startswith("traces/")
                     for n in json.loads(data)["nodes"]}
        assert {"accept", "reject", "search"} <= decisions

    def test_scripted_provider_requires_rules(self, tmp_path, corpus_file,
                                              dataset_file):
        out = tmp_path / "run"
        code = main(["run", "--corpus", str(corpus_file), "--dataset",
                     str(dataset_file), "--out", str(out)])
        assert code == 1

    def test_run_with_precomputed_embeddings(self, tmp_path, corpus_file,
                                             dataset_file, rules_file):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus_file),
                     "--out", str(index_dir)]) == 0
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--embedder", "precomputed", "--embeddings",
                             str(index_dir / "embeddings.jsonl"))) == 0
        baseline = tmp_path / "baseline"
        assert main(run_args(corpus_file, dataset_file, baseline,
                             rules_file)) == 0
        # hashed-at-ingest vectors + hashed query fallback reproduce the
        # all-hashed run exactly
        assert (out / "answers.jsonl").read_bytes() == \
            (baseline / "answers.jsonl").read_bytes()

    def test_dim_mismatch_fails_before_the_first_question(self, tmp_path,
                                                          corpus_file,
                                                          dataset_file,
                                                          rules_file):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus_file), "--out",
                     str(index_dir), "--dim", "32"]) == 0
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--embedder", "precomputed", "--embeddings",
                             str(index_dir / "embeddings.jsonl"),
                             "--dim", "64")) == 1
        assert not out.exists()

    def test_manifest_seed_mismatch_fails_before_the_first_question(
            self, tmp_path, corpus_file, dataset_file, rules_file, caplog):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus_file), "--out",
                     str(index_dir), "--seed", "1"]) == 0
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--embedder", "precomputed", "--embeddings",
                             str(index_dir / "embeddings.jsonl"),
                             "--seed", "0")) == 1
        assert not out.exists()
        assert "hashed:dim=64,seed=1" in caplog.text

    def test_a_corpus_edited_since_ingest_fails_before_the_first_question(
            self, tmp_path, dataset_file, rules_file, caplog, monkeypatch):
        corpus = tmp_path / "corpus30.jsonl"
        rows = [{"id": f"p{i:02d}", "title": f"T{i}", "text": f"boston city fact {i}"}
                for i in range(30)]
        write_jsonl(corpus, rows)
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index_dir)]) == 0
        # one paragraph's text changes and another is dropped
        rows[4] = dict(rows[4], text="a different fact")
        del rows[17]
        write_jsonl(corpus, rows)

        def build_index(*args, **kwargs):
            raise AssertionError("the run built its index")

        monkeypatch.setattr("revtree.cli.build_index", build_index)
        out = tmp_path / "run"
        assert main(run_args(corpus, dataset_file, out, rules_file,
                             "--embedder", "precomputed", "--embeddings",
                             str(index_dir / "embeddings.jsonl"))) == 1
        assert not out.exists()
        assert f"{corpus} is not the corpus" in caplog.text

    @pytest.mark.parametrize("mode", ["tor", "cor", "oner"])
    def test_run_in_which_no_retrieval_succeeded_exits_one(
            self, tmp_path, corpus_file, dataset_file, rules_file, monkeypatch, mode):
        def failing_retrieve(*args, **kwargs):
            raise RuntimeError("retrieval is down")

        monkeypatch.setattr("revtree.search.retrieve", failing_retrieve)
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--mode", mode)) == 1
        data = read_run_dir(out)
        assert data["summary"]["completed"] == data["summary"]["n"] == 1
        assert data["answers"][0]["stats"]["distinct_docs"] == 0
        assert (out / "traces" / "q1.json").exists()

    def test_run_with_demos_dir(self, tmp_path, corpus_file, dataset_file,
                                rules_file):
        demos_dir = tmp_path / "demos"
        demos_dir.mkdir()
        (demos_dir / "review.txt").write_text("a worked example\n---\nanother\n")
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--demos-dir", str(demos_dir))) == 0
        data = read_run_dir(out)
        assert data["answers"][0]["answer"] == "Boston"
        assert data["config"]["demos_dir"] == str(demos_dir)

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_a_failed_allocation_exits_one_without_a_traceback(
            self, tmp_path, corpus_file, dataset_file, rules_file, caplog,
            monkeypatch, command):
        # what a huge --dim raised from the first batch, made without the
        # allocation
        def embed_texts(self, texts):
            raise MemoryError("Unable to allocate 14.9 GiB for an array with "
                              "shape (20, 100000000) and data type float64")

        monkeypatch.setattr(embedding.HashedEmbedder, "embed_texts", embed_texts)
        out = tmp_path / "out"
        args = (["ingest", "--corpus", str(corpus_file), "--out", str(out)]
                if command == "ingest" else
                run_args(corpus_file, dataset_file, out, rules_file))
        assert main(args) == 1
        assert "out of memory: Unable to allocate 14.9 GiB" in caplog.text
        assert not out.exists()


    @pytest.mark.parametrize("widths,distinct,scored,failures", [
        # under the limit nothing is re-ranked, so the blank response is moot
        ("2", 2, 2, 0),
        # over it, re-ranking falls back to acceptance order, cut to 15
        ("20", 20, 15, 1),
    ])
    def test_blank_fusion_response_does_not_fail_the_question(
            self, tmp_path, widths, distinct, scored, failures):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"id": f"p{i:02d}", "title": "",
                              "text": f"boston word{i}"} for i in range(20)])
        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(dataset, [{"id": "q1", "question": "boston city",
                               "gold_answers": ["Boston"]}])
        rules = tmp_path / "rules.jsonl"
        write_jsonl(rules, [
            {"template": "fusion_evidence", "response": " "},
            {"default": render_review_output(ReviewDecision.accept("it is Boston"))},
        ])
        out = tmp_path / "run"
        assert main(run_args(corpus, dataset, out, rules, "--widths", widths)) == 0
        data = read_run_dir(out)
        record = data["answers"][0]
        assert "error" not in record and record["full_response"] == " "
        trace = json.loads((out / "traces" / "q1.json").read_text())
        accepted = [e["path"][0] for e in trace["evidence"]]
        assert len(accepted) == distinct
        assert record["scored_ids"] == accepted[:scored]
        assert record["stats"]["provider_failures"] == failures
        assert trace["stats"]["provider_failures"] == failures
        assert data["summary"]["total_provider_failures"] == failures
        assert data["summary"]["failed"] == 0


class TestBinaryIndex:
    """``ingest`` writes the index's matrix and ids beside
    ``embeddings.jsonl``; ``run --embedder precomputed`` loads them, once
    the manifest's checksums of both match, and never parses the file."""

    @pytest.fixture
    def corpus30(self, tmp_path):
        corpus = tmp_path / "corpus30.jsonl"
        # written out of id order: the stored rows are in ascending-id order
        write_jsonl(corpus, [{"id": f"p{i:02d}", "title": f"T{i}",
                              "text": f"boston city fact {i} river {i % 7}"}
                             for i in reversed(range(30))])
        return corpus

    @pytest.fixture
    def index_dir(self, tmp_path, corpus30):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus30), "--out", str(index_dir)]) == 0
        return index_dir

    @pytest.fixture
    def questions(self, tmp_path):
        dataset = tmp_path / "questions.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"boston fact {i} river",
                               "gold_answers": ["Boston"]} for i in range(6)])
        return dataset

    def run_precomputed(self, tmp_path, corpus, dataset, rules, index_dir, name):
        out = tmp_path / name
        code = main(run_args(corpus, dataset, out, rules, "--embedder", "precomputed",
                             "--embeddings", str(index_dir / "embeddings.jsonl")))
        return code, out

    @staticmethod
    def edit_manifest(index_dir, **changes):
        path = index_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(changes)
        path.write_text(json.dumps({k: v for k, v in manifest.items() if v is not None}))

    def test_ingest_writes_the_matrix_and_ids_with_their_checksums(self, index_dir):
        manifest = json.loads((index_dir / "manifest.json").read_text())
        for key, name in (("matrix_sha256", "matrix.npy"), ("ids_sha256", "ids.json")):
            assert manifest[key] == hashlib.sha256(
                (index_dir / name).read_bytes()).hexdigest()
        ids = json.loads((index_dir / "ids.json").read_text())
        assert ids == [f"p{i:02d}" for i in range(30)]
        records = [json.loads(line) for line in
                   (index_dir / "embeddings.jsonl").read_text().splitlines()]
        assert [r["id"] for r in records] == ids
        matrix = np.load(index_dir / "matrix.npy", allow_pickle=False)
        assert matrix.dtype == np.float64 and matrix.shape == (30, 64)
        parsed = np.array([r["values"] for r in records], dtype=np.float64)
        assert np.array_equal(matrix.view(np.uint64), parsed.view(np.uint64))

    @pytest.mark.parametrize("rewritten", ["before_its_read", "after_its_read"])
    def test_a_run_serves_the_corpus_text_it_hashed_or_none(
            self, monkeypatch, tmp_path, caplog, corpus30, questions, rules_file,
            index_dir, rewritten):
        read, build, indexes = cli.load_paragraphs, cli.build_index, []
        original = corpus30.read_bytes()

        def rewrite():
            corpus30.write_bytes(original.replace(b"fact 7 river", b"fact seven river"))

        def read_once(path, *rest):
            if rewritten == "before_its_read":
                rewrite()
            paragraphs = read(path, *rest)
            if rewritten == "after_its_read":
                rewrite()
            return paragraphs

        def kept(*args, **kwargs):
            indexes.append(build(*args, **kwargs))
            return indexes[-1]

        monkeypatch.setattr(cli, "load_paragraphs", read_once)
        monkeypatch.setattr(cli, "build_index", kept)
        code, out = self.run_precomputed(tmp_path, corpus30, questions, rules_file,
                                         index_dir, "run")
        assert corpus30.read_bytes() != original
        if rewritten == "before_its_read":
            assert code == 1
            assert f"{corpus30} is not the corpus" in caplog.text
            assert not out.exists()
        else:
            assert code == 0
            assert indexes[0].get("p07").text == "boston city fact 7 river 0"

    def test_run_reads_no_jsonl(self, tmp_path, corpus30, questions, rules_file,
                                index_dir):
        (index_dir / "embeddings.jsonl").write_bytes(b"\x00 not json {\n")
        code, stored = self.run_precomputed(tmp_path, corpus30, questions,
                                            rules_file, index_dir, "stored")
        assert code == 0
        hashed = tmp_path / "hashed"
        assert main(run_args(corpus30, questions, hashed, rules_file)) == 0
        outputs = [{p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                    if p.is_file() and p.name != "config.json"}
                   for out in (stored, hashed)]
        assert outputs[0] == outputs[1]
        assert len([p for p in outputs[0] if p.parts[0] == "traces"]) == 6

    @pytest.mark.parametrize("tamper, message", [
        ("matrix_bytes", "matrix.npy does not match the checksum"),
        ("ids_bytes", "ids.json does not match the checksum"),
        ("float32", "holds a float32 array of shape (30, 64)"),
        ("short", "of shape (29, 64), not a float64 matrix"),
        ("flat", "of shape (1920,), not a float64 matrix"),
        ("corpus_ids", "sorted paragraph ids differ from the 30 ids stored"),
    ])
    def test_a_stored_index_that_does_not_fit_fails_before_the_first_question(
            self, tmp_path, caplog, corpus30, questions, rules_file, index_dir,
            tamper, message):
        matrix_path = index_dir / "matrix.npy"
        matrix = np.load(matrix_path)
        corpus = corpus30
        if tamper == "matrix_bytes":
            data = bytearray(matrix_path.read_bytes())
            data[-3] ^= 1  # a low bit of the last value: still a valid file
            matrix_path.write_bytes(bytes(data))
        elif tamper == "ids_bytes":
            ids = json.loads((index_dir / "ids.json").read_text())
            (index_dir / "ids.json").write_text(json.dumps(ids[1:] + ["p99"]))
        elif tamper == "corpus_ids":
            # a corpus of other ids whose sha256 the manifest records
            rows = [json.loads(line) for line in corpus30.read_text().splitlines()]
            rows[0]["id"] = "p99"
            corpus = tmp_path / "other_ids.jsonl"
            write_jsonl(corpus, rows)
            self.edit_manifest(index_dir, corpus_sha256=hashlib.sha256(
                corpus.read_bytes()).hexdigest())
        else:
            np.save(matrix_path, {"float32": matrix.astype(np.float32),
                                  "short": matrix[:-1],
                                  "flat": matrix.ravel()}[tamper])
            self.edit_manifest(index_dir, matrix_sha256=hashlib.sha256(
                matrix_path.read_bytes()).hexdigest())
        code, out = self.run_precomputed(tmp_path, corpus, questions, rules_file,
                                         index_dir, "run")
        assert code == 1
        assert not out.exists()
        assert message in caplog.text

    @pytest.mark.parametrize("layout", ["trailing_bytes", "fortran_order"])
    def test_a_matrix_file_other_than_the_saved_rows_is_refused(
            self, tmp_path, caplog, corpus30, questions, rules_file, index_dir, layout):
        # either file loads the ingested rows, but is not the file ingest wrote
        matrix_path = index_dir / "matrix.npy"
        if layout == "trailing_bytes":
            with open(matrix_path, "ab") as handle:
                handle.write(b"\0" * 8)
        else:
            np.save(matrix_path, np.asfortranarray(np.load(matrix_path)))
        code, out = self.run_precomputed(tmp_path, corpus30, questions, rules_file,
                                         index_dir, "run")
        assert code == 1
        assert not out.exists()
        assert "matrix.npy does not match the checksum" in caplog.text

    def test_an_index_published_between_its_manifest_and_its_load_is_refused(
            self, monkeypatch, tmp_path, caplog, corpus30, questions, rules_file,
            index_dir):
        load = embedding.PrecomputedEmbeddings.__init__

        def reingest_then_load(stored, *args, **kwargs):
            # the rows of another seed are published over the index whose
            # manifest the run has read
            assert main(["ingest", "--corpus", str(corpus30), "--out", str(index_dir),
                         "--seed", "1"]) == 0
            load(stored, *args, **kwargs)

        monkeypatch.setattr(embedding.PrecomputedEmbeddings, "__init__", reingest_then_load)
        code, out = self.run_precomputed(tmp_path, corpus30, questions, rules_file,
                                         index_dir, "run")
        assert code == 1
        assert not out.exists()
        assert f"{index_dir / 'matrix.npy'} does not match the checksum in " \
            f"{index_dir / 'manifest.json'}" in caplog.text

    def test_a_remotely_embedded_index_runs_with_remote_queries(
            self, monkeypatch, tmp_path, corpus30, questions, rules_file):
        for var in ("REVTREE_EMBED_BASE_URL", "REVTREE_EMBED_API_KEY",
                    "REVTREE_EMBED_MODEL"):
            monkeypatch.setenv(var, "m")
        hashed = embedding.HashedEmbedder(dim=8)
        posted = []

        class Service:
            def post(self, url, json, **kwargs):
                posted.extend(json["input"])
                rows = hashed.embed_texts(json["input"]).tolist()
                return PromptResponse({"data": [{"embedding": row} for row in rows]})

        monkeypatch.setattr(embedding, "new_session", Service)
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus30), "--out", str(index_dir),
                     "--embedder", "remote"]) == 0
        assert json.loads((index_dir / "manifest.json").read_text())["provider_id"] \
            == "remote:m"
        del posted[:]
        code, out = self.run_precomputed(tmp_path, corpus30, questions, rules_file,
                                         index_dir, "run")
        assert code == 0
        assert {f"boston fact {i} river" for i in range(6)} <= set(posted)


class TestReRankingFromStoredRows:
    """Re-ranking continues each evidence's fold from its first paragraph's
    index row only when the rows are the query embedder's vectors of
    ``format_documents([p])``; the answers are those of embedding whole
    evidence texts either way."""

    @pytest.fixture
    def corpus30(self, tmp_path):
        corpus = tmp_path / "corpus30.jsonl"
        write_jsonl(corpus, [{"id": f"p{i:02d}", "title": f"T{i % 4}",
                              "text": f"word{i} shared fact {i % 7}"} for i in range(30)])
        return corpus

    @pytest.fixture
    def questions(self, tmp_path):
        dataset = tmp_path / "questions.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"word{i} shared",
                               "gold_answers": ["x"]} for i in range(4)])
        return dataset

    @pytest.fixture
    def accept_rules(self, tmp_path):
        # every review accepts, so each pool holds 20 paragraphs and is re-ranked
        rules = tmp_path / "accept.jsonl"
        write_jsonl(rules, [
            {"template": "fusion_evidence", "response": "The answer is fact 3."},
            {"default": render_review_output(ReviewDecision.accept("it is fact 5"))},
        ])
        return rules

    def ingest(self, tmp_path, corpus, *extra):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(index_dir),
                     *extra]) == 0
        return index_dir

    def answers(self, monkeypatch, tmp_path, corpus, dataset, rules, *extra,
                reuse: bool = True) -> tuple[bytes, int]:
        """A run's answers and the number of continue_folds calls it made;
        without ``reuse`` every evidence text is embedded whole."""
        calls = []
        continue_folds = embedding.HashedEmbedder.continue_folds

        def spy(self, starts, texts):
            calls.append(len(texts))
            return continue_folds(self, starts, texts)

        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        with monkeypatch.context() as patch:
            patch.setattr(embedding.HashedEmbedder, "continue_folds", spy)
            if not reuse:
                patch.setattr(fusion, "_first_document_rows", lambda *args: None)
            assert main(run_args(corpus, dataset, out, rules, "--widths", "20",
                                 *extra)) == 0
        answers = (out / "answers.jsonl").read_bytes()
        assert all(len(json.loads(line)["scored_ids"]) == 15
                   for line in answers.splitlines())
        return answers, len(calls)

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_stored_rows_give_the_answers_of_whole_texts(
            self, tmp_path, monkeypatch, corpus30, questions, accept_rules, precomputed):
        extra = ()
        if precomputed:
            index_dir = self.ingest(tmp_path, corpus30)
            extra = ("--embedder", "precomputed",
                     "--embeddings", str(index_dir / "embeddings.jsonl"))
        reused, calls = self.answers(monkeypatch, tmp_path, corpus30, questions,
                                     accept_rules, *extra)
        assert calls == 4
        whole, _ = self.answers(monkeypatch, tmp_path, corpus30, questions,
                                accept_rules, *extra, reuse=False)
        assert reused == whole

    @pytest.mark.parametrize("case", ["ingest_no_title", "run_no_title"])
    def test_rows_that_may_be_other_vectors_are_not_reused(
            self, tmp_path, monkeypatch, corpus30, questions, accept_rules, case):
        if case == "run_no_title":
            extra = ("--embedder", "hashed", "--no-embed-title")
        else:
            index_dir = self.ingest(tmp_path, corpus30, "--no-embed-title")
            extra = ("--embedder", "precomputed", "--no-embed-title",
                     "--embeddings", str(index_dir / "embeddings.jsonl"))
        answers, calls = self.answers(monkeypatch, tmp_path, corpus30, questions,
                                      accept_rules, *extra)
        assert calls == 0
        assert answers == self.answers(monkeypatch, tmp_path, corpus30, questions,
                                       accept_rules, *extra, reuse=False)[0]

    @pytest.mark.parametrize("manifest, message", [
        (None, "is missing: stored vectors are read only from"),
        (b"{not json", "is not JSON"),
        (b"[]", "does not hold a JSON object"),
        (b'"text"', "does not hold a JSON object"),
        ({"provider_id": 5}, "provider_id must be a string, got 5"),
        ({"embed_title": "yes"}, "embed_title must be true or false, got 'yes'"),
        ({"embed_title": 1}, "embed_title must be true or false, got 1"),
        ({"corpus_sha256": 7}, "corpus_sha256 must be a string, got 7"),
        # a field set to None is removed from the manifest
        ({"provider_id": None}, "provider_id is missing"),
        ({"embed_title": None}, "embed_title is missing"),
        ({"corpus_sha256": None}, "corpus_sha256 is missing"),
        ({"matrix_sha256": None}, "matrix_sha256 is missing"),
        ({"ids_sha256": None}, "ids_sha256 is missing"),
    ])
    def test_a_malformed_manifest_fails_before_the_first_question(
            self, tmp_path, caplog, corpus30, questions, accept_rules, manifest,
            message):
        index_dir = self.ingest(tmp_path, corpus30)
        manifest_path = index_dir / "manifest.json"
        if manifest is None:
            manifest_path.unlink()
        elif isinstance(manifest, bytes):
            manifest_path.write_bytes(manifest)
        else:
            TestBinaryIndex.edit_manifest(index_dir, **manifest)
        out = tmp_path / "run"
        assert main(run_args(corpus30, questions, out, accept_rules,
                             "--embedder", "precomputed",
                             "--embeddings", str(index_dir / "embeddings.jsonl"))) == 1
        assert not out.exists()
        assert f"{manifest_path}" in caplog.text
        assert message in caplog.text

    @pytest.mark.parametrize("ingest_flags, run_flags, stored, run", [
        (("--no-embed-title",), (), "False", "True"),
        ((), ("--no-embed-title",), "True", "False"),
    ])
    def test_an_embed_title_other_than_the_ingests_fails_before_the_first_question(
            self, tmp_path, caplog, corpus30, questions, accept_rules, ingest_flags,
            run_flags, stored, run):
        index_dir = self.ingest(tmp_path, corpus30, *ingest_flags)
        out = tmp_path / "run"
        assert main(run_args(corpus30, questions, out, accept_rules,
                             "--embedder", "precomputed", *run_flags,
                             "--embeddings", str(index_dir / "embeddings.jsonl"))) == 1
        assert not out.exists()
        assert f"with embed_title {stored} (per {index_dir / 'manifest.json'}), " \
            f"but the run has embed_title {run}" in caplog.text


class TestStreamedRun:
    """``run`` keeps at most two unwritten questions per worker, and writes
    what a run that kept them all would."""

    @pytest.fixture
    def sixty(self, tmp_path):
        dataset = tmp_path / "sixty.jsonl"
        write_jsonl(dataset, [{"id": f"q{i:02d}", "question": f"boston city {i}",
                               "gold_answers": ["Boston"]} for i in range(60)])
        return dataset

    def run_watched(self, tmp_path, monkeypatch, corpus, dataset, rules, parallel):
        """Run with every returned trace watched by a weakref; at each trace
        write, the number of watched traces still alive is noted.  Questions
        q07 and q33 raise, and the others finish out of dataset order."""
        traces, alive_at_write = [], []
        run_one, to_json = cli._run_one, search.RunTrace.to_json

        def watched_run_one(example, *args):
            if example.id in ("q07", "q33"):
                raise RuntimeError(f"{example.id} is down")
            record, trace = run_one(example, *args)
            traces.append(weakref.ref(trace))
            time.sleep(int(example.id[1:]) % 3 / 1000)
            return record, trace

        def watched_to_json(trace):
            alive_at_write.append(sum(ref() is not None for ref in traces))
            return to_json(trace)

        monkeypatch.setattr(cli, "_run_one", watched_run_one)
        monkeypatch.setattr(search.RunTrace, "to_json", watched_to_json)
        out = tmp_path / f"parallel{parallel}"
        # only reference counting frees a trace here
        gc.disable()
        try:
            assert main(run_args(corpus, dataset, out, rules,
                                 "--parallel", str(parallel))) == 0
        finally:
            gc.enable()
        assert len(alive_at_write) == 58
        assert max(alive_at_write) <= 2 * parallel, str(alive_at_write)
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "config.json"}

    def test_memory_stays_bounded_and_outputs_keep_their_bytes(
            self, tmp_path, monkeypatch, corpus_file, rules_file, sixty):
        serial = self.run_watched(tmp_path, monkeypatch, corpus_file, sixty,
                                  rules_file, 1)
        parallel = self.run_watched(tmp_path, monkeypatch, corpus_file, sixty,
                                    rules_file, 3)
        assert serial == parallel
        answers = [json.loads(line) for line in
                   serial[Path("answers.jsonl")].decode().splitlines()]
        assert [r["id"] for r in answers] == [f"q{i:02d}" for i in range(60)]
        assert answers[7] == {"id": "q07", "error": "q07 is down"}
        assert answers[33] == {"id": "q33", "error": "q33 is down"}
        assert len([p for p in serial if p.parts[0] == "traces"]) == 58
        summary = json.loads(serial[Path("stats_summary.json")])
        assert (summary["completed"], summary["failed"]) == (58, 2)

    @pytest.fixture
    def six(self, tmp_path):
        dataset = tmp_path / "six.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"boston city {i}",
                               "gold_answers": ["Boston"]} for i in range(1, 7)])
        return dataset

    def assert_cut_at(self, cut: Path, whole: Path, question: int) -> None:
        """``cut`` holds the answers and traces of the questions before
        ``question``, and the config of ``whole`` in all but its directory."""
        lines = (whole / "answers.jsonl").read_bytes().splitlines(keepends=True)
        assert (cut / "answers.jsonl").read_bytes() == b"".join(lines[:question - 1])
        assert sorted(p.name for p in (cut / "traces").iterdir()) == \
            [f"q{i}.json" for i in range(1, question)]
        config, want = (json.loads((run / "config.json").read_text())
                        for run in (cut, whole))
        assert config.pop("output_dir") == str(cut)
        want.pop("output_dir")
        assert config == want
        assert not (cut / "stats_summary.json").exists()

    @pytest.mark.parametrize("parallel", [1, 3])
    # with 12 questions, questions past the window are still queued when the
    # trace write fails
    @pytest.mark.parametrize("count, failing", [(5, 3), (12, 4)])
    def test_a_failed_trace_write_keeps_the_earlier_answers(
            self, tmp_path, monkeypatch, caplog, corpus_file, rules_file, parallel,
            count, failing):
        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(dataset, [{"id": f"q{i}", "question": f"boston city {i}",
                               "gold_answers": ["Boston"]} for i in range(1, count + 1)])
        whole = tmp_path / "whole"
        assert main(run_args(corpus_file, dataset, whole, rules_file,
                             "--parallel", str(parallel))) == 0
        to_json, run_one = search.RunTrace.to_json, cli._run_one
        shutdown = concurrent.futures.ThreadPoolExecutor.shutdown
        entered, release = [], threading.Event()

        def failing_to_json(trace):
            if trace.question == f"boston city {failing}":
                raise OSError("disk full")
            return to_json(trace)

        def held_run_one(example, *args):
            # a question past the failing one holds its worker until the run
            # shuts down, so that no worker is free for a queued question
            # before the cut
            entered.append(example.id)
            if int(example.id[1:]) > failing:
                assert release.wait(30)
            return run_one(example, *args)

        def releasing_shutdown(self, wait=True, *, cancel_futures=False):
            shutdown(self, wait=False, cancel_futures=cancel_futures)
            release.set()
            shutdown(self, wait=wait)

        monkeypatch.setattr(search.RunTrace, "to_json", failing_to_json)
        monkeypatch.setattr(cli, "_run_one", held_run_one)
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown",
                            releasing_shutdown)
        cut = tmp_path / "cut"
        assert main(run_args(corpus_file, dataset, cut, rules_file,
                             "--parallel", str(parallel))) == 1
        assert "disk full" in caplog.text
        self.assert_cut_at(cut, whole, failing)
        # only the questions running at the cut finish; the queued ones are
        # cancelled
        assert len(entered) <= failing + parallel, entered

    def test_a_killed_run_keeps_its_config_and_each_answer_it_wrote(
            self, tmp_path, corpus_file, rules_file, six):
        whole = tmp_path / "whole"
        assert main(run_args(corpus_file, six, whole, rules_file)) == 0
        cut = tmp_path / "cut"
        root = Path(__file__).resolve().parent.parent
        child = subprocess.Popen(
            [sys.executable, "-c", BLOCKED_RUN, "q4",
             *run_args(corpus_file, six, cut, rules_file, "--parallel", "1")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        answers = cut / "answers.jsonl"
        try:
            # q4 blocks, so the run stops with three records written
            deadline = time.monotonic() + 60
            while not answers.exists() or answers.read_bytes().count(b"\n") < 3:
                assert child.poll() is None, "the run ended before it was killed"
                assert time.monotonic() < deadline, "three answers never reached the file"
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait(timeout=30)
        self.assert_cut_at(cut, whole, 4)

    @pytest.mark.parametrize("parallel", [1, 3])
    def test_an_interrupt_keeps_the_earlier_answers_and_exits_130(
            self, tmp_path, monkeypatch, caplog, capsys, corpus_file, rules_file,
            six, parallel):
        whole = tmp_path / "whole"
        assert main(run_args(corpus_file, six, whole, rules_file,
                             "--parallel", str(parallel))) == 0
        run_one = cli._run_one

        def interrupted_run_one(example, *args):
            if example.id == "q4":
                raise KeyboardInterrupt
            return run_one(example, *args)

        monkeypatch.setattr(cli, "_run_one", interrupted_run_one)
        cut = tmp_path / "cut"
        assert main(run_args(corpus_file, six, cut, rules_file,
                             "--parallel", str(parallel))) == 130
        self.assert_cut_at(cut, whole, 4)
        assert caplog.messages[-1] == "interrupted"
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    def run_and_eval(self, corpus, dataset, out, rules) -> None:
        assert main(run_args(corpus, dataset, out, rules)) == 0
        assert main(["eval", "--dataset", str(dataset), "--run", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_a_rerun_with_fewer_questions_leaves_only_its_own_outputs(
            self, tmp_path, corpus_file, rules_file, six):
        out = tmp_path / "run"
        self.run_and_eval(corpus_file, six, out, rules_file)
        three = tmp_path / "three.jsonl"
        three.write_bytes(b"".join(six.read_bytes().splitlines(keepends=True)[:3]))
        # a rerun refused before its first question leaves the earlier run
        before = tree_bytes(out)
        assert main(run_args(corpus_file, three, out, rules_file, "--budget", "1")) == 1
        assert tree_bytes(out) == before
        assert main(run_args(corpus_file, three, out, rules_file)) == 0
        alone = tmp_path / "alone"
        assert main(run_args(corpus_file, three, alone, rules_file)) == 0
        rerun, fresh = tree_bytes(out), tree_bytes(alone)
        for run_dir, files in ((out, rerun), (alone, fresh)):
            assert json.loads(files.pop(Path("config.json")))["output_dir"] == str(run_dir)
        assert rerun == fresh

    @pytest.mark.parametrize("cut_by", ["failed write", "directory in its place"])
    def test_a_cut_rerun_leaves_no_summary_report_or_later_trace(
            self, tmp_path, monkeypatch, corpus_file, rules_file, six, cut_by):
        whole = tmp_path / "whole"
        assert main(run_args(corpus_file, six, whole, rules_file)) == 0
        out = tmp_path / "run"
        self.run_and_eval(corpus_file, six, out, rules_file)
        q4 = out / "traces" / "q4.json"
        if cut_by == "directory in its place":
            q4.unlink()
            q4.mkdir()
        else:
            to_json = search.RunTrace.to_json

            def failing_to_json(trace):
                if trace.question == "boston city 4":
                    raise OSError("disk full")
                return to_json(trace)

            monkeypatch.setattr(search.RunTrace, "to_json", failing_to_json)
        assert main(run_args(corpus_file, six, out, rules_file)) == 1
        if q4.is_dir():
            q4.rmdir()
        self.assert_cut_at(out, whole, 4)
        assert not (out / "report.json").exists()


# run as ``python -c BLOCKED_RUN <id> <run args>``: revtree run, in which the
# question of that id never finishes
BLOCKED_RUN = """
import sys, threading
from revtree import cli

run_one = cli._run_one

def blocked_run_one(example, *args):
    if example.id == sys.argv[1]:
        threading.Event().wait()
    return run_one(example, *args)

cli._run_one = blocked_run_one
sys.exit(cli.main(sys.argv[2:]))
"""


class TestRunConfig:
    @pytest.fixture
    def no_index(self, monkeypatch):
        def build_index(*args, **kwargs):
            raise AssertionError("the run built its index")

        monkeypatch.setattr("revtree.cli.build_index", build_index)

    @pytest.mark.parametrize("is_file", [False, True])
    def test_a_demos_dir_that_is_not_a_directory_fails_before_the_index(
            self, tmp_path, corpus_file, dataset_file, rules_file, no_index,
            caplog, is_file):
        # a typo used to run zero-shot and be recorded in config.json
        demos = tmp_path / "demos"
        if is_file:
            demos.write_text("a worked example\n")
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--demos-dir", str(demos))) == 1
        assert not out.exists()
        assert f"demos dir {demos} is not a directory" in caplog.text

    def test_every_run_flag_sets_a_field_and_every_field_has_a_flag(self):
        subparsers, = (action for action in cli.build_parser()._actions
                       if action.dest == "command")
        dests = {action.dest for action in subparsers.choices["run"]._actions}
        assert dests - {"help", "config"} == \
            {f.name for f in fields(cli.RunConfig)}

    @pytest.mark.parametrize("extra, message", [
        (["--widths", "5,0,3"], "widths"),
        (["--mode", "oner", "--k", "0"], "oner_k"),
        (["--mode", "cor", "--max-turns", "0"], "max_turns"),
        (["--mode", "cor", "--per-turn-k", "0"], "per_turn_k"),
    ])
    def test_bad_flag_fails_before_the_index(self, tmp_path, corpus_file,
                                             dataset_file, rules_file, no_index,
                                             caplog, extra, message):
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             *extra)) == 1
        assert not out.exists()
        assert message in caplog.text

    @pytest.mark.parametrize("field, value, message", [
        ("estimator", "bogus", "estimator"),
        ("fusion", "bogus", "FusionStrategy"),
        ("expansion", "bogus", "ExpansionStrategy"),
        ("widths", "5,3,3", "widths"),
        ("parallel", "2", "parallel"),
        ("max_depth", 3, "max_depth"),
        # it used to run with widths (1, 2) and record [true, 2]
        ("widths", [True, 2], "widths must be a list of integers, got [True, 2]"),
        ("widths", [2, 2.0], "widths must be a list of integers, got [2, 2.0]"),
        ("widths", [0], "with the flags given over it: widths must be one or more"),
        ("dim", True, "dim must be an integer, got True"),
        ("embed_title", 1, "embed_title must be true or false, got 1"),
        ("demos_dir", 5, "demos_dir must be a string, got 5"),
        ("mode", None, "mode must be a string, got None"),
        ("mode", "", "with the flags given over it: unknown mode ''"),
        ("output_dir", "", "run needs --corpus, --dataset and --out"),
        ("provider", "bogus", "unknown provider 'bogus'"),
        ("embedder", "bogus", "unknown embedder 'bogus'"),
        ("embedder", "precomputed", "precomputed embedder requires --embeddings"),
    ])
    def test_bad_config_file_fails_before_the_index(self, tmp_path, corpus_file,
                                                    dataset_file, rules_file,
                                                    no_index, caplog, field, value,
                                                    message):
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus_path": str(corpus_file), "dataset_path": str(dataset_file),
            "output_dir": str(out), "rules_path": str(rules_file), field: value}))
        assert main(["run", "--config", str(config)]) == 1
        assert not out.exists()
        assert message in caplog.text
        assert str(config) in caplog.text

    # the fixed evidence prompt takes 79 whitespace tokens with the short
    # question and 118 with the long one; the analysis prompt 90 and 138
    # under the chars estimator
    @pytest.mark.parametrize("extra, first, needed", [
        (["--budget", "20"], "short", 79),
        (["--budget", "100"], "long", 118),
        (["--fusion", "analysis", "--estimator", "chars", "--budget", "138"],
         "long", 138),
    ])
    def test_budget_below_a_fixed_fusion_prompt_fails_before_the_index(
            self, tmp_path, corpus_file, rules_file, no_index, caplog, extra,
            first, needed):
        dataset = tmp_path / "two.jsonl"
        write_jsonl(dataset, [
            {"id": "short", "question": "boston", "gold_answers": ["B"]},
            {"id": "long", "question": " ".join(["city"] * 40), "gold_answers": ["B"]},
        ])
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset, out, rules_file, *extra)) == 1
        assert not out.exists()
        assert f"question '{first}', which needs more than {needed} tokens" \
            in caplog.text

    def test_flags_override_the_config_file(self, tmp_path, corpus_file,
                                            dataset_file, rules_file):
        base = tmp_path / "base"
        assert main(run_args(corpus_file, dataset_file, base, rules_file)) == 0
        out = tmp_path / "run"
        assert main(["run", "--config", str(base / "config.json"), "--out", str(out),
                     "--widths", "2,2,2", "--mode", "cor"]) == 0
        config = read_run_dir(out)["config"]
        assert (config["mode"], config["widths"]) == ("cor", [2, 2, 2])
        assert config["output_dir"] == str(out)
        assert "max_depth" not in config
        trace = json.loads((out / "traces" / "q1.json").read_text())
        assert trace["mode"] == "cor"

    def test_depth_is_the_number_of_widths(self, tmp_path, corpus_file,
                                           dataset_file, rules_file):
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--widths", "4,3")) == 0
        meta = json.loads((out / "traces" / "q1.json").read_text())["meta"]
        assert (meta["max_depth"], meta["widths"]) == (2, [4, 3])

    def test_oner_fuses_paragraphs_unless_told_otherwise(self, tmp_path,
                                                         corpus_file, dataset_file,
                                                         rules_file):
        out, told = tmp_path / "oner", tmp_path / "told"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--mode", "oner")) == 0
        assert main(run_args(corpus_file, dataset_file, told, rules_file,
                             "--mode", "oner", "--fusion", "evidence")) == 0
        assert read_run_dir(out)["config"]["fusion"] == "paragraph"
        assert read_run_dir(told)["config"]["fusion"] == "evidence"

    @pytest.mark.parametrize("which, lines, message", [
        ("rules", ['{"response": "ok"}', '"default"'],
         "line 2: record must be an object"),
        ("rules", ['{"response": "ok", "path_ids": "p1"}'],
         "line 1: path_ids must be a list of strings"),
        # a number used to fail every question at its first review
        ("rules", ['{"template": "review_cot", "response": 42}',
                   '{"default": "the answer is x"}'],
         "line 1: response must be a string"),
        ("dataset", ['{"id": "q1", "question": "boston", "gold_answers": "Boston"}'],
         "line 1: gold_answers must be a list of strings, got 'Boston'"),
        # each used to run: a/b died mid-batch on its trace file, ../escaped
        # wrote its trace outside traces/, and 7 ran and evaluated
        ("dataset", questions(id="a/b"),
         "line 2: example id 'a/b' is not a single safe file name"),
        ("dataset", questions(id="../escaped"),
         "line 2: example id '../escaped' is not a single safe file name"),
        ("dataset", questions(id="a\\b"),
         "line 2: example id 'a\\\\b' is not a single safe file name"),
        ("dataset", questions(id="a\x00b"),
         "line 2: example id 'a\\x00b' is not a single safe file name"),
        ("dataset", questions(id="."), "line 2: example id '.' is not a single safe"),
        ("dataset", questions(id=".."), "line 2: example id '..' is not a single safe"),
        ("dataset", questions(id=""), "line 2: example id '' is not a single safe"),
        ("dataset", questions(id="  "), "line 2: example id '  ' is not a single safe"),
        ("dataset", questions(id=7), "line 2: id must be a string, got 7"),
        # 5 escaped main as a TypeError; a blank one was answered, and the
        # run exited 1 after writing its outputs
        ("dataset", questions(question=5), "line 2: question must be a string, got 5"),
        ("dataset", questions(question="   "), "line 2: example 'q1' has a blank question"),
        ("dataset", questions(question=None),
         "line 2: question must be a string, got None"),
    ])
    def test_bad_input_line_fails_before_the_index(self, tmp_path, corpus_file,
                                                   dataset_file, rules_file,
                                                   no_index, caplog, which, lines,
                                                   message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        files = {"rules": rules_file, "dataset": dataset_file, which: bad}
        out = tmp_path / "run"
        assert main(run_args(corpus_file, files["dataset"], out,
                             files["rules"])) == 1
        assert f"bad.jsonl: {message}" in caplog.text
        assert not out.exists()

    def test_a_dataset_with_no_questions_fails_before_the_index(
            self, tmp_path, corpus_file, rules_file, no_index, caplog):
        # it used to build the index, write empty outputs and exit 1 silently
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "run"
        assert main(run_args(corpus_file, empty, out, rules_file)) == 1
        assert f"{empty}: the dataset holds no questions" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        # it used to log only "Expecting value: line 1 column 1 (char 0)"
        ("", "is not JSON: Expecting value"),
        ("[1, 2]", "does not hold a JSON object"),
    ])
    def test_a_config_file_that_is_not_a_json_object_is_refused_naming_it(
            self, tmp_path, corpus_file, dataset_file, rules_file, no_index,
            caplog, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--config", str(path))) == 1
        assert f"{path} {message}" in caplog.text
        assert not out.exists()

    def test_a_null_config_field_with_no_default_value_is_unset(
            self, tmp_path, corpus_file, dataset_file, rules_file):
        # config.json records unset paths as null, and reruns from it
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"demos_dir": None, "fusion": None}))
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--config", str(path))) == 0
        config = read_run_dir(out)["config"]
        assert (config["demos_dir"], config["fusion"]) == (None, "evidence")


class TestEval:
    def test_eval_reports_metrics(self, tmp_path, corpus_file, dataset_file,
                                  rules_file, capsys):
        out = tmp_path / "run"
        main(run_args(corpus_file, dataset_file, out, rules_file))
        assert main(["eval", "--dataset", str(dataset_file),
                     "--run", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["em"] == 1.0
        assert report["n"] == 1
        assert "EM" in capsys.readouterr().out

    def test_eval_fails_on_missing_result(self, tmp_path, corpus_file,
                                          dataset_file, rules_file):
        out = tmp_path / "run"
        main(run_args(corpus_file, dataset_file, out, rules_file))
        bigger = tmp_path / "bigger.jsonl"
        write_jsonl(bigger, [
            {"id": "q1", "question": "boston city", "gold_answers": ["Boston"]},
            {"id": "q9", "question": "unseen", "gold_answers": ["x"]},
        ])
        assert main(["eval", "--dataset", str(bigger), "--run", str(out)]) == 1

    @pytest.mark.parametrize("line, message", [
        ("{oops", "invalid JSON"),
        ('["q1"]', "record must be an object"),
        ('{"answer": "x"}', "id is missing"),
        # an int answer used to escape main as an AttributeError
        ('{"id": "q1", "answer": 5}', "answer must be a string, got 5"),
        ('{"id": 1}', "id must be a string, got 1"),
        ('{"id": "q1", "scored_ids": "p1"}',
         "scored_ids must be a list of strings, got 'p1'"),
        ('{"id": "q1", "stats": [1]}', "stats must be a JSON object, got [1]"),
        # a string count used to escape main as a TypeError from the means
        ('{"id": "q1", "stats": {"api_calls": "3"}}',
         "stats: api_calls must be an integer, got '3'"),
        # each used to be scored, a repeat over the first record
        ('{"id": "q1", "answer": "wrong"}', "duplicate id 'q1' (first seen on line 1)"),
        ('{"id": "q9", "answer": "x"}', "id 'q9' is not in the dataset"),
    ])
    def test_corrupt_answers_line_names_the_line(self, tmp_path, corpus_file,
                                                 dataset_file, rules_file, caplog,
                                                 line, message):
        out = tmp_path / "run"
        main(run_args(corpus_file, dataset_file, out, rules_file))
        with open(out / "answers.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert main(["eval", "--dataset", str(dataset_file), "--run", str(out)]) == 1
        assert f"{out / 'answers.jsonl'}: line 2: {message}" in caplog.text
        assert not (out / "report.json").exists()
