"""Command-line workflows: ingest, run, eval."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
import time
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from revtree import ReviewDecision, render_mpc_output, render_review_output
from revtree import cli, embedding, fusion, llm, search
from revtree.cli import main


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

    def test_manifest_checksum_mismatch_fails_before_the_first_question(
            self, tmp_path, corpus_file, dataset_file, rules_file, caplog):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus_file), "--out",
                     str(index_dir)]) == 0
        path = index_dir / "embeddings.jsonl"
        data = bytearray(path.read_bytes())
        # one digit of the first value changes: still a valid file
        at = data.index(b'"values": [') + len(b'"values": [') + 1
        while not chr(data[at]).isdigit():
            at += 1
        data[at] = ord("7") if data[at] != ord("7") else ord("3")
        path.write_bytes(bytes(data))
        out = tmp_path / "run"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--embedder", "precomputed", "--embeddings",
                             str(path))) == 1
        assert not out.exists()
        assert "checksum" in caplog.text

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

    def test_a_manifest_without_the_corpus_checksum_is_still_accepted(
            self, tmp_path, corpus_file, dataset_file, rules_file):
        index_dir = tmp_path / "index"
        assert main(["ingest", "--corpus", str(corpus_file),
                     "--out", str(index_dir)]) == 0
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["corpus_sha256"]
        manifest_path.write_text(json.dumps(manifest))
        out, baseline = tmp_path / "run", tmp_path / "baseline"
        assert main(run_args(corpus_file, dataset_file, out, rules_file,
                             "--embedder", "precomputed", "--embeddings",
                             str(index_dir / "embeddings.jsonl"))) == 0
        assert main(run_args(corpus_file, dataset_file, baseline, rules_file)) == 0
        assert (out / "answers.jsonl").read_bytes() == \
            (baseline / "answers.jsonl").read_bytes()

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
    ``embeddings.jsonl``; ``run --embedder precomputed`` loads them instead
    of parsing the file when the manifest records their checksums."""

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

    def test_the_matrix_and_the_jsonl_give_the_same_bytes(
            self, tmp_path, monkeypatch, corpus30, questions, rules_file, index_dir):
        def refuse(self):
            raise AssertionError("the wrong vector source was read")

        with monkeypatch.context() as patch:
            patch.setattr(embedding.PrecomputedEmbeddings, "_parse", refuse)
            code, binary = self.run_precomputed(tmp_path, corpus30, questions,
                                                rules_file, index_dir, "binary")
            assert code == 0
        # a manifest from before ingest wrote the matrix: the JSONL is parsed
        self.edit_manifest(index_dir, matrix_sha256=None, ids_sha256=None)
        (index_dir / "matrix.npy").unlink()
        monkeypatch.setattr(embedding.PrecomputedEmbeddings, "_load_binary", refuse)
        code, parsed = self.run_precomputed(tmp_path, corpus30, questions,
                                            rules_file, index_dir, "parsed")
        assert code == 0
        outputs = [{p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                    if p.is_file() and p.name != "config.json"}
                   for out in (binary, parsed)]
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

    @pytest.mark.parametrize("case", ["ingest_no_title", "run_no_title",
                                      "no_corpus_checksum", "no_manifest"])
    def test_rows_that_may_be_other_vectors_are_not_reused(
            self, tmp_path, monkeypatch, corpus30, questions, accept_rules, case):
        if case == "run_no_title":
            extra = ("--embedder", "hashed", "--no-embed-title")
        else:
            index_dir = self.ingest(tmp_path, corpus30, *(
                ["--no-embed-title"] if case == "ingest_no_title" else []))
            manifest_path = index_dir / "manifest.json"
            if case == "no_corpus_checksum":
                manifest = json.loads(manifest_path.read_text())
                del manifest["corpus_sha256"]
                manifest_path.write_text(json.dumps(manifest))
            elif case == "no_manifest":
                manifest_path.unlink()
            extra = ("--embedder", "precomputed",
                     "--embeddings", str(index_dir / "embeddings.jsonl"))
        answers, calls = self.answers(monkeypatch, tmp_path, corpus30, questions,
                                      accept_rules, *extra)
        assert calls == 0
        assert answers == self.answers(monkeypatch, tmp_path, corpus30, questions,
                                       accept_rules, *extra, reuse=False)[0]

    @pytest.mark.parametrize("manifest, message", [
        ([], "does not hold a JSON object"),
        ("text", "does not hold a JSON object"),
        ({"provider_id": 5}, "provider_id is not a str: 5"),
        ({"embed_title": "yes"}, "embed_title is not a bool: 'yes'"),
        ({"embed_title": 1}, "embed_title is not a bool: 1"),
    ])
    def test_a_malformed_manifest_fails_before_the_first_question(
            self, tmp_path, caplog, corpus30, questions, accept_rules, manifest,
            message):
        index_dir = self.ingest(tmp_path, corpus30)
        manifest_path = index_dir / "manifest.json"
        if isinstance(manifest, dict):
            manifest = {**json.loads(manifest_path.read_text()), **manifest}
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "run"
        assert main(run_args(corpus30, questions, out, accept_rules,
                             "--embedder", "precomputed",
                             "--embeddings", str(index_dir / "embeddings.jsonl"))) == 1
        assert not out.exists()
        assert f"{manifest_path}" in caplog.text
        assert message in caplog.text


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


class TestRunConfig:
    @pytest.fixture
    def no_index(self, monkeypatch):
        def build_index(*args, **kwargs):
            raise AssertionError("the run built its index")

        monkeypatch.setattr("revtree.cli.build_index", build_index)

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
         "line 1: gold_answers and gold_paragraph_ids must be lists of strings"),
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

    @pytest.mark.parametrize("line", ["{oops", '["q1"]', '{"answer": "x"}'])
    def test_corrupt_answers_line_names_the_line(self, tmp_path, corpus_file,
                                                 dataset_file, rules_file, caplog,
                                                 line):
        out = tmp_path / "run"
        main(run_args(corpus_file, dataset_file, out, rules_file))
        with open(out / "answers.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert main(["eval", "--dataset", str(dataset_file), "--run", str(out)]) == 1
        assert "answers.jsonl: line 2:" in caplog.text
