"""The benchmark wraps program names from outside (``benchmark/tracer.py``)
and swaps others in its CLI workload.  A refactor that renames or deletes one
of them, or stops calling it, must fail here, not only in a traced benchmark
run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import contextlib
import io
import json
import tempfile
from pathlib import Path

from revtree import ReviewDecision, cli, llm, render_review_output
from revtree.llm import RemoteChatProvider
from tracer import OTHER, Tracer, install_layer_spans
import workloads

tracer = Tracer()
install_layer_spans(tracer, [RemoteChatProvider])
assert cli.ScriptedOracle is llm.ScriptedOracle and callable(cli._run_one)

# the set-up spans cli-batch reads, over one ingest and one precomputed run;
# their reports go to a buffer, so the probe's stdout holds only its verdict
with tempfile.TemporaryDirectory() as tmp, \\
        contextlib.redirect_stdout(io.StringIO()):
    tmp = Path(tmp)
    files = {
        "corpus": [{"id": f"p{i}", "title": "T", "text": f"boston fact {i}"}
                   for i in range(4)],
        "dataset": [{"id": "q0", "question": "boston fact", "gold_answers": ["x"]}],
        "rules": [{"default": render_review_output(ReviewDecision.accept("x"))}],
    }
    for name, rows in files.items():
        (tmp / name).write_text("".join(json.dumps(row) + "\\n" for row in rows))
    assert cli.main(["ingest", "--corpus", str(tmp / "corpus"),
                     "--out", str(tmp / "index")]) == 0
    assert cli.main(["run", "--corpus", str(tmp / "corpus"),
                     "--dataset", str(tmp / "dataset"), "--rules", str(tmp / "rules"),
                     "--out", str(tmp / "run"), "--embedder", "precomputed",
                     "--embeddings", str(tmp / "index" / "embeddings.jsonl")]) == 0
calls = {name: tracer.calls(OTHER, name) for name in (
    "embedding.write_file", "embedding.precomputed_load", "corpus.build_index")}
assert all(calls.values()), calls
print("ok")
"""


def test_benchmark_installs_its_layer_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmark")]))
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
