"""The benchmark wraps program names from outside (``benchmark/tracer.py``)
and swaps others in its CLI workload.  A refactor that renames or deletes one
of them must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from revtree import cli, llm
from revtree.llm import RemoteChatProvider
from tracer import Tracer, install_layer_spans
import workloads

install_layer_spans(Tracer(), [RemoteChatProvider])
assert cli.ScriptedOracle is llm.ScriptedOracle and callable(cli._run_one)
print("ok")
"""


def test_benchmark_installs_its_layer_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmark")]))
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
