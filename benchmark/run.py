"""Benchmark entry point.

    python3 benchmark/run.py --workload tor-retrieval --seed 1 --seconds 20 --trace 0

Runs one workload in this process against the package under ``src/`` of the
checkout this file sits in, checks its outputs, and prints as the last line
of standard output one JSON object: ``correct``, ``attempted`` and
``failed`` (questions) and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the layer boundaries are wrapped in
spans and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("tor-retrieval", "tor-remote-sim", "cli-batch")


def _import_program():
    """Put the checkout's ``src/`` first on the path; fail without it."""
    if not (SRC / "revtree" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package at {SRC / 'revtree'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import revtree

    if Path(revtree.__file__).resolve().parent != SRC / "revtree":
        sys.exit(f"benchmark: imported revtree from {revtree.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "cli-batch":
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli-batch-", dir=OUT))
        try:
            outcome = workloads.cli_batch(args.seed, args.seconds, tracer, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                OUT.rmdir()  # only when no other run is using it
    else:
        run = {"tor-retrieval": workloads.tor_retrieval,
               "tor-remote-sim": workloads.tor_remote_sim}[args.workload]
        outcome = run(args.seed, args.seconds, tracer)

    for error in outcome.errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if tracer is None:
        declared, values = spec["end_to_end"], outcome.end_to_end()
    else:
        declared = spec["per_layer"]
        values = tracing.per_layer_metrics(tracer, len(outcome.question_s),
                                           len(outcome.setup_s))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": len(outcome.question_s),
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
