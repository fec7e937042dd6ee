"""Record benchmark runs of this checkout as a committed performance file.

    python scripts/bench_record.py --label overlap --seeds 11-20 --baseline ../parent

Runs ``benchmark/run.py`` for ``run_seconds`` once per workload that
``BENCHMARK.json`` declares and per seed, untraced for the end-to-end
metrics and, for the first two seeds, traced for the per-layer ones.  With
``--baseline DIR`` every run is paired with the same run of the checkout in
``DIR``; the two sides of a pair run back to back, and the side that goes
first alternates from pair to pair.

Writes ``BENCH_<label>.json`` at the root of this checkout: the environment
(python, numpy, BLAS, ``os.cpu_count()``), each checkout's commit and source
line count, every run's metrics, the median
and quartiles of each metric, the correct and failed counts, the fewest and
most questions a run attempted, and, with a baseline, per end-to-end metric
the pairs the change won, the median change/baseline ratio and a verdict
(see :func:`verdict`), over the pairs whose two runs were correct with no
failed question; ``excluded_pairs`` counts the others.  Runs go one at a
time, so they do not compete for the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SEEDS = 2


def seed_list(text: str) -> list[int]:
    """``"11-20"`` or ``"1,3,5"`` as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system()}


def checkout_info(root: Path) -> dict:
    """The commit a checkout is at, whether its tree differs from it, and
    the line count of its ``src/revtree/*.py``."""
    def git(*args):
        result = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                text=True)
        return result.stdout.strip() if result.returncode == 0 else None

    src_lines = 0
    for path in (root / "src" / "revtree").glob("*.py"):
        with path.open("rb") as handle:
            src_lines += sum(1 for _line in handle)
    return {"commit": git("rev-parse", "HEAD"),
            "modified": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_lines": src_lines}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    run = {"seed": seed, "trace": trace}
    try:
        out = json.loads(result.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {**run, "correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": result.stderr.strip().splitlines()[-1:]}
    return {**run, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    metrics: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(value)
    # a run that used up its workload's questions stops early, and its
    # attempted count shows it
    attempted = [r["attempted"] for r in runs]
    return {"runs": len(runs), "correct": sum(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": {"min": min(attempted, default=0),
                          "max": max(attempted, default=0)},
            "metrics": {name: spread(values) for name, values in sorted(metrics.items())}}


def verdict(sides: list[tuple[float, float]], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric from its (baseline, change)
    pairs, ``better`` being ``"lower"`` or ``"higher"`` and ``bound`` the
    share of the baseline's median by which the metric may worsen.

    - ``gain``: the change wins at least nine tenths of the pairs, ties
      counting for neither, and its median is better than the baseline's
      by more than the baseline's interquartile range.
    - ``worse``: the change's median is worse by more than the bound.
    - ``unresolved``: either side's interquartile range is wider than the
      bound of its median, unless every change run reads better than every
      baseline run.
    - ``within bound``: anything else.
    """
    lower = better == "lower"
    baseline, change = [b for b, _ in sides], [c for _, c in sides]
    wins = sum((c < b) if lower else (c > b) for b, c in sides)
    base, new = spread(baseline), spread(change)
    gain_by = (base["median"] - new["median"]) * (1 if lower else -1)
    if wins >= 0.9 * len(sides) and gain_by > base["q3"] - base["q1"]:
        return "gain"
    if -gain_by > bound * abs(base["median"]):
        return "worse"
    separated = (max(change) < min(baseline)) if lower else (min(change) > max(baseline))
    if not separated and any(side["q3"] - side["q1"] > bound * abs(side["median"])
                             for side in (base, new)):
        return "unresolved"
    return "within bound"


def comparable(run: dict) -> bool:
    """Whether a run's metrics may enter a comparison: it was correct and no
    question failed.  A crashed run is neither."""
    return run["correct"] and not run["failed"]


def compare(pairs: list[tuple[dict, dict]], declared: list[dict]) -> tuple[dict, int]:
    """Per end-to-end metric: the pairs the change won, the median of
    change / baseline and the :func:`verdict`, all over the pairs whose two
    runs are :func:`comparable`; and the number of pairs left out.  Every
    metric reads ``unresolved`` when a pair was left out."""
    kept = [(b, c) for b, c in pairs if comparable(b) and comparable(c)]
    excluded = len(pairs) - len(kept)
    table = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = [(b["metrics"][name], c["metrics"][name]) for b, c in kept]
        wins = sum((c < b) if lower else (c > b) for b, c in sides)
        ratios = [c / b for b, c in sides if b]
        table[name] = {"better": metric["better"], "wins": wins, "pairs": len(sides),
                       "median_ratio": statistics.median(ratios) if ratios else None,
                       "bound": metric["bound"],
                       "verdict": "unresolved" if excluded or not sides else
                       verdict(sides, metric["better"], metric["bound"])}
    return table, excluded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout whose runs pair with this one's")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()

    record = {"label": args.label, "seconds": seconds, "environment": environment(),
              "checkouts": {side: checkout_info(root) for side, root in sides.items()},
              "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for trace in (0, 1):
            for i, seed in enumerate(seeds if trace == 0 else seeds[:TRACED_SEEDS]):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    run = run_once(sides[side], workload, seed, seconds, trace)
                    runs[side].append(run)
                    print(f"{workload} seed {seed} trace {trace} {side}: "
                          f"correct={run['correct']} failed={run['failed']}",
                          file=sys.stderr)
        entry = {"seeds": seeds}
        for side, side_runs in runs.items():
            entry[side] = {
                "end_to_end": summarize([r for r in side_runs if r["trace"] == 0]),
                "per_layer": summarize([r for r in side_runs if r["trace"] == 1]),
                "runs": side_runs,
            }
        if "baseline" in sides:
            untraced = [[r for r in runs[side] if r["trace"] == 0]
                        for side in ("baseline", "change")]
            entry["pairs"], entry["excluded_pairs"] = compare(list(zip(*untraced)),
                                                              spec["end_to_end"])
        record["workloads"][workload] = entry

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
