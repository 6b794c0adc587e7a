"""Write a BENCH_<n>.json record from saved perfbench runs.

Usage, from the root of a checkout::

    python3 tools/bench_file.py --number 6 --title "what changed" --seconds 30 \\
        --parent-commit ac58a2f --parent runs/parent.*.txt --change runs/change.*.txt \\
        [--layers 'spectral.*' 'convolution.transform_calls.*'] [--out BENCH_6.json]

Each input file is the standard output of one ``perfbench/run.py``
run: its last line is the result JSON and the line before it the
report, which names the workload and the trace mode and holds the
environment. ``--trace 0`` runs go to ``end_to_end``, grouped by
workload; ``--trace 1`` runs go to ``per_layer`` (only the metrics that
match a ``--layers`` pattern, all when none is given). For every metric
each side gets the median over its runs (``parent`` and ``change``, as
in BENCH_2.json) and its quartiles, and each section lists the seeds
run; the runs do not print their ``--seconds``, so it is passed in.
End-to-end metrics also count the pairs in which the change did better,
pairing the runs of a workload in the order given: higher is better for
tok/s, lower for every other unit. A run with a failed operation, or
runs of different environments (python, numpy, scipy, nproc, cpu), are
refused.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

import numpy as np

ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "nproc", "cpu", "caches")
HIGHER_IS_BETTER = ("tok/s", "x")


def read_run(path: Path) -> dict:
    """The report and result of one saved run, checked."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a report line and a result line")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise ValueError(f"{path}: {result.get('failed')} of "
                         f"{result.get('attempted')} operations failed")
    return {"path": str(path), "report": report, "result": result}


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "quartiles": [float(q1), float(q3)]}


def compare(parent: list, change: list, pairs: bool) -> dict:
    """Per-metric medians and quartiles of two lists of runs."""
    metrics = {}
    for name in sorted(parent[0]["result"]["metrics"]):
        unit = parent[0]["result"]["metrics"][name]["unit"]
        sides = {}
        for label, runs in (("parent", parent), ("change", change)):
            sides[label] = [run["result"]["metrics"][name]["value"] for run in runs]
        entry = {}
        for label, values in sides.items():
            s = summary(values)
            entry[label] = s["median"]
            entry[f"{label}_quartiles"] = s["quartiles"]
        entry["unit"] = unit
        if pairs:
            higher = unit in HIGHER_IS_BETTER
            n = min(len(sides["parent"]), len(sides["change"]))
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(sides["parent"][:n], sides["change"][:n]))
            entry["change_better_pairs"] = f"{wins}/{n}"
        metrics[name] = entry
    return metrics


def keep_layers(metrics: dict, patterns: list) -> dict:
    if not patterns:
        return metrics
    return {name: entry for name, entry in metrics.items()
            if any(fnmatch.fnmatchcase(name, p) for p in patterns)}


def environment(runs: list) -> dict:
    envs = [{k: run["report"]["environment"].get(k) for k in ENVIRONMENT_KEYS}
            for run in runs]
    for run, env in zip(runs, envs):
        if env != envs[0]:
            raise ValueError(f"{run['path']}: environment {env} differs from {envs[0]}")
    return envs[0]


def seeds(runs: list) -> list:
    return sorted({run["report"]["environment"]["seed"] for run in runs})


def build(title: str, parent_commit: str, parent: list, change: list,
          layers: list, seconds: int) -> dict:
    record = {"change": title, "parent_commit": parent_commit,
              "environment": environment(parent + change)}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        p = [r for r in parent if r["report"]["trace"] == trace]
        c = [r for r in change if r["report"]["trace"] == trace]
        if not p and not c:
            continue
        if not p or not c:
            raise ValueError(f"--trace {trace} runs on one side only")
        if trace:
            workload = p[0]["report"]["workload"]
            metrics = keep_layers(compare(p, c, pairs=False), layers)
            runs = {"parent": len(p), "change": len(c)}
            run_seeds = seeds(p + c)
        else:
            workload = "W"
            metrics, runs, run_seeds = {}, {}, {}
            for wl in sorted({r["report"]["workload"] for r in p + c}):
                pw = [r for r in p if r["report"]["workload"] == wl]
                cw = [r for r in c if r["report"]["workload"] == wl]
                if not pw or not cw:
                    raise ValueError(f"{wl}: runs on one side only")
                metrics[wl] = compare(pw, cw, pairs=True)
                runs[wl] = {"parent": len(pw), "change": len(cw)}
                run_seeds[wl] = seeds(pw + cw)
        command = (f"python3 perfbench/run.py --workload {workload} --seed N "
                   f"--seconds {seconds} --trace {trace}")
        record[section] = {"command": command, "runs_per_side": runs,
                           "seeds": run_seeds, "metrics": metrics}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--number", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument("--layers", nargs="*", default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    try:
        record = build(args.title, args.parent_commit,
                       [read_run(p) for p in args.parent],
                       [read_run(p) for p in args.change], args.layers, args.seconds)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench_file: {exc}", file=sys.stderr)
        return 1
    out = args.out or Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
