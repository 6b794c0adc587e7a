"""Write a BENCH_<n>.json record from saved perfbench runs.

Usage, from the root of a checkout::

    python3 tools/bench_file.py --number 6 --title "what changed" --seconds 30 \\
        --parent-commit ac58a2f --parent runs/parent.*.txt --change runs/change.*.txt \\
        [--layers 'spectral.*' 'convolution.transform_calls.*'] [--out BENCH_6.json] \\
        [--claim ttft_ms@prompt-long]

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
pairing the runs of a workload in the order given, and say whether every
change run did better than every parent run; which way is better is read
from ``BENCHMARK.json``. A run with a failed operation, or
runs of different environments (python, numpy, scipy, nproc, cpu), are
refused.

``--trace 1`` timings are not calibrated to the host's speed the way
``--trace 0`` ones are, so their medians follow the host's fast or slow
state as much as the code: in ``BENCH_11.json`` the pure-Python
``generate.floor_ns_per_tok``, which runs no library code, read 146-152
ns/token in two parent runs against 197-246 in the paired runs of a
change that did not touch it. The per-layer section therefore gives
``host_drift``, the change/parent ratio of that metric's medians (None
when the runs lack it): a layer that moved by about that ratio moved
with the host, not with the code.

With end-to-end runs the record gets a ``verdict`` block that applies
the acceptance rule, reading each metric's ``bound`` from the same
file. It records the pairs per workload (the fewer runs of its two
sides); a set of fewer than ten pairs can lean by several percent on
unchanged code, so no claim holds and no record passes on one. The
claimed metric (``--claim METRIC@WORKLOAD``, optional) holds if the
change did better in at least nine of ten pairs and its median is
better than the parent's by more than the parent's interquartile
distance. Every other metric is
``within`` its bound, ``worse`` (the change median is worse than the
parent median by more than ``bound`` times the parent median), or
``unresolved`` (the parent's own interquartile distance is wider than
that, unless every change run did better than every parent run, which
counts as ``within``). ``passes`` is true when every workload has at
least ten pairs, the claim, if any, holds and every other metric is
``within``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

import numpy as np

ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "nproc", "cpu", "caches")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CLAIM_PAIR_SHARE = 0.9  # of the pairs a claimed gain must win
MIN_PAIRS = 10  # per workload, for a claim to hold or a record to pass
FLOOR = "generate.floor_ns_per_tok"  # the bare token loop: host speed, not code


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


def compare(parent: list, change: list, bounds: dict | None = None) -> dict:
    """Per-metric medians and quartiles of two lists of runs; with the
    end-to-end ``bounds``, also how the change did run against run."""
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
        if bounds is not None and name in bounds:
            sign = 1.0 if bounds[name][0] == "higher" else -1.0
            p, c = (sign * np.array(sides[label]) for label in ("parent", "change"))
            n = min(len(p), len(c))
            entry["change_better_pairs"] = f"{int(np.sum(c[:n] > p[:n]))}/{n}"
            entry["change_better_every_run"] = bool(c.min() > p.max())
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


def read_bounds() -> dict:
    """``{name: (better, bound)}`` of the benchmark's end-to-end metrics."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(metrics: dict, bounds: dict, claim: str | None, pairs: dict) -> dict:
    """The acceptance rule over ``{workload: {metric: entry}}`` with
    ``pairs`` per workload (see the module doc)."""
    out = {"claim": None, "pairs": pairs, "bounds": {}}
    if claim is not None:
        name, _, workload = claim.partition("@")
        if name not in bounds or name not in metrics.get(workload, {}):
            raise ValueError(f"--claim {claim}: no such end-to-end metric and workload")
    for workload, entries in metrics.items():
        for name, entry in entries.items():
            if name not in bounds:
                continue
            better, bound = bounds[name]
            sign = 1.0 if better == "higher" else -1.0
            parent = entry["parent"]
            gain = sign * (entry["change"] - parent)  # > 0: the change did better
            q1, q3 = entry["parent_quartiles"]
            if claim == f"{name}@{workload}":
                wins, n = (int(x) for x in entry["change_better_pairs"].split("/"))
                out["claim"] = {
                    "metric": name, "workload": workload,
                    "change_better_pairs": entry["change_better_pairs"],
                    "median_gain": gain, "parent_iqr": q3 - q1,
                    "holds": (n >= MIN_PAIRS and wins >= CLAIM_PAIR_SHARE * n
                              and gain > q3 - q1)}
                continue
            if entry["change_better_every_run"]:
                status = "within"
            elif q3 - q1 > bound * abs(parent):
                status = "unresolved"
            elif -gain > bound * abs(parent):
                status = "worse"
            else:
                status = "within"
            out["bounds"].setdefault(workload, {})[name] = {
                "worse_by": -gain / abs(parent) if parent else 0.0, "bound": bound,
                "verdict": status}
    out["passes"] = (all(n >= MIN_PAIRS for n in pairs.values())
                     and (claim is None or out["claim"]["holds"])
                     and all(v["verdict"] == "within" for entries in out["bounds"].values()
                             for v in entries.values()))
    return out


def build(title: str, parent_commit: str, parent: list, change: list,
          layers: list, seconds: int, claim: str | None = None) -> dict:
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
            metrics = compare(p, c)
            floor = metrics.get(FLOOR)
            drift = floor["change"] / floor["parent"] if floor and floor["parent"] else None
            metrics = keep_layers(metrics, layers)
            runs = {"parent": len(p), "change": len(c)}
            run_seeds = seeds(p + c)
        else:
            workload = "W"
            bounds = read_bounds()
            metrics, runs, run_seeds = {}, {}, {}
            for wl in sorted({r["report"]["workload"] for r in p + c}):
                pw = [r for r in p if r["report"]["workload"] == wl]
                cw = [r for r in c if r["report"]["workload"] == wl]
                if not pw or not cw:
                    raise ValueError(f"{wl}: runs on one side only")
                metrics[wl] = compare(pw, cw, bounds)
                runs[wl] = {"parent": len(pw), "change": len(cw)}
                run_seeds[wl] = seeds(pw + cw)
        command = (f"python3 perfbench/run.py --workload {workload} --seed N "
                   f"--seconds {seconds} --trace {trace}")
        record[section] = {"command": command, "runs_per_side": runs,
                           "seeds": run_seeds, "metrics": metrics}
        if trace:
            record[section]["host_drift"] = drift
        else:
            record["verdict"] = verdict(metrics, bounds, claim,
                                        {wl: min(n.values()) for wl, n in runs.items()})
    if claim is not None and "verdict" not in record:
        raise ValueError(f"--claim {claim} needs end-to-end runs")
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
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    try:
        record = build(args.title, args.parent_commit,
                       [read_run(p) for p in args.parent],
                       [read_run(p) for p in args.change], args.layers, args.seconds,
                       args.claim)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench_file: {exc}", file=sys.stderr)
        return 1
    out = args.out or Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
