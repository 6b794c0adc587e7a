"""Self-test of the benchmark at tiny sizes (scratch L = 256).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit and no failed operation, that the traced per-layer self times are
non-negative and sum to no more than the traced call time, and that
the seed changes the inputs but not the exact counters. Exits 0 iff
every check holds.
"""

from __future__ import annotations

import json
import math
import sys

import run  # first: it pins the BLAS threads before numpy loads

import numpy as np
from workloads import TINY, WORKLOADS, Prompt, Scratch, Stu

SEED = 7
failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_result(result: dict, declared: list, what: str) -> None:
    json.dumps(result)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: all {result['attempted']} operations pass")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
    expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in metrics.values()), f"{what}: every value is a finite number")


def check_self_times() -> None:
    scratch, stu = Scratch(TINY), Stu(TINY)
    s_in, u_in = scratch.setup(SEED), stu.setup(SEED)
    for e in run.ENGINE_KINDS:
        call = scratch.traced_call(s_in, e)
        pushes = [ns for name, ns in call.layers.items() if name != "driver"]
        expect(all(ns >= 0 for ns in call.layers.values())
               and sum(pushes) + call.layers["driver"] == call.wall_ns,
               f"scratch/{e}: push self times and driver time are >= 0 "
               f"and sum to the call time")
        call = stu.traced_call(u_in, e, stu.traced_model(u_in, e))
        expect(min(call.layers.values()) >= 0
               and sum(call.layers.values()) <= call.wall_ns,
               f"stu/{e}: step and update self times are >= 0 and within the call")


def check_seed_effect() -> None:
    for cls in (Scratch, Prompt, Stu):
        wl = cls(TINY)
        a, b = wl.setup(SEED), wl.setup(SEED + 1)
        if cls is Scratch:
            differ = not np.array_equal(a.phi.taps_array(), b.phi.taps_array())
        elif cls is Prompt:
            differ = not np.array_equal(a.prompt, b.prompt)
        else:
            differ = not np.array_equal(a.inputs, b.inputs)
        expect(differ, f"{wl.name}: the seed changes the inputs")
        for e in run.ENGINE_KINDS:
            same = wl.call(a, e).counters == wl.call(b, e).counters
            expect(same, f"{wl.name}/{e}: the seed leaves the counters unchanged")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(WORKLOADS), "BENCHMARK.json names the three workloads")
    for name in sorted(WORKLOADS):
        metrics, _, ledger = run.measure(name, SEED, 1, TINY)
        result = run.result_line(metrics, run.end_to_end_units(), ledger)
        check_result(result, spec["end_to_end"], f"{name} end to end")
    metrics, _, ledger = run.trace(SEED, 1, TINY)
    result = run.result_line(metrics, run.per_layer_units(), ledger)
    check_result(result, spec["per_layer"], "traced run")
    check_self_times()
    check_seed_effect()
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
