"""streamconv benchmark: end-to-end generation metrics and a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scratch-64k --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``. One process, one
thread, closed loop: generation is auto-regressive, so each token
waits for the one before it. Each round runs every engine once, with
the engine order rotated from round to round, until ``--seconds`` have
passed. The first call of every engine is an untimed warm-up.

Every output is checked outside the timed region: against the oracle
the first time, and by bitwise equality with that checked output on
later calls of the same inputs (an unequal output goes to the oracle).
The exact counters of each (workload, engine) must be equal on every
call; the traced run also calls every workload and engine on a second
seed, whose counters must be the same. A mismatch or an exception is a
failed operation.

``--trace 0`` prints the end-to-end metrics of the named workload,
each the median over the run's calls. Each of its times is scaled to
the nominal host speed by a calibration kernel timed right before and
after the operation (``calibration.py``); the report line gives the
unscaled call times and the factors applied, and the naive engine's
tok_s (see ``GATED_ENGINES``). The median and tail of
the inter-token gaps go to the report line only: a per-token step
slows under the shared host's load by more than the kernel does, so
even scaled, their medians moved by up to 0.22 between two sets of
runs of the same code (see also ``TAIL`` in ``workloads.py``). The
traced run gives the median gap as a per-layer metric.
``--trace 1`` prints the per-layer metrics; the traced run covers all
three workloads whatever workload is named, because each layer metric
is measured on the workload that exercises that layer. Its rounds
alternate untraced and traced calls, so the difference between them
is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the environment, sample counts and counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path

# One compute thread: fixed before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "streamconv" / "__init__.py").is_file():
    sys.exit(f"perfbench: no streamconv sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from streamconv import ENGINE_KINDS, conv_full, prefill  # noqa: E402
from calibration import Calibration  # noqa: E402
from workloads import FULL, TAIL, WORKLOADS, Prompt, Scratch, Sizes, Stu, now  # noqa: E402

MIN_ROUNDS = 3
# The engines whose tok_s is an end-to-end metric. The naive engine's
# 2^16-sample dot products on scratch-64k slow under the shared host's
# load in a way the calibration kernel does not follow: scaled, its
# tok_s spread by up to 0.27 of the median over 10 runs, so it goes to
# the report line and the traced run instead.
GATED_ENGINES = ("epoched", "continuous")
# Every round also repeats the set-up for at least this long, so that
# the set-up median samples the whole run, like the calls do.
SETUP_NS_PER_ROUND = 50_000_000

COUNTERS = ("mac_count", "ff_cost", "cache_rebuilds", "peak_aux_elems")
CONV_SIZES = [1 << k for k in range(2, 16)]
MAX_LEVEL = 16


def end_to_end_units() -> dict:
    units = {}
    for e in GATED_ENGINES:
        units[f"tok_s.{e}"] = "tok/s"
    units["ttft_ms"] = "ms"
    units["peak_rss_mb"] = "MiB"
    units["setup_s"] = "s"
    return units


def per_layer_units() -> dict:
    units = {f"convolution.conv_full_us.m{m}": "us" for m in CONV_SIZES}
    units["convolution.conv_full_ms.prefill"] = "ms"
    for wl in WORKLOADS:
        for e in ENGINE_KINDS:
            units[f"convolution.transform_calls.{e}.{wl}"] = "count"
    for k in range(MAX_LEVEL + 1):
        units[f"engines.continuous.level_ms.k{k}"] = "ms"
    units["engines.epoched.step_ms"] = "ms"
    units["engines.epoched.rebuild_ms"] = "ms"
    units["engines.naive.push_ms"] = "ms"
    for wl in WORKLOADS:
        for e in ENGINE_KINDS:
            for c in COUNTERS:
                units[f"engines.{e}.{c}.{wl}"] = "count"
    units["generate.floor_ns_per_tok"] = "ns"
    units["generate.stamp_ns_per_tok"] = "ns"
    for e in ENGINE_KINDS:
        units[f"generate.driver_ns_per_tok.{e}"] = "ns"
    for wl in WORKLOADS:
        units[f"generate.tok_s.naive.{wl}"] = "tok/s"
        for e in ENGINE_KINDS:
            units[f"generate.gap_p50_us.{e}.{wl}"] = "us"
    units["generate.prefill_ms"] = "ms"
    for e in ENGINE_KINDS:
        units[f"generate.decode_ms.{e}"] = "ms"
    for e in ENGINE_KINDS:
        units[f"spectral.step_us.{e}"] = "us"
        units[f"spectral.update_us.{e}"] = "us"
    units["spectral.pushes_per_step"] = "count"
    units["spectral.bank_ms"] = "ms"
    for e in ENGINE_KINDS:
        units[f"spectral.model_init_ms.{e}"] = "ms"
    units["derived.speedup.epoched"] = "x"
    units["derived.speedup.continuous"] = "x"
    for wl in (Scratch.name, Stu.name):
        for e in ENGINE_KINDS:
            units[f"trace.overhead_pct.{wl}.{e}"] = "%"
    return units


class Ledger:
    """Counts operations and failures; checks outputs and counters.

    Outputs are keyed by (input label, workload, engine): the first
    output that passes the oracle becomes the one later outputs of the
    same inputs may equal. Counters are keyed by (workload, engine,
    traced) across all inputs, so a second seed is checked too.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}
        self.counters: dict = {}

    def run(self, wl, inp, label: str, engine: str, fn, traced: bool = False):
        """Run one operation; return its Call, or None if it failed."""
        self.attempted += 1
        try:
            call = fn()
            key = (label, wl.name, engine)
            verified = self.outputs.get(key)
            ok = verified is not None and np.array_equal(verified, call.outputs)
            if not ok:
                ok = wl.check(inp, call.outputs)
                if ok and verified is None:
                    self.outputs[key] = call.outputs
            counters = self.counters.setdefault((wl.name, engine, traced), call.counters)
            if counters != call.counters:
                print(f"perfbench: {wl.name}/{engine} counters {call.counters} "
                      f"differ from {counters}", file=sys.stderr)
                ok = False
            if not ok:
                print(f"perfbench: {wl.name}/{engine} ({label}) failed its check",
                      file=sys.stderr)
            call.outputs = None  # checked; the verified copy stays in self.outputs
        except Exception:  # any failure of the program counts against it
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            return None
        return call


def rotated(items, r: int) -> list:
    r %= len(items)
    return list(items[r:]) + list(items[:r])


def timed_setups(wl, seed: int, cal: Calibration) -> list:
    """Set up once, and again until SETUP_NS_PER_ROUND have passed.

    Returns each set-up's duration in ns, scaled to the nominal host
    speed by the kernel timed around the batch; the inputs are
    discarded.
    """
    def batch():
        times = []
        while not times or sum(times) < SETUP_NS_PER_ROUND:
            times.append(_time_ns(lambda: wl.setup(seed)))
        return times

    times, factor = cal.run(batch)
    return [t * factor for t in times]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: int, sizes: Sizes = FULL):
    """Untraced run of one workload; returns (metrics, report, ledger).

    Every time is scaled to the nominal host speed by the calibration
    kernel timed around its operation (see ``calibration.py``).
    """
    wl = WORKLOADS[name](sizes)
    cal = Calibration()
    (inp, elapsed), factor = cal.run(lambda: _timed_result(lambda: wl.setup(seed)))
    setup_ns = [elapsed * factor]
    ledger = Ledger()
    for e in ENGINE_KINDS:  # warm-up, checked but not timed
        ledger.run(wl, inp, "main", e, lambda: wl.call(inp, e))
    cal.run(lambda: None)  # the kernel time before the first timed call
    calls = {e: [] for e in ENGINE_KINDS}
    factors = {e: [] for e in ENGINE_KINDS}
    raw_wall = {e: [] for e in ENGINE_KINDS}
    deadline = now() + seconds * 1_000_000_000
    r = 0
    while r < MIN_ROUNDS or now() < deadline:
        setup_ns += timed_setups(wl, seed, cal)
        for e in rotated(ENGINE_KINDS, r):
            call, factor = cal.run(
                lambda: ledger.run(wl, inp, "main", e, lambda: wl.call(inp, e)))
            if call is not None:
                raw_wall[e].append(call.wall_ns)
                call.scale(factor)
                calls[e].append(call)
                factors[e].append(factor)
        r += 1
    rss = peak_rss_mib()
    if any(not cs for cs in calls.values()):
        sys.exit("perfbench: an engine has no successful timed call")

    tok_s = {e: median(c.tokens * 1e9 / c.wall_ns for c in cs) for e, cs in calls.items()}
    metrics = {f"tok_s.{e}": tok_s[e] for e in GATED_ENGINES}
    metrics["ttft_ms"] = median(c.ttft_ns for cs in calls.values() for c in cs) / 1e6
    metrics["peak_rss_mb"] = rss
    metrics["setup_s"] = median(setup_ns) / 1e9
    report = {
        "rounds": r,
        "setup_reps": len(setup_ns),
        "tok_s": tok_s,
        "gap_samples": {e: sum(c.n_gaps for c in cs) for e, cs in calls.items()},
        "gap_p50_us": {e: median(c.gap_p50_ns for c in cs) / 1e3 for e, cs in calls.items()},
        f"gap_p{TAIL}_us": {e: median(c.gap_tail_ns for c in cs) / 1e3
                            for e, cs in calls.items()},
        "ttft_samples": sum(len(cs) for cs in calls.values()),
        # unscaled call times, and the median host-speed factor applied
        "raw_call_ms": {e: median(v) / 1e6 for e, v in raw_wall.items()},
        "speed_factor": {e: median(v) for e, v in factors.items()},
        "kernel_ms": median(cal.samples) / 1e6,
        "counters": {e: cs[0].counters for e, cs in calls.items()},
    }
    return metrics, report, ledger


def _time_ns(fn) -> int:
    return _timed_result(fn)[1]


def _timed_result(fn):
    t0 = now()
    result = fn()
    return result, now() - t0


def trace(seed: int, seconds: int, sizes: Sizes = FULL):
    """Traced run over all three workloads; returns (metrics, report, ledger)."""
    scratch, prompt, stu = Scratch(sizes), Prompt(sizes), Stu(sizes)
    s_in = scratch.setup(seed)
    p_in = prompt.setup(seed)
    u_in = stu.setup(seed)
    traced_stu = {e: stu.traced_model(u_in, e) for e in ENGINE_KINDS}
    ledger = Ledger()
    for e in ENGINE_KINDS:  # warm-up, checked but not timed
        ledger.run(scratch, s_in, "main", e, lambda: scratch.call(s_in, e))
        ledger.run(prompt, p_in, "main", e, lambda: prompt.call(p_in, e))
        ledger.run(stu, u_in, "main", e, lambda: stu.call(u_in, e))

    taps = s_in.phi.taps_array()
    prompt_taps = p_in.phi.taps_array()
    samples = defaultdict(list)
    untraced = defaultdict(list)
    traced = defaultdict(list)
    deadline = now() + seconds * 1_000_000_000
    r = 0
    while r < 1 or now() < deadline:
        again = stu.setup(seed)
        samples["bank"].append(again.bank_ns)
        for e in ENGINE_KINDS:
            samples[f"init.{e}"].append(again.init_ns[e])
        del again
        for m in CONV_SIZES:
            if 2 * m > taps.size:
                continue
            a, b = taps[:m], taps[:2 * m]
            reps = max(3, min(50, (1 << 16) // m))
            samples[f"conv.m{m}"] += [_time_ns(lambda: conv_full(a, b)) for _ in range(reps)]
        samples["conv.prefill"].append(_time_ns(lambda: conv_full(p_in.prompt, prompt_taps)))
        samples["prefill"].append(
            _time_ns(lambda: prefill(p_in.prompt, p_in.phi, prompt.budget)))
        for stamped in (False, True):
            samples[f"floor.{stamped}"].append(scratch.floor_ns_per_tok(s_in, stamped))
        for e in rotated(ENGINE_KINDS, r):
            pairs = [
                (scratch, s_in, lambda: scratch.call(s_in, e),
                 lambda: scratch.traced_call(s_in, e)),
                (stu, u_in, lambda: stu.call(u_in, e),
                 lambda: stu.traced_call(u_in, e, traced_stu[e])),
            ]
            for wl, inp, plain, hooked in pairs:
                order = [(False, plain), (True, hooked)]
                for is_traced, fn in (order if r % 2 == 0 else order[::-1]):
                    call = ledger.run(wl, inp, "main", e, fn, traced=is_traced)
                    if call is not None:
                        (traced if is_traced else untraced)[wl.name, e].append(call)
            call = ledger.run(prompt, p_in, "main", e, lambda: prompt.call(p_in, e))
            if call is not None:
                untraced[prompt.name, e].append(call)
        r += 1
    # the exact counters depend only on the configuration, not on the seed
    u_alt = stu.setup(seed + 1)
    for wl, inp in ((scratch, scratch.setup(seed + 1)), (prompt, prompt.setup(seed + 1)),
                    (stu, u_alt)):
        for e in ENGINE_KINDS:
            ledger.run(wl, inp, "second-seed", e, lambda: wl.call(inp, e))
    for e in ENGINE_KINDS:
        ledger.run(stu, u_alt, "second-seed", e,
                   lambda: stu.traced_call(u_alt, e, stu.traced_model(u_alt, e)), traced=True)
    keys = [(wl.name, e) for wl in (scratch, stu) for e in ENGINE_KINDS]
    if any(not traced[k] or not untraced[k] for k in keys) or any(
            not untraced[prompt.name, e] for e in ENGINE_KINDS):
        sys.exit("perfbench: a traced or untraced call never succeeded")

    def med_layer(wl_name, e, layer, scale):
        return median(c.layers[layer] for c in traced[wl_name, e]) / scale

    def med_wall(calls):
        return median(c.wall_ns for c in calls)

    metrics = {}
    for m in CONV_SIZES:
        got = samples.get(f"conv.m{m}")
        metrics[f"convolution.conv_full_us.m{m}"] = median(got) / 1e3 if got else 0.0
    metrics["convolution.conv_full_ms.prefill"] = median(samples["conv.prefill"]) / 1e6
    for wl in (scratch, prompt):
        for e in ENGINE_KINDS:
            counters = untraced[wl.name, e][0].counters
            metrics[f"convolution.transform_calls.{e}.{wl.name}"] = counters["transform_calls"]
            for c in COUNTERS:
                metrics[f"engines.{e}.{c}.{wl.name}"] = counters[c]
    for e in ENGINE_KINDS:
        counters = traced[stu.name, e][0].counters
        metrics[f"convolution.transform_calls.{e}.{stu.name}"] = counters["transform_calls"]
        for c in COUNTERS:
            metrics[f"engines.{e}.{c}.{stu.name}"] = counters[c]
    levels = traced[scratch.name, "continuous"][0].layers
    for k in range(MAX_LEVEL + 1):
        layer = f"level.k{k}"
        metrics[f"engines.continuous.level_ms.k{k}"] = (
            med_layer(scratch.name, "continuous", layer, 1e6) if layer in levels else 0.0)
    metrics["engines.epoched.step_ms"] = med_layer(scratch.name, "epoched", "step", 1e6)
    metrics["engines.epoched.rebuild_ms"] = med_layer(scratch.name, "epoched", "rebuild", 1e6)
    metrics["engines.naive.push_ms"] = med_layer(scratch.name, "naive", "push", 1e6)
    plain_floor = median(samples["floor.False"])
    metrics["generate.floor_ns_per_tok"] = plain_floor
    metrics["generate.stamp_ns_per_tok"] = median(samples["floor.True"]) - plain_floor
    for e in ENGINE_KINDS:
        metrics[f"generate.driver_ns_per_tok.{e}"] = med_layer(
            scratch.name, e, "driver", scratch.length)
    for (wl_name, e), cs in untraced.items():
        metrics[f"generate.gap_p50_us.{e}.{wl_name}"] = median(c.gap_p50_ns for c in cs) / 1e3
        if e == "naive":
            metrics[f"generate.tok_s.naive.{wl_name}"] = median(
                c.tokens * 1e9 / c.wall_ns for c in cs)
    metrics["generate.prefill_ms"] = median(samples["prefill"]) / 1e6
    for e in ENGINE_KINDS:
        metrics[f"generate.decode_ms.{e}"] = median(
            c.wall_ns - c.ttft_ns for c in untraced[prompt.name, e]) / 1e6
    for e in ENGINE_KINDS:
        metrics[f"spectral.step_us.{e}"] = med_layer(stu.name, e, "step", stu.length * 1e3)
        metrics[f"spectral.update_us.{e}"] = med_layer(stu.name, e, "update", stu.length * 1e3)
    metrics["spectral.pushes_per_step"] = (
        traced[stu.name, "continuous"][0].counters["pushes"] / stu.length)
    metrics["spectral.bank_ms"] = median(samples["bank"]) / 1e6
    for e in ENGINE_KINDS:
        metrics[f"spectral.model_init_ms.{e}"] = median(samples[f"init.{e}"]) / 1e6
    naive_wall = med_wall(untraced[scratch.name, "naive"])
    for e in ("epoched", "continuous"):
        metrics[f"derived.speedup.{e}"] = naive_wall / med_wall(untraced[scratch.name, e])
    for wl in (scratch, stu):
        for e in ENGINE_KINDS:
            plain, hooked = med_wall(untraced[wl.name, e]), med_wall(traced[wl.name, e])
            # tok_s is tokens / wall, so its relative drop is 1 - plain / hooked
            metrics[f"trace.overhead_pct.{wl.name}.{e}"] = (1.0 - plain / hooked) * 100.0
    report = {
        "rounds": r,
        "traced_call_ms": {f"{wl}.{e}": med_wall(cs) / 1e6 for (wl, e), cs in traced.items()},
        "untraced_call_ms": {f"{wl}.{e}": med_wall(cs) / 1e6
                             for (wl, e), cs in untraced.items()},
        "traced_calls": {f"{wl}.{e}": len(cs) for (wl, e), cs in traced.items()},
        # per traced call, the level times plus the driver time are the call time
        "scratch_continuous_ms": {
            "levels": sum(metrics[f"engines.continuous.level_ms.k{k}"]
                          for k in range(MAX_LEVEL + 1)),
            "driver": metrics["generate.driver_ns_per_tok.continuous"] * scratch.length / 1e6,
            "call": med_wall(traced[scratch.name, "continuous"]) / 1e6,
        },
    }
    return metrics, report, ledger


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "seed": seed,
        "commit": _git_commit(),
    }


def result_line(metrics: dict, units: dict, ledger: Ledger) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.trace:
        metrics, report, ledger = trace(args.seed, args.seconds)
        units = per_layer_units()
    else:
        metrics, report, ledger = measure(args.workload, args.seed, args.seconds)
        units = end_to_end_units()
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": environment(args.seed), **report}))
    print(json.dumps(result_line(metrics, units, ledger)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
