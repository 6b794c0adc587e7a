"""Print the epoched engine's time per token against its epoch length K.

Usage, from the root of a checkout::

    python3 tools/epoch_curve.py [--min-exp 12] [--max-exp 20] [--calls 3] > curve.json

For each L = 2**e from ``--min-exp`` to ``--max-exp`` it times scratch
generation (``generate_scratch``, clamp token map, random unit-norm
taps as long as L) on the epoched engine at K = c * K0 for c in 1, 2,
4, 8, 16, where K0 = ``optimal_epoch_length(L)`` = round(sqrt(L log2
L)) is the paper's optimum (the multiples not below L are left out),
and at K = L, and on the continuous engine as the reference. Every
configuration has its own ``Filter``, filled by one untimed call; then
``--calls`` rounds each time one call of every configuration, in turn,
so a change of the host's speed falls on all of them alike.

Each point gives the least ns per token over the rounds and the median,
the call's ``peak_aux_elems`` (the cache) and ``filter_spectra_elems``
(the Filter's tap-spectra store after the calls), and whether K is the
engine's default (``default_epoch_length``). It imports the
``streamconv`` sources of its own checkout and runs on one BLAS thread,
as ``perfbench/run.py`` sets it. Standard output is one JSON object;
standard error gets one progress line per L.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# One compute thread: fixed before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from streamconv import Filter, clamp_token, generate_scratch, optimal_epoch_length  # noqa: E402
from streamconv.engines import default_epoch_length  # noqa: E402
from streamconv.rng import SplitMix64, stream_seed  # noqa: E402

MULTIPLES = (1, 2, 4, 8, 16)
SEED = 22


def configurations(length: int) -> list[tuple[str, str, int | None]]:
    """``(label, engine kind, K)`` of every point at one length."""
    k0 = optimal_epoch_length(length)
    out = [(f"{c}x", "epoched", c * k0) for c in MULTIPLES if c * k0 < length]
    return out + [("L", "epoched", length), ("continuous", "continuous", None)]


def curve_at(length: int, calls: int) -> list[dict]:
    taps = SplitMix64(stream_seed(SEED, length)).uniforms(length) * 2.0 - 1.0
    taps /= np.linalg.norm(taps)
    token_map = clamp_token()
    points = []
    for label, kind, k in configurations(length):
        phi = Filter(taps, length)
        result = generate_scratch(phi, length, kind, 0.5, token_map, k)  # fills the store
        points.append({"config": label, "engine": kind, "K": k, "phi": phi, "ns": [],
                       "peak_aux_elems": result.meter.peak_aux_elems})
    for _ in range(calls):
        for p in points:
            t0 = time.perf_counter_ns()
            result = generate_scratch(p["phi"], length, p["engine"], 0.5, token_map, p["K"])
            p["ns"].append((time.perf_counter_ns() - t0) / length)
            p["filter_spectra_elems"] = result.filter_spectra_elems
    for p in points:
        ns = p.pop("ns")
        del p["phi"]
        p["default"] = p["K"] == default_epoch_length(length)
        p["min_ns_per_token"] = round(min(ns), 1)
        p["median_ns_per_token"] = round(statistics.median(ns), 1)
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-exp", type=int, default=12)
    parser.add_argument("--max-exp", type=int, default=20)
    parser.add_argument("--calls", type=int, default=3, help="timed rounds per length")
    args = parser.parse_args(argv)
    if not 1 <= args.min_exp <= args.max_exp or args.calls < 1:
        parser.error("need 1 <= --min-exp <= --max-exp and --calls >= 1")
    curve = {}
    for e in range(args.min_exp, args.max_exp + 1):
        curve[f"2^{e}"] = curve_at(1 << e, args.calls)
        print(f"2^{e} done", file=sys.stderr)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count()}
    print(json.dumps({"environment": env, "calls": args.calls, "curve": curve}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
