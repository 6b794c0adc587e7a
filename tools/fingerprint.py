"""Print one SHA-256 digest of everything the engines compute and count.

Usage, from the root of a checkout::

    python3 tools/fingerprint.py

It imports the ``streamconv`` sources of its own checkout, so running it
in two checkouts tells whether a change moved any arithmetic: equal
digests mean bitwise-equal outputs, ``CostMeter`` counters,
``transform_calls()`` deltas per call, engine caches and Filter store
sizes. It covers the shapes of the three benchmark workloads:

- generation from scratch at 2**16, every engine over a ``Filter`` and
  both fast engines over array taps;
- a 2**18-sample prompt at a budget of 2**12, every engine over a
  ``Filter``, and ``prefill`` over array taps;
- the full-mode ``StuModel`` of 16 filters over 8 dimensions at 1024
  steps, every engine, two calls with a ``reset`` between them;
- ``conv_full`` and ``futurefill`` on the direct and transform paths.

Every call runs twice, so a second call that reads a store filled by
the first is covered too. Inputs come from the package's SplitMix64
streams. One BLAS thread, as ``perfbench/run.py`` sets it.

Standard error gets one ``label sha256`` line per value added to the
digest, so when two checkouts' digests differ, a ``diff`` of their
standard errors names the entries that moved::

    python3 tools/fingerprint.py 2> entries.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

# One compute thread: fixed before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from streamconv import (  # noqa: E402
    ENGINE_KINDS,
    Filter,
    StuModel,
    clamp_token,
    conv_full,
    futurefill,
    generate_prompted,
    generate_scratch,
    make_engine,
    ogd_spectral_step,
    prefill,
    spectral_filters,
    transform_calls,
)
from streamconv.rng import SplitMix64, stream_seed  # noqa: E402

SEED = 20
SCRATCH_LEN = 1 << 16
PROMPT_LEN, BUDGET = 1 << 18, 1 << 12
STU_LEN, STU_FILTERS, STU_DIM = 1024, 16, 8
FAST = ("epoched", "continuous")


class Digest:
    """A SHA-256 over a sequence of labelled values."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value, dtype=np.float64)
            data = repr(value.shape).encode() + value.tobytes()
        else:
            data = repr(value).encode()
        self._h.update(label.encode() + b"\0" + data + b"\0")
        print(label, hashlib.sha256(data).hexdigest(), file=sys.stderr)

    def call(self, label: str, run) -> None:
        """Run ``run()`` and add what it returns with its transform_calls delta."""
        before = transform_calls()
        values = run()
        self.add(label + ".transform_calls", transform_calls() - before)
        for name, value in values.items():
            self.add(f"{label}.{name}", value)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _uniforms(stream: SplitMix64, n: int) -> np.ndarray:
    return stream.uniforms(n) * 2.0 - 1.0


def _result(result) -> dict:
    return {"outputs": result.outputs.values, "meter": result.meter.as_dict(),
            "prefill_transform_calls": result.prefill_transform_calls,
            "decode_peak_aux_elems": result.decode_peak_aux_elems,
            "filter_spectra_elems": result.filter_spectra_elems}


def scratch(d: Digest) -> None:
    stream = SplitMix64(stream_seed(SEED, 0))
    taps = _uniforms(stream, SCRATCH_LEN)
    taps /= np.linalg.norm(taps)
    seed_token = stream.uniform()
    phi = Filter(taps, SCRATCH_LEN)
    runs = [(kind, phi) for kind in ENGINE_KINDS] + [(kind, taps) for kind in FAST]
    for kind, over in runs:
        label = f"scratch.{kind}.{'filter' if over is phi else 'array'}"
        for i in range(2):
            def run():
                engine = make_engine(kind, over, SCRATCH_LEN)
                values = _result(generate_scratch(over, SCRATCH_LEN, kind, seed_token,
                                                  clamp_token(), engine=engine))
                if kind != "naive":
                    values["cache"] = engine.cache
                return values

            d.call(f"{label}.{i}", run)


def prompted(d: Digest) -> None:
    stream = SplitMix64(stream_seed(SEED, 1))
    taps = _uniforms(stream, PROMPT_LEN + BUDGET)
    taps /= np.linalg.norm(taps)
    prompt = _uniforms(stream, PROMPT_LEN)
    phi = Filter(taps, taps.size)
    for kind in ENGINE_KINDS:
        for i in range(2):
            d.call(f"prompted.{kind}.{i}", lambda: _result(
                generate_prompted(prompt, phi, BUDGET, kind, clamp_token())))
    for i in range(2):
        def run():
            cache = prefill(prompt, taps, BUDGET)
            return {"contributions": cache.contributions.values,
                    "transform_calls": cache.transform_calls,
                    "filter_spectra_elems": cache.filter_spectra_elems}

        d.call(f"prefill.array.{i}", run)


def stu(d: Digest) -> None:
    stream = SplitMix64(stream_seed(SEED, 2))
    n, k, dim = STU_LEN, STU_FILTERS, STU_DIM
    projections = _uniforms(stream, k * dim * dim).reshape(k, dim, dim) / (k * dim)
    inputs = _uniforms(stream, n * dim).reshape(n, dim)
    targets = _uniforms(stream, n * dim).reshape(n, dim)
    bank = spectral_filters(n, k)
    for kind in ENGINE_KINDS:
        model = StuModel(bank, projections=projections, engine_kind=kind, max_steps=n)
        for i in range(2):
            def run():
                model.reset()
                model.projections[...] = projections
                preds = np.array([ogd_spectral_step(model, inputs[t], targets[t], 1e-3)
                                  for t in range(n)])
                values = {"outputs": preds, "meter": model.engine.meter.as_dict(),
                          "projections": model.projections}
                if kind != "naive":
                    values["cache"] = model.engine.cache
                return values

            d.call(f"stu.{kind}.{i}", run)


def primitives(d: Digest) -> None:
    stream = SplitMix64(stream_seed(SEED, 3))
    for name, op, la, lb in (("conv_full", conv_full, 7, 5),
                             ("conv_full", conv_full, 3000, 5000),
                             ("futurefill", futurefill, 100, 50),
                             ("futurefill", futurefill, 4096, 4096)):
        a, b = _uniforms(stream, la), _uniforms(stream, lb)
        for i in range(2):
            d.call(f"{name}.{la}x{lb}.{i}", lambda: {"outputs": op(a, b).values})


def main() -> None:
    d = Digest()
    for part in (scratch, prompted, stu, primitives):
        part(d)
    print(d.hexdigest())


if __name__ == "__main__":
    main()
