"""The three benchmark workloads: seeded inputs, timed calls, oracle checks.

Every workload runs all three engines at their default configuration.
Inputs come only from the workload seed, through the package's
SplitMix64 streams. A timed call stamps each emitted token with
``perf_counter_ns`` so that one call yields its wall time, its time to
first token and its inter-token gaps.

The traced variants hook in from outside only: an engine proxy passed
as ``generate_scratch(engine=...)``, an instance-level wrapper on
``StuModel.step``, and counting proxies handed to ``StuModel`` while it
builds its engines. Nothing under ``src/`` is changed to be measured.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

import streamconv.spectral as spectral_module
from streamconv import (
    ENGINE_KINDS,
    CostMeter,
    Filter,
    SpectralFilterBank,
    StuModel,
    clamp_token,
    conv_causal_reference,
    generate_prompted,
    generate_scratch,
    k_of_t,
    make_engine,
    ogd_spectral_step,
    oracle_prompted,
    spectral_filters,
    transform_calls,
)
from streamconv.rng import SplitMix64, stream_seed

now = time.perf_counter_ns

# Criterion 1's exactness budget: |out - ref| <= 1e-8 (1 + max |ref|).
TOLERANCE = 1e-8

# Small enough that online gradient descent on the stu-online inputs
# stays bounded: the squared feature norm per step is O(filters x dim).
STU_LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class Sizes:
    scratch_len: int
    prompt_len: int
    budget: int
    stu_len: int
    stu_filters: int
    stu_dim: int


FULL = Sizes(1 << 16, 1 << 18, 1 << 12, 1024, 16, 8)
TINY = Sizes(1 << 8, 1 << 10, 1 << 5, 64, 4, 2)


# The tail percentile of the inter-token gaps. On stu-online 10 of the
# 1023 gaps of an epoched call are cache rebuilds (0.98%), so p99 sits
# on the boundary between rebuild and plain steps and swings by more
# than 2x from run to run; p95 lies inside one population on every
# workload and still has 51 or more samples beyond it in each call.
# Even p95 spread by up to 0.6 of its median across runs on a shared
# 2-vCPU host, against 0.15 for the median gap, so it is reported
# beside the metrics rather than as one with a regression bound.
TAIL = 95


@dataclass
class Call:
    """One generation call: its timing, outputs and exact counters."""

    engine: str
    tokens: int
    wall_ns: int
    ttft_ns: int
    gap_p50_ns: float
    gap_tail_ns: float
    n_gaps: int
    outputs: np.ndarray | None
    counters: dict
    layers: dict = field(default_factory=dict)  # traced self times, ns

    def scale(self, factor: float) -> None:
        """Scale every time of the call by ``factor``."""
        self.wall_ns *= factor
        self.ttft_ns *= factor
        self.gap_p50_ns *= factor
        self.gap_tail_ns *= factor


def _unit_taps(stream: SplitMix64, n: int) -> np.ndarray:
    taps = stream.uniforms(n) * 2.0 - 1.0
    return taps / np.linalg.norm(taps)


def _stamping_clamp(stamps: list):
    """The clamp token map plus one perf_counter_ns append per token."""
    clamp = clamp_token()
    append = stamps.append

    def stamp(value: float) -> float:
        append(now())
        return clamp(value)

    return stamp


def _timed(engine: str, tokens: int, run) -> Call:
    """Time ``run(stamps)``, which appends one stamp per emitted token.

    ``run`` returns the outputs and the engine meter (or None); the
    call's counters are the meter plus its ``transform_calls()`` delta.
    """
    stamps: list = []
    gc.collect()
    before = transform_calls()
    start = now()
    outputs, meter = run(stamps)
    end = now()
    counters = meter.as_dict() if meter is not None else {}
    counters["transform_calls"] = transform_calls() - before
    stamps = np.asarray(stamps, dtype=np.int64)
    gaps = np.diff(stamps)
    p50, tail = np.percentile(gaps, [50, TAIL])
    return Call(engine, tokens, end - start, int(stamps[0] - start),
                float(p50), float(tail), gaps.size, outputs, counters)


def _within_tolerance(got: np.ndarray, ref: np.ndarray) -> bool:
    if got.shape != ref.shape or not np.isfinite(got).all():
        return False
    tol = TOLERANCE * (1.0 + float(np.max(np.abs(ref))))
    return float(np.max(np.abs(got - ref))) <= tol


class _TimedEngine:
    """Engine proxy that times each push and files it under a label.

    ``label(t)`` maps the 1-based step to an index of ``ns``.
    """

    def __init__(self, engine, label, n_labels: int):
        self._engine = engine
        self.ns = [0] * n_labels
        inner = engine.push
        ns = self.ns
        steps = [0]

        def push(sample: float) -> float:
            t0 = now()
            out = inner(sample)
            dt = now() - t0
            steps[0] += 1
            ns[label(steps[0])] += dt
            return out

        self.push = push

    @property
    def meter(self) -> CostMeter:
        return self._engine.meter


class _NoopEngine:
    """Engine proxy that does no work: the floor under the token loop."""

    meter = CostMeter()

    @staticmethod
    def push(sample: float) -> float:
        return 0.0


class _CountingEngine:
    """Engine proxy that counts pushes; handed to StuModel at construction."""

    def __init__(self, engine):
        self._engine = engine
        self.pushes = 0
        self.reset = engine.reset

    def push(self, sample: float) -> float:
        self.pushes += 1
        return self._engine.push(sample)

    @property
    def meter(self) -> CostMeter:
        return self._engine.meter


# ---------------------------------------------------------------- scratch-64k

@dataclass
class ScratchInputs:
    phi: Filter
    seed_token: float


class Scratch:
    """generate_scratch at L = 2^16 with unit-norm taps: the criterion-7 setup."""

    name = "scratch-64k"

    def __init__(self, sizes: Sizes):
        self.length = sizes.scratch_len

    def setup(self, seed: int) -> ScratchInputs:
        stream = SplitMix64(stream_seed(seed, 0))
        taps = _unit_taps(stream, self.length)
        return ScratchInputs(Filter(taps, self.length), stream.uniform() * 2.0 - 1.0)

    def call(self, inp: ScratchInputs, engine: str, proxy=None) -> Call:
        def run(stamps):
            result = generate_scratch(inp.phi, self.length, engine, inp.seed_token,
                                      _stamping_clamp(stamps), engine=proxy)
            return result.outputs.values, result.meter

        return _timed(engine, self.length, run)

    def traced_call(self, inp: ScratchInputs, engine: str) -> Call:
        """Like :meth:`call`, with every push timed and labelled.

        Continuous pushes are filed by level ``k_of_t(t, b)``, epoched
        ones as a rebuild when ``t % epoch_len == 0`` and as a step
        otherwise. The driver's share is the call time minus all pushes;
        it includes the proxy's own bookkeeping, which the tracing
        overhead shows.
        """
        real = make_engine(engine, inp.phi, self.length)
        if engine == "continuous":
            b = real.b
            proxy = _TimedEngine(real, lambda t: k_of_t(t, b), b + 1)
            names = [f"level.k{k}" for k in range(b + 1)]
        elif engine == "epoched":
            k = real.epoch_len
            proxy = _TimedEngine(real, lambda t: t % k == 0, 2)
            names = ["step", "rebuild"]
        else:
            proxy = _TimedEngine(real, lambda t: 0, 1)
            names = ["push"]
        call = self.call(inp, engine, proxy)
        call.layers = dict(zip(names, proxy.ns))
        call.layers["driver"] = call.wall_ns - sum(proxy.ns)
        return call

    def floor_ns_per_tok(self, inp: ScratchInputs, stamped: bool) -> float:
        """generate_scratch over a no-op engine: the bare token loop.

        With ``stamped`` the token map is the stamping clamp of the
        timed calls, otherwise the plain clamp.
        """
        stamps: list = []
        tmap = _stamping_clamp(stamps) if stamped else clamp_token()
        gc.collect()
        start = now()
        generate_scratch(inp.phi, self.length, seed_token=inp.seed_token,
                         token_map=tmap, engine=_NoopEngine)
        return (now() - start) / self.length

    def check(self, inp: ScratchInputs, outputs: np.ndarray) -> bool:
        """Oracle: direct summation over the tokens the engine was fed."""
        tokens = np.empty_like(outputs)
        tokens[0] = inp.seed_token
        np.clip(outputs[:-1], -1.0, 1.0, out=tokens[1:])
        ref = conv_causal_reference(tokens, inp.phi).values
        return _within_tolerance(outputs, ref)


# ---------------------------------------------------------------- prompt-long

@dataclass
class PromptInputs:
    prompt: np.ndarray
    phi: Filter
    reference: np.ndarray | None = None


class Prompt:
    """generate_prompted with a 2^18-sample prompt and a budget of 2^12."""

    name = "prompt-long"

    def __init__(self, sizes: Sizes):
        self.prompt_len = sizes.prompt_len
        self.budget = sizes.budget

    def setup(self, seed: int) -> PromptInputs:
        stream = SplitMix64(stream_seed(seed, 1))
        n_taps = self.prompt_len + self.budget
        taps = _unit_taps(stream, n_taps)
        prompt = stream.uniforms(self.prompt_len) * 2.0 - 1.0
        return PromptInputs(prompt, Filter(taps, n_taps))

    def call(self, inp: PromptInputs, engine: str) -> Call:
        def run(stamps):
            result = generate_prompted(inp.prompt, inp.phi, self.budget, engine,
                                       _stamping_clamp(stamps))
            return result.outputs.values, result.meter

        return _timed(engine, self.budget, run)

    def check(self, inp: PromptInputs, outputs: np.ndarray) -> bool:
        if inp.reference is None:
            inp.reference = oracle_prompted(
                inp.prompt, inp.phi, self.budget, clamp_token()).values
        return _within_tolerance(outputs, inp.reference)


# ----------------------------------------------------------------- stu-online

@dataclass
class StuInputs:
    bank: SpectralFilterBank
    projections: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    models: dict
    bank_ns: int
    init_ns: dict
    reference: np.ndarray | None = None


class Stu:
    """Full-mode StuModel, one online gradient step per token."""

    name = "stu-online"

    def __init__(self, sizes: Sizes):
        self.length = sizes.stu_len
        self.filters = sizes.stu_filters
        self.dim = sizes.stu_dim

    def setup(self, seed: int) -> StuInputs:
        stream = SplitMix64(stream_seed(seed, 2))
        n, k, d = self.length, self.filters, self.dim
        projections = (stream.uniforms(k * d * d).reshape(k, d, d) * 2.0 - 1.0) / (k * d)
        inputs = (stream.uniforms(n * d) * 2.0 - 1.0).reshape(n, d)
        targets = (stream.uniforms(n * d) * 2.0 - 1.0).reshape(n, d)
        start = now()
        bank = spectral_filters(n, k)
        bank_ns = now() - start
        models, init_ns = {}, {}
        for engine in ENGINE_KINDS:
            start = now()
            models[engine] = self._model(bank, projections, engine)
            init_ns[engine] = now() - start
        return StuInputs(bank, projections, inputs, targets, models, bank_ns, init_ns)

    def _model(self, bank: SpectralFilterBank, projections: np.ndarray,
               engine: str) -> StuModel:
        return StuModel(bank, projections=projections, engine_kind=engine,
                        max_steps=self.length)

    def call(self, inp: StuInputs, engine: str, model: StuModel | None = None) -> Call:
        if model is None:
            model = inp.models[engine]
        model.reset()
        model.projections[...] = inp.projections
        xs, ys = inp.inputs, inp.targets

        def run(stamps):
            preds = np.empty_like(ys)
            append = stamps.append
            for t in range(self.length):
                preds[t] = ogd_spectral_step(model, xs[t], ys[t], STU_LEARNING_RATE)
                append(now())
            return preds, None

        return _timed(engine, self.length, run)

    def traced_model(self, inp: StuInputs, engine: str) -> "TracedStu":
        """A model whose engines count pushes and whose ``step`` is timed.

        ``StuModel`` builds its engines through ``make_engine``; for the
        length of the constructor that name in the spectral module
        hands out counting proxies around the real engines.
        """
        engines = []

        def counting_make_engine(*args, **kwargs):
            engines.append(_CountingEngine(make_engine(*args, **kwargs)))
            return engines[-1]

        spectral_module.make_engine = counting_make_engine
        try:
            model = self._model(inp.bank, inp.projections, engine)
        finally:
            spectral_module.make_engine = make_engine
        traced = TracedStu(model, engines)
        inner = model.step

        def step(u_t):
            t0 = now()
            out = inner(u_t)
            traced.step_ns += now() - t0
            return out

        model.step = step
        return traced

    def traced_call(self, inp: StuInputs, engine: str, traced: "TracedStu") -> Call:
        traced.step_ns = 0
        for eng in traced.engines:
            eng.pushes = 0
        call = self.call(inp, engine, traced.model)
        for name in CostMeter().as_dict():
            call.counters[name] = sum(getattr(e.meter, name) for e in traced.engines)
        call.layers = {"step": traced.step_ns, "update": call.wall_ns - traced.step_ns}
        call.counters["pushes"] = sum(e.pushes for e in traced.engines)
        return call

    def check(self, inp: StuInputs, outputs: np.ndarray) -> bool:
        if inp.reference is None:
            inp.reference = self._reference(inp)
        return _within_tolerance(outputs, inp.reference)

    def _reference(self, inp: StuInputs) -> np.ndarray:
        """Replay of the gradient steps over oracle features.

        Feature (t, i, c) is input channel c convolved with filter i by
        direct summation; the projections then follow the same update.
        """
        n, k, d = self.length, self.filters, self.dim
        feats = np.empty((n, k, d))
        for i in range(k):
            phi = Filter(inp.bank.filter_at(i), n)
            for c in range(d):
                feats[:, i, c] = conv_causal_reference(inp.inputs[:, c], phi).values
        proj = inp.projections.copy()
        preds = np.empty((n, d))
        for t in range(n):
            preds[t] = np.einsum("ioc,ic->o", proj, feats[t])
            residual = preds[t] - inp.targets[t]
            proj -= (STU_LEARNING_RATE * 2.0) * residual[None, :, None] * feats[t][:, None, :]
        return preds


@dataclass
class TracedStu:
    model: StuModel
    engines: list
    step_ns: int = 0


WORKLOADS = {cls.name: cls for cls in (Scratch, Prompt, Stu)}
