"""Self-verification suites behind ``streamconv verify``.

Every suite checks a fast path against an independent slow oracle or
an exact combinatorial identity. Random instances are derived
deterministically from the given seed, so two runs with the same seed
produce identical reports (wall_ns aside). A failing suite serializes
the offending instance (parameters, derived seed, and the data itself
when small) so it can be replayed.

A suite is a function ``suite_<name>(res, seed, max_l)`` that records
each checked instance in the :class:`SuiteResult` it is given;
:func:`run_all` creates, names and times the results.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import quad

from . import convolution as conv
from .engines import (
    _BLOCK,
    ContinuousEngine,
    EpochedEngine,
    NaiveEngine,
    default_epoch_length,
    k_of_t,
)
from .errors import ConfigurationError
from .generate import clamp_token, generate_prompted, oracle_prompted
from .rng import stream_seed
from .signal import Filter
from .spectral import StuModel, hankel_entry, ogd_spectral_step, spectral_filters

DEFAULT_MAX_L = 4096


@dataclass
class SuiteResult:
    """The report of one suite."""

    name: str
    passed: bool = True
    instances: int = 0
    max_error: float = 0.0
    failures: list = field(default_factory=list)
    wall_ns: int = 0

    def check(self, error: float = 0.0) -> None:
        """Count one checked instance, keeping the largest error."""
        self.instances += 1
        self.max_error = max(self.max_error, error)

    def fail(self, **instance) -> None:
        """Mark the suite failed; the first 8 failing instances are kept."""
        self.passed = False
        if len(self.failures) < 8:
            self.failures.append(instance)

    def as_dict(self) -> dict:
        return asdict(self)


def _rng(seed: int, *parts) -> np.random.Generator:
    return np.random.default_rng(stream_seed(seed, *parts))


def _serialize(arr: np.ndarray, cap: int = 128):
    return [float(v) for v in arr[:cap]] + (["..."] if arr.size > cap else [])


def suite_futurefill(res: SuiteResult, seed: int, max_l: int) -> None:
    """Future-slice values vs direct summation and the full-conv slice."""
    rng = _rng(seed, 1)
    cap = min(max_l, 256)
    for idx in range(400):
        t1 = int(rng.integers(0, cap + 1))
        t2 = int(rng.integers(1, cap + 1))
        v = rng.uniform(-1, 1, t1)
        w = rng.uniform(-1, 1, t2)
        got = conv.futurefill(v, w).values
        direct = conv._futurefill_direct(v, w)
        slice_oracle = np.convolve(v, w)[t1:t1 + t2 - 1] if t1 and t2 > 1 else direct
        scale = 1.0 + (float(np.max(np.abs(direct))) if direct.size else 0.0)
        err = float(np.max(np.abs(got - direct))) / scale if direct.size else 0.0
        err_slice = (
            float(np.max(np.abs(got - slice_oracle))) / scale if direct.size else 0.0
        )
        err = max(err, err_slice)
        res.check(err)
        if err > 1e-10 or got.size != max(t2 - 1, 0):
            res.fail(case=idx, t1=t1, t2=t2, error=err,
                     v=_serialize(v), w=_serialize(w))


def suite_proposition_split(res: SuiteResult, seed: int, max_l: int) -> None:
    """Split identity: exhaustive at small lengths, randomized at max_l."""
    rng = _rng(seed, 2)
    for n in range(1, 33):
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        for t1 in range(1, n + 1):
            res.check()
            if not conv.split_check(a, b, t1):
                res.fail(n=n, t1=t1, a=_serialize(a), b=_serialize(b))
    n = min(max_l, 4096)
    a = rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, n)
    for t1 in sorted(set(int(x) for x in rng.integers(1, n + 1, 16))):
        res.check()
        if not conv.split_check(a, b, t1):
            res.fail(n=n, t1=t1)


def _oracle_outputs(u: np.ndarray, taps: np.ndarray) -> np.ndarray:
    return conv.conv_causal_reference(u, Filter(taps, max(1, u.size, taps.size))).values


def suite_oracle_equivalence(res: SuiteResult, seed: int, max_l: int) -> None:
    """All engines vs the direct-summation oracle.

    At the largest length the epoched engine at K = L / 8 and the
    continuous engine also run twice through one :class:`Filter`, whose
    store serves both: in the first run, the epoched rebuilds from t =
    4K on (at L = 4096) and the continuous level updates read tap
    spectra that earlier calls stored; in the second, every transformed
    call reads them.
    """
    rng = _rng(seed, 3)

    def check(u, taps, engines, tag, **instance):
        ref = _oracle_outputs(u, taps)
        tol = 1e-8 * (1.0 + (float(np.max(np.abs(ref))) if ref.size else 0.0))
        for eng in engines:
            got = eng.push_many(u)
            err = float(np.max(np.abs(got - ref))) if ref.size else 0.0
            res.check(err)
            if err > tol:
                res.fail(tag=tag, engine=eng.kind, L=u.size, error=err,
                         u=_serialize(u), taps=_serialize(taps), **instance)

    for length in range(1, 49):
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, length)
        epochs = sorted({1, default_epoch_length(length), length})
        engines = [NaiveEngine(taps, length), ContinuousEngine(taps, length)]
        engines += [EpochedEngine(taps, length, k) for k in epochs]
        check(u, taps, engines, "exhaustive")

    for length in sorted({max(2, max_l // 4), max(2, max_l // 2), max(2, max_l)}):
        for rep in range(2):
            u = rng.uniform(-1, 1, length)
            taps = rng.uniform(-1, 1, length)
            engines = [
                NaiveEngine(taps, length),
                ContinuousEngine(taps, length),
                EpochedEngine(taps, length),
            ]
            check(u, taps, engines, "random")
    # the last instance, at the largest length, through one Filter
    phi = Filter(taps, length)
    for call in range(2):
        engines = [EpochedEngine(phi, length, max(1, length // 8)), ContinuousEngine(phi, length)]
        check(u, taps, engines, "Filter", call=call)


def suite_cache_lemma(res: SuiteResult, seed: int, max_l: int) -> None:
    """No cache slot changes between the step that consumed it and the
    rebuild that ends its epoch.

    The continuous engine is one epoch; the epoched one at K = 2B + 3
    ends each epoch with a block of 3 slots, which its in-epoch levels
    fill. Every length crosses at least three block boundaries, whatever
    ``max_l``; one of them is not a power of two.
    """
    rng = _rng(seed, 4)
    for length in (3 * _BLOCK + 5, 4 * _BLOCK, 5 * _BLOCK + 3):
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, length)
        for eng in (ContinuousEngine(taps, length), EpochedEngine(taps, length, 2 * _BLOCK + 3)):
            k = getattr(eng, "epoch_len", length)
            frozen = np.empty(k)
            for t in range(length):
                p = t % k
                frozen[p] = eng.cache[p]  # the slot this push reads
                eng.push(u[t])
                if p == k - 1 and t + 1 < length:
                    continue  # this push rebuilt the cache for the next epoch
                # the slots of this epoch read so far must still hold what was read
                if not np.array_equal(eng.cache[:p + 1], frozen[:p + 1]):
                    res.fail(engine=eng.kind, L=length, step=t + 1)
                res.check()


def suite_cost_bounds(res: SuiteResult, seed: int, max_l: int) -> None:
    """Exact counter identities and the quasilinear cost bound."""
    for length in (15, 64, 100, 257, min(1024, max_l)):
        zeros = np.zeros(length)
        taps = np.ones(length)
        naive = NaiveEngine(taps, length)
        naive.push_many(zeros)
        res.check()
        if naive.meter.mac_count != length * (length + 1) // 2:
            res.fail(check="naive_mac", L=length, got=naive.meter.mac_count)

        epoched = EpochedEngine(taps, length)
        k = epoched.epoch_len
        epoched.push_many(zeros)
        res.check()
        if epoched.meter.cache_rebuilds != length // k:
            res.fail(check="rebuilds", L=length, K=k,
                     got=epoched.meter.cache_rebuilds)
        if epoched.meter.peak_aux_elems > 4 * k:
            res.fail(check="epoched_aux", L=length, K=k,
                     got=epoched.meter.peak_aux_elems)

    length = 2
    while length <= max_l:
        taps = np.ones(length)
        eng = ContinuousEngine(taps, length)
        eng.push_many(np.zeros(length))
        b = length.bit_length() - 1
        expected = 0
        for t in range(1, length + 1):
            k = k_of_t(t, b)
            expected += (k if k else 1) << k
        bound = 3 * length * b * b
        res.check()
        if eng.meter.ff_cost != expected:
            res.fail(check="ff_cost_sum", L=length,
                     got=eng.meter.ff_cost, expected=expected)
        if eng.meter.ff_cost > bound:
            res.fail(check="ff_cost_bound", L=length,
                     got=eng.meter.ff_cost, bound=bound)
        length *= 4


def suite_prompted_oracle(res: SuiteResult, seed: int, max_l: int) -> None:
    """Prompted generation vs the direct recurrence oracle.

    Each case runs once with plain array taps and once through a
    :class:`Filter` with two prompts, half length then full (clamp
    token map). The three engine kinds of one prompt share the Filter's
    store: the first prefill stores the tap spectra (at K = 512 once
    the prompt holds 1537 samples) and the other two read them. The
    full-length prompt needs more segments than the half-length one
    stored, so it transforms them all again.
    """
    rng = _rng(seed, 5)

    def check(p, taps, k, kind, tmap=None, **instance):
        want = oracle_prompted(p, taps, k, tmap).values
        got = generate_prompted(p, taps, k, kind, tmap).outputs.values
        err = float(np.max(np.abs(got - want)))
        res.check(err)
        if err > 1e-8 * (1.0 + float(np.max(np.abs(want)))):
            if isinstance(taps, Filter):
                taps = taps.taps_array()
            res.fail(L_prompt=p.size, K=k, engine=kind, error=err, p=_serialize(p),
                     taps=_serialize(taps), **instance)

    cases = [(p_len, k) for p_len in range(0, 25, 3) for k in range(1, 25, 3)]
    for p_len, k in cases:
        p = rng.uniform(-1, 1, p_len)
        taps = rng.uniform(-1, 1, p_len + k)
        for kind in ("naive", "epoched", "continuous"):
            check(p, taps, k, kind)
    frng = _rng(seed, 7)
    if max_l // 2 >= 1537:
        cases.append((max_l, 512))
    for p_len, k in cases:
        phi = Filter(frng.uniform(-1, 1, p_len + k))
        for call, n in enumerate((p_len // 2, p_len)):
            p = frng.uniform(-1, 1, n)
            for kind in ("naive", "epoched", "continuous"):
                check(p, phi, k, kind, clamp_token(), through="Filter", call=call)
    # cache size stays pinned to the budget as the prompt grows
    k = 64
    for p_len in (256, 1024, min(4096, max_l)):
        p = rng.uniform(-1, 1, p_len)
        taps = rng.uniform(-1, 1, p_len + k)
        result = generate_prompted(p, taps, k, "continuous")
        res.check()
        if result.decode_peak_aux_elems > 4 * k:
            res.fail(check="decode_aux", L_prompt=p_len, K=k,
                     got=result.decode_peak_aux_elems)
        if result.prefill_transform_calls != 1:
            res.fail(check="prefill_calls", L_prompt=p_len, K=k,
                     got=result.prefill_transform_calls)


def suite_hankel(res: SuiteResult, seed: int, max_l: int) -> None:
    """Closed-form entries vs quadrature; bank orthonormality."""
    for n in range(2, 65):
        integral, _ = quad(lambda a: (a - 1.0) ** 2 * a ** (n - 2), 0.0, 1.0,
                           epsabs=1e-14, epsrel=1e-14)
        err = abs(hankel_entry(1, n - 1) - integral)
        res.check(err)
        if err > 1e-12:
            res.fail(check="quadrature", n=n, error=err)

    bank = spectral_filters(64, 8)
    gram = bank.filters.T @ bank.filters
    ortho_err = float(np.max(np.abs(gram - np.eye(8))))
    res.check(ortho_err)
    if ortho_err > 1e-8:
        res.fail(check="orthonormal", error=ortho_err)
    vals = bank.eigenvalues
    res.check()
    if np.any(vals < 0) or np.any(np.diff(vals) > 0):
        res.fail(check="eigenvalue_order", values=_serialize(vals))


def suite_gradient(res: SuiteResult, seed: int, max_l: int) -> None:
    """Analytic projection gradient vs central finite differences."""
    rng = _rng(seed, 6)
    d, k, length, steps = 3, 2, 16, 6
    bank = spectral_filters(length, k)
    for rep in range(3):
        proj = rng.standard_normal((k, d, d)) * 0.3
        us = rng.uniform(-1, 1, (steps, d))
        ys = rng.uniform(-1, 1, (steps, d))

        # analytic gradient of the final step's loss
        model = StuModel(bank, projections=proj.copy(), engine_kind="naive",
                         max_steps=steps)
        for t in range(steps - 1):
            model.step(us[t])
        y_hat = model.step(us[-1])
        feats = model.last_features
        residual = y_hat - ys[-1]
        eps = 1e-6
        analytic_all = []
        for i in range(k):
            analytic = 2.0 * np.outer(residual, feats[i])
            analytic_all.append(analytic)
            numeric = np.empty_like(analytic)
            for r in range(d):
                for c in range(d):
                    up = proj.copy(); up[i, r, c] += eps
                    dn = proj.copy(); dn[i, r, c] -= eps
                    lp = _final_step_loss(bank, up, us, ys, steps)
                    lm = _final_step_loss(bank, dn, us, ys, steps)
                    numeric[r, c] = (lp - lm) / (2 * eps)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            err = float(np.max(np.abs(analytic - numeric))) / scale
            res.check(err)
            if err > 1e-5:
                res.fail(rep=rep, filter=i, error=err)

        # the shipped update must apply exactly -lr * analytic gradient
        lr = 0.05
        fresh = StuModel(bank, projections=proj.copy(), engine_kind="naive",
                         max_steps=steps)
        for t in range(steps - 1):
            fresh.step(us[t])
        ogd_spectral_step(fresh, us[-1], ys[-1], lr)
        res.check()
        for i in range(k):
            want = proj[i] - lr * analytic_all[i]
            if not np.allclose(fresh.projections[i], want, atol=1e-12):
                res.fail(rep=rep, check="update_rule", filter=i)


def _final_step_loss(bank, proj, us, ys, steps):
    model = StuModel(bank, projections=proj, engine_kind="naive", max_steps=steps)
    for t in range(steps - 1):
        model.step(us[t])
    r = model.step(us[-1]) - ys[-1]
    return float(r @ r)


ALL_SUITES = (
    suite_oracle_equivalence,
    suite_futurefill,
    suite_proposition_split,
    suite_cache_lemma,
    suite_cost_bounds,
    suite_prompted_oracle,
    suite_hankel,
    suite_gradient,
)


def run_all(seed: int = 0, max_l: int = DEFAULT_MAX_L) -> list[SuiteResult]:
    """Run every suite into a result named after it, timing each."""
    if max_l < 2:
        raise ConfigurationError(f"--max-L must be >= 2, got {max_l}")
    results = []
    for suite in ALL_SUITES:
        res = SuiteResult(suite.__name__.removeprefix("suite_"))
        started = time.perf_counter_ns()
        suite(res, seed, max_l)
        res.wall_ns = time.perf_counter_ns() - started
        results.append(res)
    return results


def report(results: list[SuiteResult], seed: int, max_l: int) -> dict:
    return {
        "seed": seed,
        "max_L": max_l,
        "all_passed": all(r.passed for r in results),
        "suites": [r.as_dict() for r in results],
    }


def report_json(results: list[SuiteResult], seed: int, max_l: int) -> str:
    return json.dumps(report(results, seed, max_l), sort_keys=True, indent=2)
