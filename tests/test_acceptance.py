"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run pytest with
``-s`` to see them) and enforces the criterion's stated tolerance and
runtime budget. Run via ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from streamconv import (
    ContinuousEngine,
    EpochedEngine,
    Filter,
    clamp_token,
    conv_causal_reference,
    futurefill,
    generate_prompted,
    generate_scratch,
    k_of_t,
    optimal_epoch_length,
    oracle_prompted,
    split_check,
)
from streamconv.bench import fit_slope, run_bench
from streamconv.spectral import StuModel, hankel_entry, ogd_spectral_step, spectral_filters


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {title}{suffix}"


def oracle(u, taps):
    return conv_causal_reference(u, Filter(taps, max(1, len(u)))).values


def engine_set(taps, length):
    epochs = {1, max(1, int(math.isqrt(length))), length}
    if length >= 2:
        epochs.add(optimal_epoch_length(length))
    engines = [EpochedEngine(taps, length, k) for k in sorted(epochs)]
    engines.append(ContinuousEngine(taps, length))
    return engines


def test_criterion_1_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0

    def run_case(length):
        nonlocal worst
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, length)
        ref = oracle(u, taps)
        tol = 1e-8 * (1.0 + np.max(np.abs(ref)))
        for eng in engine_set(taps, length):
            err = float(np.max(np.abs(eng.push_many(u) - ref)))
            worst = max(worst, err)
            assert err <= tol, (eng.kind, getattr(eng, "epoch_len", None), length, err)

    for length in range(1, 257):
        run_case(length)
    for length in (1 << 10, 1 << 12, 1 << 14):
        for _ in range(50):
            run_case(length)
    elapsed = time.perf_counter() - started
    report(1, "oracle equivalence", elapsed < 120.0,
           f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_futurefill_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        t1 = int(rng.integers(1, 257))
        t2 = int(rng.integers(2, 257))
        v = rng.uniform(-1, 1, t1)
        w = rng.uniform(-1, 1, t2)
        got = futurefill(v, w).values
        want = np.convolve(v, w)[t1:t1 + t2 - 1]  # independent direct method
        err = float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.perf_counter() - started
    report(2, "future-slice identity", elapsed < 10.0,
           f"1000 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_split_identity():
    rng = np.random.default_rng(103)
    checked = 0
    for n in range(1, 65):
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        for t1 in range(1, n + 1):
            assert split_check(a, b, t1), (n, t1)
            checked += 1
    n = 1 << 12
    a = rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, n)
    for t1 in sorted(set(int(x) for x in rng.integers(1, n + 1, 24)) | {1, n}):
        assert split_check(a, b, t1), t1
        checked += 1
    report(3, "split identity", True, f"{checked} split points, zero failures")


def test_criterion_4_epoched_accounting():
    assert optimal_epoch_length(65536) == 1024
    for exp in range(10, 18):
        length = 1 << exp
        k = optimal_epoch_length(length)
        eng = EpochedEngine(np.ones(length), length, k)
        eng.push_many(np.zeros(length))
        assert eng.meter.cache_rebuilds == length // k, length
        assert eng.meter.peak_aux_elems <= 4 * k, length
    report(4, "epoched cache accounting", True,
           "rebuilds = floor(L/K), aux <= 4K, K(65536) = 1024")


def test_criterion_5_continuous_accounting():
    worst_ratio = 0.0
    exp = 1
    while (1 << exp) <= (1 << 17):
        length = 1 << exp
        eng = ContinuousEngine(np.ones(length), length)
        eng.push_many(np.zeros(length))  # every schedule level, to the horizon
        expected = sum(max(1, k_of_t(t, exp)) << k_of_t(t, exp)
                       for t in range(1, length + 1))
        assert eng.meter.ff_cost == expected, length
        bound = 3 * length * exp * exp
        assert eng.meter.ff_cost <= bound, length
        worst_ratio = max(worst_ratio, eng.meter.ff_cost / bound)
        exp += 1
    report(5, "continuous cost accounting", True,
           f"schedule sum exact, max bound usage {worst_ratio:.2f}")


def test_criterion_6_counter_slopes():
    started = time.perf_counter()
    lengths = [1 << p for p in range(12, 18)]
    records = run_bench(["naive", "epoched", "continuous"], lengths,
                        trials=1, warmup=0, seed=106)
    naive = fit_slope(records, "mac_count", "naive").slope
    continuous = fit_slope(records, "mac_count+ff_cost", "continuous").slope
    epoched = fit_slope(records, "mac_count+ff_cost", "epoched").slope
    elapsed = time.perf_counter() - started
    ok = (abs(naive - 2.0) <= 0.02 and continuous <= 1.35
          and 1.40 <= epoched <= 1.65 and elapsed < 300.0)
    report(6, "counter scaling slopes", ok,
           f"naive {naive:.3f}, continuous {continuous:.3f}, "
           f"epoched {epoched:.3f}, {elapsed:.1f}s")


def test_criterion_7_wall_clock_crossover():
    length = 1 << 16
    rng = np.random.default_rng(107)
    taps = rng.uniform(-1, 1, length)
    taps /= np.linalg.norm(taps)
    phi = Filter(taps, length)
    walls = {}
    for kind in ("naive", "epoched", "continuous"):
        times = []
        for _ in range(3):  # measurement protocol: drop first, mean of rest
            t0 = time.perf_counter()
            generate_scratch(phi, length, kind, 0.5, clamp_token())
            times.append(time.perf_counter() - t0)
        walls[kind] = sum(times[1:]) / 2
    r_cont = walls["naive"] / walls["continuous"]
    r_epoch = walls["naive"] / walls["epoched"]
    report(7, "wall-clock speedup at 2^16", r_cont >= 3.0 and r_epoch >= 3.0,
           f"continuous {r_cont:.2f}x, epoched {r_epoch:.2f}x vs naive "
           f"{walls['naive']:.2f}s")


def test_criterion_8_prompted_generation():
    rng = np.random.default_rng(108)
    worst = 0.0
    for p_len in range(0, 65):
        for k in range(1, 65):
            p = rng.uniform(-1, 1, p_len)
            taps = rng.uniform(-1, 1, p_len + k)
            want = oracle_prompted(p, taps, k).values
            got = generate_prompted(p, taps, k).outputs.values
            tol = 1e-9 * (1.0 + np.max(np.abs(want)))
            err = float(np.max(np.abs(got - want)))
            worst = max(worst, err / (1.0 + np.max(np.abs(want))))
            assert err <= tol, (p_len, k)

    k = 256
    peaks = set()
    for p_len in (1 << 10, 1 << 13, 1 << 15):
        p = rng.uniform(-1, 1, p_len)
        taps = rng.uniform(-1, 1, p_len + k)
        result = generate_prompted(p, taps, k, "continuous")
        assert result.prefill_transform_calls == 1
        assert result.decode_peak_aux_elems <= 4 * k
        peaks.add(result.decode_peak_aux_elems)
    assert len(peaks) == 1  # independent of prompt length
    report(8, "prompted generation", True,
           f"4160 grid cases, max rel err {worst:.2e}; "
           f"decode aux {peaks.pop()} <= {4 * k}")


def test_criterion_9_spectral_module():
    for n in range(2, 65):
        integral, _ = quad(lambda a: (a - 1.0) ** 2 * a ** (n - 2), 0.0, 1.0,
                           epsabs=1e-14, epsrel=1e-14)
        assert abs(hankel_entry(1, n - 1) - integral) <= 1e-12, n

    bank = spectral_filters(64, 8)
    gram = bank.filters.T @ bank.filters
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-8

    rng = np.random.default_rng(109)
    d, k, length, steps = 3, 2, 16, 5
    small_bank = spectral_filters(length, k)
    proj = rng.standard_normal((k, d, d)) * 0.3
    us = rng.uniform(-1, 1, (steps, d))
    ys = rng.uniform(-1, 1, (steps, d))

    def final_loss(p):
        model = StuModel(small_bank, projections=p, engine_kind="naive",
                         max_steps=steps)
        for t in range(steps - 1):
            model.step(us[t])
        r = model.step(us[-1]) - ys[-1]
        return float(r @ r)

    model = StuModel(small_bank, projections=proj.copy(), engine_kind="naive",
                     max_steps=steps)
    for t in range(steps - 1):
        model.step(us[t])
    residual = model.step(us[-1]) - ys[-1]
    feats = model.last_features
    eps = 1e-6
    grad_err = 0.0
    for i in range(k):
        analytic = 2.0 * np.outer(residual, feats[i])
        numeric = np.empty((d, d))
        for r in range(d):
            for c in range(d):
                up = proj.copy(); up[i, r, c] += eps
                dn = proj.copy(); dn[i, r, c] -= eps
                numeric[r, c] = (final_loss(up) - final_loss(dn)) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        grad_err = max(grad_err, float(np.max(np.abs(analytic - numeric))) / scale)
    assert grad_err <= 1e-5

    train_steps = 2000
    teacher = StuModel(small_bank, projections=rng.standard_normal((k, d, d)),
                       engine_kind="naive", max_steps=train_steps)
    student = StuModel(small_bank, projections=np.zeros((k, d, d)),
                       engine_kind="naive", max_steps=train_steps)
    losses = []
    for _ in range(train_steps):
        u = rng.uniform(-1, 1, d)
        y = teacher.step(u)
        y_hat = ogd_spectral_step(student, u, y, learning_rate=0.01)
        losses.append(float(np.sum((y_hat - y) ** 2)))
    decile = train_steps // 10
    first, last = np.mean(losses[:decile]), np.mean(losses[-decile:])
    assert last < first
    report(9, "spectral module", True,
           f"gradient err {grad_err:.2e}; loss {first:.3e} -> {last:.3e}")


def test_criterion_10_cli_determinism():
    started = time.perf_counter()
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "streamconv.cli", "verify",
             "--seed", "7", "--json"],
            capture_output=True, text=True, timeout=280,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(re.sub(r'"wall_ns": \d+', '"wall_ns": 0', proc.stdout))
    elapsed = time.perf_counter() - started
    identical = outputs[0] == outputs[1]
    json.loads(outputs[0])  # well-formed
    report(10, "CLI verify determinism", identical and elapsed < 300.0,
           f"two runs byte-identical (wall_ns aside), {elapsed:.1f}s total")
