import copy
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamconv import (
    ENGINE_KINDS,
    ConfigurationError,
    ContinuousEngine,
    CostMeter,
    EpochedEngine,
    Filter,
    HorizonError,
    NaiveEngine,
    conv_causal_reference,
    k_of_t,
    make_engine,
    optimal_epoch_length,
)
from streamconv.convolution import next_pow2
from streamconv.engines import _BLOCK


def oracle(u, taps):
    return conv_causal_reference(u, Filter(taps, max(1, len(u), len(taps)))).values


def assert_matches_oracle(engine, u, taps, tol_scale=1e-8):
    ref = oracle(u, taps)
    got = engine.push_many(u)
    tol = tol_scale * (1.0 + (np.max(np.abs(ref)) if ref.size else 0.0))
    assert np.max(np.abs(got - ref)) <= tol if ref.size else True


def push_run(eng, x, n, feed):
    """``run``'s contract as a loop of ``push`` calls: its reference."""
    outs = []
    for i in range(n):
        outs.append(eng.push(x))
        if i < n - 1:
            x = feed(outs[-1])
    return outs


def clamp(y):
    return -1.0 if y < -1.0 else 1.0 if y > 1.0 else y


def clamp_feed(seen):
    """A closed-loop feed that records every output it is given."""
    def feed(y):
        seen.append(y)
        return clamp(y)
    return feed


def samples_feed(xs):
    """An open-loop feed: the next of ``xs``, whatever the output."""
    rest = iter(xs)
    return lambda y: next(rest)


def assert_bitwise(got, want, msg=""):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), msg


def check_run(make, u, split, msg):
    """``run`` on engines from ``make()`` against a push loop over ``u``:
    closed loop, n = 0, split across calls with a push between, after
    ``reset``, and resumed by copies and pickles at ``split``."""
    n = len(u)
    ref, eng = make(), make()
    want_seen, seen = [], []
    want = push_run(ref, u[0], n, clamp_feed(want_seen))
    got = eng.run(u[0], n, clamp_feed(seen))
    assert_bitwise(got, want, msg)
    assert_bitwise(seen, want_seen, msg)
    assert len(seen) == n - 1 and eng.steps == n and eng.meter == ref.meter, msg

    def never(y):
        raise AssertionError("a run of 0 pushes called its feed")

    assert eng.run(u[0], 0, never) == [] and eng.steps == n, msg
    # open loop, split across two runs with a push between them
    eng.reset()
    assert eng.run(u[0], 0, never) == [] and eng.steps == 0, msg
    parts = eng.run(u[0], split, samples_feed(u[1:]))
    if split < n:
        parts.append(eng.push(u[split]))
        parts += eng.run(u[split + 1], n - split - 1, samples_feed(u[split + 2:])) \
            if split + 1 < n else []
    assert_bitwise(parts, make().push_many(u), msg)
    # after reset, and from copies and pickles of a mid-block state
    eng.reset()
    assert_bitwise(eng.run(u[0], n, clamp_feed([])), got, msg)
    eng.reset()
    head = eng.run(u[0], split, clamp_feed([]))
    forks = [copy.deepcopy(eng), pickle.loads(pickle.dumps(eng))]
    x = clamp(got[split - 1]) if split else u[0]
    tail = eng.run(x, n - split, clamp_feed([]))
    assert_bitwise(head + tail, got, msg)
    for fork in forks:
        assert fork.run.__self__ is fork, msg
        assert_bitwise(fork.run(x, n - split, clamp_feed([])), tail, msg)
        assert fork.meter == eng.meter, msg


class TestScheduleHelpers:
    def test_k_of_t_examples(self):
        assert k_of_t(12, 10) == 2  # 4 divides 12, 8 does not
        assert k_of_t(7, 3) == 0    # odd
        assert k_of_t(8, 3) == 3    # capped at b

    def test_k_of_t_rejects_zero(self):
        with pytest.raises(ValueError):
            k_of_t(0, 4)

    def test_optimal_epoch_values(self):
        assert optimal_epoch_length(65536) == 1024
        assert optimal_epoch_length(4) == 3    # sqrt(8) = 2.83 rounds up
        assert optimal_epoch_length(2) == 1

    def test_optimal_epoch_rejects_small(self):
        with pytest.raises(ValueError):
            optimal_epoch_length(1)


class TestNaive:
    def test_ramp_filter_trace(self):
        eng = NaiveEngine([1, 2, 3, 4], 4)
        assert [eng.push(1.0) for _ in range(4)] == [1, 3, 6, 10]

    def test_single_tap(self):
        assert NaiveEngine([5.0], 1).push(2.0) == 10.0

    def test_mac_count_closed_form(self):
        for length in (1, 7, 64, 100):
            eng = NaiveEngine(np.ones(length), length)
            eng.push_many(np.zeros(length))
            assert eng.meter.mac_count == length * (length + 1) // 2

    def test_no_auxiliary_memory(self):
        eng = NaiveEngine(np.ones(16), 16)
        eng.push_many(np.zeros(16))
        assert eng.meter.peak_aux_elems == 0

    def test_horizon_enforced(self):
        eng = NaiveEngine([1.0], 2)
        eng.push(1.0)
        eng.push(1.0)
        with pytest.raises(HorizonError):
            eng.push(1.0)


class TestEpoched:
    def test_trace_with_cache_contents(self):
        # hand trace, K=2: after t=2 the cache holds the contributions
        # of u_{1:2} to positions 3 and 4
        eng = EpochedEngine([1, 2, 3, 4], 4, epoch_len=2)
        outs = [eng.push(1.0), eng.push(1.0)]
        np.testing.assert_allclose(eng.cache, [5.0, 7.0])
        outs += [eng.push(1.0), eng.push(1.0)]
        assert outs == [1, 3, 6, 10]

    def test_k_equals_one_rebuilds_every_step(self):
        eng = EpochedEngine([1, 2, 3, 4], 4, epoch_len=1)
        u = [0.5, -1.0, 2.0, 0.25]
        got = eng.push_many(u)
        np.testing.assert_allclose(got, oracle(u, [1, 2, 3, 4]), atol=1e-12)
        assert eng.meter.cache_rebuilds == 4

    def test_k_equals_horizon_matches_naive(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, 33)
        taps = rng.uniform(-1, 1, 33)
        epoched = EpochedEngine(taps, 33, epoch_len=33)
        naive = NaiveEngine(taps, 33)
        np.testing.assert_allclose(epoched.push_many(u), naive.push_many(u),
                                   atol=1e-12)
        assert epoched.meter.cache_rebuilds == 1  # fires at t=L, unused

    def test_rebuild_count_is_floor_l_over_k(self):
        for length, k in ((100, 7), (64, 8), (129, 130), (50, 1)):
            eng = EpochedEngine(np.ones(length), length, epoch_len=k)
            # the counters as a per-step accumulation: phase tau per step,
            # n log2 n of the padded full product per rebuild
            mac = ff = rebuilds = 0
            tau = 1
            for t in range(1, length + 1):
                eng.push(0.0)
                mac += tau
                if tau == k:
                    n_fft = next_pow2(max(1, t + min(t + k, length) - 1))
                    ff += n_fft * (n_fft.bit_length() - 1)
                    rebuilds += 1
                    tau = 1
                else:
                    tau += 1
                assert eng.meter == CostMeter(mac, ff, rebuilds, k), (length, k, t)
            assert eng.meter.cache_rebuilds == length // k

    def test_default_epoch_is_optimal(self):
        eng = EpochedEngine(np.ones(64), 64)
        assert eng.epoch_len == optimal_epoch_length(64)

    def test_peak_aux_is_cache_size(self):
        eng = EpochedEngine(np.ones(64), 64, epoch_len=9)
        eng.push_many(np.zeros(64))
        assert eng.meter.peak_aux_elems == 9

    def test_filter_shorter_than_stream(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(-1, 1, 120)
        taps = rng.uniform(-1, 1, 11)
        eng = EpochedEngine(Filter(taps, 120), 120, epoch_len=13)
        assert_matches_oracle(eng, u, taps)


class TestEpochedFilterSpectra:
    # L = 2**14, K = 512: the rebuilds at t = 1024 and 1536 take one
    # transform of each input, and from t = 2048, where the past holds a
    # block of 2048 - 512 + 1 = 1537 inputs, a batch of 2048-point ones,
    # block j against tap segment j
    L, K, BLOCK = 1 << 14, 512, 1537
    BLOCKED = range(2048, 1 << 14, 512)

    @classmethod
    def segments(cls, t):
        return -(-t // cls.BLOCK)

    def run(self, phi, u):
        return EpochedEngine(phi, self.L, self.K).push_many(u)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, self.L), rng.uniform(-1, 1, self.L)

    def test_second_engine_transforms_no_tap_segment(self, forward_rows):
        u, taps = self.inputs(61)
        phi = Filter(taps)
        want, rows_array = forward_rows(self.run, taps, u)
        first, rows_first = forward_rows(self.run, phi, u)
        second, rows_second = forward_rows(self.run, phi, u)
        past = 2 * 2 + sum(self.segments(t) for t in self.BLOCKED)
        assert rows_array == past + sum(self.segments(t) for t in self.BLOCKED)
        # the first engine through the Filter transforms every segment
        # again where their count grows, and reads them elsewhere
        grown = [t for t in self.BLOCKED if self.segments(t) > self.segments(t - self.K)]
        assert rows_first == past + sum(self.segments(t) for t in grown)
        assert rows_second == past  # the past's blocks only
        np.testing.assert_array_equal(first, want)
        np.testing.assert_array_equal(second, want)
        assert phi._spectra[0][1].shape == (self.segments(self.BLOCKED[-1]), 1025)

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda eng: pickle.loads(pickle.dumps(eng))])
    def test_copies_and_pickles_carry_no_spectra(self, clone):
        u, taps = self.inputs(62)
        phi = Filter(taps)
        self.run(phi, u)
        eng, plain = EpochedEngine(phi, self.L, self.K), EpochedEngine(taps, self.L, self.K)
        cut = 5000  # mid-epoch, after blocked rebuilds that read the store
        np.testing.assert_array_equal(eng.push_many(u[:cut]), plain.push_many(u[:cut]))
        assert len(pickle.dumps(eng)) == len(pickle.dumps(plain))
        fork = clone(eng)
        assert fork._spectra is None and eng._spectra is phi._spectra
        tail = plain.push_many(u[cut:])
        np.testing.assert_array_equal(fork.push_many(u[cut:]), tail)
        np.testing.assert_array_equal(eng.push_many(u[cut:]), tail)
        assert fork.meter == eng.meter == plain.meter

    def test_batched_engine_leaves_the_store_alone(self):
        # a Filter's store holds one row's spectra; an engine over
        # channels has rows of its own and transforms the taps afresh
        u, taps = self.inputs(64)
        phi = Filter(taps)
        channels = np.stack([u, -u], axis=1)
        got = EpochedEngine(phi, self.L, self.K, sample_shape=(2,)).push_many(channels)
        assert phi._spectra == []
        want = EpochedEngine(taps[None], self.L, self.K, sample_shape=(2,)).push_many(channels)
        np.testing.assert_array_equal(got, want)

    def test_verify_covers_the_reused_path(self, monkeypatch):
        from streamconv import convolution as conv
        from streamconv.verify import SuiteResult, suite_oracle_equivalence

        res = SuiteResult("oracle_equivalence")
        suite_oracle_equivalence(res, 3, 4096)
        assert res.passed
        real = conv._segment_spectra

        def stale(b, store, *geometry):  # a store read returns zeros
            scale = 0.0 if store else 1.0
            return real(b, store, *geometry) * scale

        monkeypatch.setattr(conv, "_segment_spectra", stale)
        res = SuiteResult("oracle_equivalence")
        suite_oracle_equivalence(res, 3, 4096)
        assert not res.passed
        # both runs through the Filter have rebuilds that read the store
        assert {(f["tag"], f["engine"], f["L"], f["call"]) for f in res.failures} == {
            ("Filter", "epoched", 4096, 0), ("Filter", "epoched", 4096, 1)}

    def test_filter_shared_across_threads(self):
        # four threads over two cores, switching often, each pushing its
        # own engines through one Filter at two epoch lengths, so the
        # store changes geometry under them: every output must equal the
        # array-taps engine's
        rng = np.random.default_rng(63)
        length = 1 << 13
        taps = rng.uniform(-1, 1, length)
        phi = Filter(taps)
        jobs = [(rng.uniform(-1, 1, length), k) for k in (512, 1024) for _ in range(2)]
        wants = [EpochedEngine(taps, length, k).push_many(u) for u, k in jobs]
        errors = []

        def work(offset):
            try:
                for i in range(len(jobs)):
                    j = (i + offset) % len(jobs)
                    u, k = jobs[j]
                    if not np.array_equal(EpochedEngine(phi, length, k).push_many(u), wants[j]):
                        errors.append(j)
            except Exception as exc:  # a dead worker must fail the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(phi._spectra) == 1

    @pytest.mark.parametrize("kind", ["naive", "continuous"])
    def test_other_engines_hold_no_store(self, kind):
        u, taps = self.inputs(65)
        phi = Filter(taps[:4096])
        eng = make_engine(kind, phi, 4096)
        slots = {n for cls in type(eng).__mro__ for n in getattr(cls, "__slots__", ())}
        assert not any(getattr(eng, n, None) is phi._spectra for n in slots)
        eng.push_many(u[:4096])
        assert phi._spectra == []

    def test_verify_default_engines_take_the_default(self, epoch_default_3, monkeypatch):
        from streamconv import verify

        made = []

        class Spy(EpochedEngine):
            __slots__ = ()

            def __init__(self, phi, horizon, epoch_len=None, sample_shape=None):
                super().__init__(phi, horizon, epoch_len, sample_shape)
                made.append((horizon, epoch_len, self.epoch_len))

        monkeypatch.setattr(verify, "EpochedEngine", Spy)
        for suite in (verify.suite_oracle_equivalence, verify.suite_cost_bounds):
            res = verify.SuiteResult(suite.__name__)
            suite(res, 0, 256)
            assert res.passed
        assert {k for _, given, k in made if given is None} == {3}
        assert all((length, 3, 3) in made for length in range(4, 49))  # exhaustive K set


class TestContinuous:
    def test_trace_with_cache_contents(self):
        eng = ContinuousEngine([1, 2, 3, 4], 4)
        assert [eng.push(1.0) for _ in range(4)] == [1, 3, 6, 10]
        # hand trace, ramp taps phi_j = j and unit inputs at horizon 2B:
        # after the first block the cache holds nothing for it and, at
        # slot s of the second, its contribution phi_{s-B+1} + .. + phi_s
        eng = ContinuousEngine(np.arange(1.0, 2 * _BLOCK + 1), 2 * _BLOCK)
        eng.push_many(np.ones(_BLOCK))
        s = np.arange(_BLOCK + 1, 2 * _BLOCK + 1)
        np.testing.assert_array_equal(
            eng.cache, np.concatenate([np.zeros(_BLOCK), _BLOCK * (2 * s - _BLOCK + 1) / 2]))

    def test_ff_cost_is_schedule_sum(self):
        eng = ContinuousEngine([1, 2, 3, 4], 4)
        eng.push_many(np.zeros(4))
        # t=1: 1, t=2: 1*2, t=3: 1, t=4: 2*4 (k capped at b=2)
        assert eng.meter.ff_cost == 12

    def test_ff_cost_formula_and_bound_powers_of_two(self):
        for exp in range(1, 13):
            length = 1 << exp
            eng = ContinuousEngine(np.ones(length), length)
            b = exp
            expected = 0
            for t in range(1, length + 1):
                eng.push(0.0)
                tz = (t & -t).bit_length() - 1
                k = min(tz, b)
                expected += max(1, k) * (1 << k)
                assert eng.meter == CostMeter(t, expected, 0, length), (length, t)
            assert eng.meter.ff_cost == expected
            assert eng.meter.ff_cost <= 3 * length * exp * exp

    def test_write_range_skipped_at_horizon(self):
        # final step's update range lies wholly beyond the horizon
        eng = ContinuousEngine(np.ones(8), 8)
        eng.push_many(np.ones(8))
        assert eng.steps == 8  # no error from the truncation

    def test_consumed_slots_never_rewritten(self):
        rng = np.random.default_rng(31)
        for length in (17, 64, 200):
            u = rng.uniform(-1, 1, length)
            taps = rng.uniform(-1, 1, length)
            eng = ContinuousEngine(taps, length)
            frozen = []
            for t in range(length):
                eng.push(u[t])
                cache = eng.cache
                frozen.append(cache[t])
                np.testing.assert_array_equal(cache[:t], frozen[:t])

    def test_peak_aux_is_horizon(self):
        eng = ContinuousEngine(np.ones(32), 32)
        assert eng.meter.peak_aux_elems == 32

    def test_non_power_of_two_horizon(self):
        rng = np.random.default_rng(4)
        for length in (3, 5, 12, 100, 321):
            u = rng.uniform(-1, 1, length)
            taps = rng.uniform(-1, 1, length)
            assert_matches_oracle(ContinuousEngine(taps, length), u, taps)

    def test_filter_shorter_than_stream(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 7)
        assert_matches_oracle(ContinuousEngine(Filter(taps, 200), 200), u, taps)


class TestCrossEngine:
    @given(st.integers(min_value=1, max_value=96), st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=96))
    @settings(max_examples=60, deadline=None)
    @example(1 << 16, 107, 1024)  # benchmark scale: blocked and 2**16-point transforms
    def test_oracle_equivalence(self, length, seed, epoch):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, length)
        ref = oracle(u, taps)
        tol = 1e-8 * (1.0 + np.max(np.abs(ref)))
        for eng in (
            NaiveEngine(taps, length),
            ContinuousEngine(taps, length),
            EpochedEngine(taps, length, min(epoch, length)),
        ):
            assert np.max(np.abs(eng.push_many(u) - ref)) <= tol

    def test_pairwise_agreement_on_shared_stream(self):
        rng = np.random.default_rng(77)
        length = 300
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, length)
        outs = {
            kind: make_engine(kind, taps, length).push_many(u)
            for kind in ("naive", "epoched", "continuous")
        }
        tol = 1e-8 * (1.0 + np.max(np.abs(outs["naive"])))
        assert np.max(np.abs(outs["epoched"] - outs["naive"])) <= tol
        assert np.max(np.abs(outs["continuous"] - outs["naive"])) <= tol

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(13)
        u = rng.uniform(-1, 1, 257)
        taps = rng.uniform(-1, 1, 257)
        for kind in ("naive", "epoched", "continuous"):
            a = make_engine(kind, taps, 257)
            b = make_engine(kind, taps, 257)
            np.testing.assert_array_equal(a.push_many(u), b.push_many(u))
            assert a.meter == b.meter

    def test_reset_restores_fresh_state(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 200)
        for kind in ENGINE_KINDS:
            fresh = make_engine(kind, taps, 200)
            first = fresh.push_many(u)
            eng = make_engine(kind, taps, 200)
            eng.push_many(rng.uniform(-1, 1, 77))  # mid-epoch, mid-block
            eng.reset()
            assert eng.meter == make_engine(kind, taps, 200).meter
            np.testing.assert_array_equal(eng.push_many(u), first)
            assert eng.meter == fresh.meter

    def test_push_returns_python_float(self):
        rng = np.random.default_rng(23)
        taps = rng.uniform(-1, 1, 130)
        for kind in ENGINE_KINDS:
            eng = make_engine(kind, taps, 130)
            assert all(type(eng.push(np.float64(x))) is float
                       for x in rng.uniform(-1, 1, 130)), kind

    @pytest.mark.parametrize("length", [63, 64, 65, 130])
    @pytest.mark.parametrize("ntaps", [0, 1, 2, 3])
    def test_short_filters_match_oracle(self, ntaps, length):
        rng = np.random.default_rng(100 * ntaps + length)
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, ntaps)
        for kind in ENGINE_KINDS:
            assert_matches_oracle(make_engine(kind, Filter(taps, length), length), u, taps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_without_state_change(self, bad):
        # the third sample, and the last of an epoch and of a continuous
        # block, whose push would start the next block
        rng = np.random.default_rng(29)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 200)
        for kind in ENGINE_KINDS:
            want = make_engine(kind, taps, 200).push_many(u)
            for at in (2, optimal_epoch_length(200) - 1, _BLOCK - 1):
                eng = make_engine(kind, taps, 200)
                head = eng.push_many(u[:at])
                with pytest.raises(ValueError):
                    eng.push(bad)
                assert eng.steps == at, kind
                got = np.concatenate([head, eng.push_many(u[at:])])
                np.testing.assert_array_equal(got, want, err_msg=kind)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_rejects_non_finite_feed_without_state_change(self, bad):
        # the feed returns bad for the third sample, and for the last of
        # an epoch and of a continuous block, whose push would start the
        # next block
        rng = np.random.default_rng(31)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 200)
        for kind in ENGINE_KINDS:
            fresh = make_engine(kind, taps, 200)
            want = fresh.push_many(u)
            for at in (2, optimal_epoch_length(200) - 1, _BLOCK - 1):
                eng = make_engine(kind, taps, 200)
                seen = []

                def feed(y):
                    seen.append(y)
                    return bad if len(seen) == at else u[len(seen)]

                with pytest.raises(ValueError):
                    eng.run(u[0], 200, feed)
                assert eng.steps == at, kind
                got = np.concatenate([seen, eng.push_many(u[at:])])
                np.testing.assert_array_equal(got, want, err_msg=kind)
                assert eng.meter == fresh.meter, kind

    def test_run_keeps_the_pushes_before_a_raising_feed(self):
        # the feed raises after the third push, and after the last push of
        # an epoch and of a continuous block, whose boundary has run
        rng = np.random.default_rng(33)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 200)
        for kind in ENGINE_KINDS:
            fresh = make_engine(kind, taps, 200)
            want = fresh.push_many(u)
            for at in (3, optimal_epoch_length(200), _BLOCK):
                eng = make_engine(kind, taps, 200)
                seen = []

                def feed(y):
                    seen.append(y)
                    if len(seen) == at:
                        raise KeyError("stop")
                    return u[len(seen)]

                with pytest.raises(KeyError):
                    eng.run(u[0], 200, feed)
                assert eng.steps == at, kind
                got = np.concatenate([seen, eng.push_many(u[at:])])
                np.testing.assert_array_equal(got, want, err_msg=kind)
                assert eng.meter == fresh.meter, kind

    def test_run_past_horizon_changes_no_state(self):
        rng = np.random.default_rng(37)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 200)
        for kind in ENGINE_KINDS:
            want = make_engine(kind, taps, 200).push_many(u)
            eng = make_engine(kind, taps, 200)
            head = eng.push_many(u[:77])  # mid-epoch, mid-block
            meter, cache = eng.meter, getattr(eng, "cache", None)
            seen = []
            with pytest.raises(HorizonError):
                eng.run(u[77], 200 - 77 + 1, seen.append)
            with pytest.raises(ValueError):
                eng.run(u[77], -1, seen.append)
            assert seen == [] and eng.steps == 77 and eng.meter == meter, kind
            if cache is not None:
                np.testing.assert_array_equal(eng.cache, cache)
            got = np.concatenate([head, eng.push_many(u[77:])])
            np.testing.assert_array_equal(got, want, err_msg=kind)
            with pytest.raises(HorizonError):
                eng.run(0.0, 1, seen.append)
            assert eng.steps == 200 and seen == [], kind

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_push_many_equals_push_and_oracle(self, data):
        length = data.draw(st.integers(min_value=1, max_value=300), label="length")
        ntaps = data.draw(st.sampled_from([0, 1, 2, 3, length]), label="ntaps")
        epoch = data.draw(st.sampled_from([1, length])
                          | st.integers(min_value=1, max_value=length), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
        u = rng.uniform(-1, 1, length)
        taps = rng.uniform(-1, 1, ntaps)
        ref = oracle(u, taps)
        tol = 1e-8 * (1.0 + np.max(np.abs(ref)))
        phi = Filter(taps, max(length, ntaps))
        split = data.draw(st.integers(min_value=0, max_value=length), label="split")
        for kind in ENGINE_KINDS:
            batch = make_engine(kind, phi, length, epoch).push_many(u)
            eng = make_engine(kind, phi, length, epoch)
            np.testing.assert_array_equal(batch, [eng.push(x) for x in u], err_msg=kind)
            assert np.max(np.abs(batch - ref)) <= tol, kind
            check_run(lambda: make_engine(kind, phi, length, epoch), u, split, kind)

    def test_exact_integer_oracle_at_benchmark_scale(self):
        # samples and taps in -8..8: every partial sum is an integer
        # below 2**53, so np.convolve in float64 is exact
        length = 1 << 16
        rng = np.random.default_rng(41)
        u = rng.integers(-8, 9, length).astype(float)
        taps = rng.integers(-8, 9, length).astype(float)
        exact = np.convolve(u, taps)[:length]
        bound = (np.log2(length) * np.finfo(float).eps
                 * np.sum(np.abs(u)) * np.max(np.abs(taps)))
        for kind in ENGINE_KINDS:
            err = np.max(np.abs(make_engine(kind, taps, length).push_many(u) - exact))
            assert err <= bound, (kind, err, bound)
        # through one Filter: the second run's rebuilds read every tap
        # segment from the store the first run filled
        phi = Filter(taps)
        first = EpochedEngine(phi, length).push_many(u)
        stored = phi._spectra[0]
        second = EpochedEngine(phi, length).push_many(u)
        assert len(phi._spectra) == 1 and phi._spectra[0] is stored
        for out in (first, second):
            err = np.max(np.abs(out - exact))
            assert err <= bound, (err, bound)

    def test_exact_integer_oracle_at_2_18(self):
        # samples and taps in -8..8: the full product in one float64
        # transform errs by about log2 L eps |u|_1 |phi|_inf, far below
        # 0.5, so rounding it gives the exact integer convolution
        rng = np.random.default_rng(47)

        def case(length):
            u = rng.integers(-8, 9, length).astype(float)
            taps = rng.integers(-8, 9, length).astype(float)
            n = next_pow2(2 * length - 1)
            raw = np.fft.irfft(np.fft.rfft(u, n) * np.fft.rfft(taps, n), n)[:length]
            bound = (np.log2(length) * np.finfo(float).eps
                     * np.sum(np.abs(u)) * np.max(np.abs(taps)))
            assert np.max(np.abs(raw - np.rint(raw))) <= bound < 0.5
            return u, taps, np.rint(raw), bound

        u, taps, exact, _ = case(1 << 12)
        np.testing.assert_array_equal(exact, np.convolve(u, taps)[:1 << 12])
        length = 1 << 18
        u, taps, exact, bound = case(length)
        for kind in ("epoched", "continuous"):
            err = np.max(np.abs(make_engine(kind, taps, length).push_many(u) - exact))
            assert err <= bound, (kind, err, bound)

    def test_exact_integer_oracle_batched_at_stu_scale(self):
        # the stu-online shape: 16 integer filters over 8 integer channels
        length, filters, channels = 1024, 16, 8
        rng = np.random.default_rng(43)
        u = rng.integers(-8, 9, (length, channels)).astype(float)
        taps = rng.integers(-8, 9, (filters, 1, length)).astype(float)
        exact = np.array([[np.convolve(u[:, c], taps[f, 0])[:length] for c in range(channels)]
                          for f in range(filters)]).transpose(2, 0, 1)
        # the scalar bound, per cell: log2 L eps |u_c|_1 |phi_f|_inf
        bound = (np.log2(length) * np.finfo(float).eps
                 * np.abs(taps).max(axis=-1) * np.abs(u).sum(axis=0))
        for kind in ENGINE_KINDS:
            err = np.abs(make_engine(kind, taps, length, sample_shape=(channels,))
                         .push_many(u) - exact).max(axis=0)
            assert np.all(err <= bound), (kind, np.max(err / bound))

    def test_copy_and_pickle_resume_mid_stream(self):
        rng = np.random.default_rng(17)
        u = rng.uniform(-1, 1, 200)
        taps = rng.uniform(-1, 1, 200)
        for kind in ("naive", "epoched", "continuous"):
            eng = make_engine(kind, taps, 200, 16) if kind == "epoched" else \
                make_engine(kind, taps, 200)
            head = eng.push_many(u[:77])  # mid-epoch, mid-schedule
            forks = [copy.deepcopy(eng), pickle.loads(pickle.dumps(eng))]
            tail = eng.push_many(u[77:])
            for fork in forks:
                np.testing.assert_array_equal(fork.push_many(u[77:]), tail)
                assert fork.meter == eng.meter
            np.testing.assert_allclose(np.concatenate([head, tail]), oracle(u, taps),
                                       atol=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine("quadratic", [1.0], 4)

    def test_meters_independent_of_values(self):
        taps = np.ones(64)
        for kind in ("naive", "epoched", "continuous"):
            a = make_engine(kind, taps, 64)
            b = make_engine(kind, taps, 64)
            a.push_many(np.zeros(64))
            b.push_many(np.linspace(-1, 1, 64))
            assert a.meter == b.meter



@st.composite
def batched_cases(draw):
    """A batched engine configuration and its inputs.

    ``outer``: taps (F, 1, L) over samples (C,), every filter over every
    channel; otherwise taps (F, L) over samples (F,), filter j over
    channel j.
    """
    filters = draw(st.integers(1, 4), label="F")
    outer = draw(st.booleans(), label="outer")
    channels = draw(st.integers(1, 3), label="C") if outer else filters
    length = draw(st.integers(1, 300), label="length")
    ntaps = draw(st.sampled_from([0, 1, 2, 3, length]), label="ntaps")
    epoch = draw(st.sampled_from([1, length]) | st.integers(1, length), label="K")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31), label="seed"))
    taps = rng.uniform(-1, 1, (filters, ntaps))
    u = rng.uniform(-1, 1, (length, channels))
    return taps, outer, u, epoch


def batched_engine(kind, taps, outer, u, epoch):
    if outer:
        return make_engine(kind, taps[:, None, :], len(u), epoch, sample_shape=u.shape[1:])
    return make_engine(kind, taps, len(u), epoch)


def cells(taps, outer, u):
    """(output index, taps, input stream) of every output cell."""
    if outer:
        return [((i, c), taps[i], u[:, c])
                for i in range(taps.shape[0]) for c in range(u.shape[1])]
    return [((i,), taps[i], u[:, i]) for i in range(taps.shape[0])]


class TestBatched:
    """One engine over stacked filters and channels against scalar engines."""

    @given(batched_cases())
    @settings(max_examples=60, deadline=None)
    @example((np.ones((4, 300)), True, np.ones((300, 3)), 1))
    def test_cells_match_scalar_engines(self, case):
        # Within 1e-12 of each scalar engine, not bitwise: the batched
        # step sums with a matrix product instead of a dot product, and
        # its boundaries may take middle's transform path where one row
        # is summed directly.
        taps, outer, u, epoch = case
        for kind in ENGINE_KINDS:
            eng = batched_engine(kind, taps, outer, u, epoch)
            got = eng.push_many(u)
            assert got.shape == (len(u),) + eng.shape
            for index, row, stream in cells(taps, outer, u):
                single = make_engine(kind, row, len(u), epoch)
                want = single.push_many(stream)
                cell = got[(slice(None),) + index]
                tol = 1e-12 * (1.0 + np.max(np.abs(want)))
                assert np.max(np.abs(cell - want)) <= tol, (kind, index)
            # one share of every counter per output cell
            assert eng.meter == CostMeter(
                *(eng.size * v for v in single.meter.as_dict().values())), kind
            with pytest.raises(HorizonError):
                eng.push(u[0])

    @given(batched_cases(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_non_finite_channel_rejected_without_state_change(self, case, bad, data):
        taps, outer, u, epoch = case
        at = data.draw(st.integers(0, len(u) - 1), label="at")
        channel = data.draw(st.integers(0, u.shape[1] - 1), label="channel")
        poisoned = u[at].copy()
        poisoned[channel] = bad
        for kind in ENGINE_KINDS:
            want = batched_engine(kind, taps, outer, u, epoch).push_many(u)
            eng = batched_engine(kind, taps, outer, u, epoch)
            head = eng.push_many(u[:at])
            with pytest.raises(ValueError):
                eng.push(poisoned)
            assert eng.steps == at, kind
            got = np.concatenate([head, eng.push_many(u[at:])])
            np.testing.assert_array_equal(got, want, err_msg=kind)

    @given(batched_cases(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_copy_pickle_and_reset_replay_bitwise(self, case, data):
        taps, outer, u, epoch = case
        at = data.draw(st.integers(0, len(u)), label="at")
        for kind in ENGINE_KINDS:
            fresh = batched_engine(kind, taps, outer, u, epoch)
            want = fresh.push_many(u)
            eng = batched_engine(kind, taps, outer, u, epoch)
            head = eng.push_many(u[:at])  # mid-block for most draws
            forks = [copy.deepcopy(eng), pickle.loads(pickle.dumps(eng))]
            for fork in forks:
                np.testing.assert_array_equal(fork.push_many(u[at:]), want[at:])
                assert fork.meter == fresh.meter
            np.testing.assert_array_equal(head, want[:at])
            eng.reset()
            assert eng.steps == 0
            np.testing.assert_array_equal(eng.push_many(u), want, err_msg=kind)
            assert eng.meter == fresh.meter
            # run: the generic loop over the batched push
            eng.reset()
            got = eng.run(u[0], at, samples_feed(u[1:at]))
            np.testing.assert_array_equal(np.array(got).reshape(head.shape), head)
            assert eng.steps == at and fresh.run.__self__ is fresh

    @pytest.mark.parametrize("kind", ["epoched", "continuous"])
    def test_state_holds_the_taps_once(self, kind):
        # the stu-online layout: 4 filters over 3 channels
        taps = np.random.default_rng(71).uniform(-1, 1, (4, 1, 256))
        eng = make_engine(kind, taps, 256, sample_shape=(3,))
        want = np.sort(taps, axis=None)
        state = eng.__getstate__()  # what a pickle or a copy writes
        copies = [name for name, v in state.items() if isinstance(v, np.ndarray)
                  and v.size == want.size and np.array_equal(np.sort(v, axis=None), want)]
        assert copies == ["_taps"]

    def test_scalar_and_batched_push_types(self):
        taps = np.random.default_rng(3).uniform(-1, 1, (2, 1, 70))
        for kind in ENGINE_KINDS:
            scalar = make_engine(kind, taps[0, 0], 70)
            assert scalar.shape == () and type(scalar.push(0.5)) is float
            eng = make_engine(kind, taps, 70, sample_shape=(3,))
            out = eng.push(np.array([0.5, -1.0, 2.0]))
            assert eng.shape == (2, 3) and out.shape == (2, 3)
            # a fresh array each step, not a view of the engine's state
            before = out.copy()
            eng.push(np.ones(3))
            np.testing.assert_array_equal(out, before)

    def test_axes_in_any_order_broadcast(self):
        # taps vary along axes 0 and 2, samples along 1 and 2
        rng = np.random.default_rng(9)
        taps = rng.uniform(-1, 1, (2, 1, 3, 40))
        u = rng.uniform(-1, 1, (40, 4, 3))
        for kind in ENGINE_KINDS:
            eng = make_engine(kind, taps, 40, sample_shape=(4, 3))
            got = eng.push_many(u[:33])
            assert got.shape == (33, 2, 4, 3)
            for i, c, j in np.ndindex(2, 4, 3):
                single = make_engine(kind, taps[i, 0, j], 40)
                want = single.push_many(u[:33, c, j])
                np.testing.assert_allclose(got[:, i, c, j], want, rtol=0, atol=1e-12)
                if kind != "naive":  # the cache slots of every cell, in the same layout
                    np.testing.assert_allclose(eng.cache[:, i, c, j], single.cache,
                                               rtol=0, atol=1e-12)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine("naive", np.ones((3, 8)), 8, sample_shape=(2,))
        eng = make_engine("continuous", np.ones((3, 8)), 8)
        with pytest.raises(ValueError):
            eng.push(np.ones(2))
        assert eng.steps == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage")
    @pytest.mark.parametrize("kind", ["epoched", "continuous"])
    def test_steps_reuse_freed_transform_blocks(self, kind):
        # In a fresh process, the second 1024 steps of 16 filters over 8
        # channels fault in no pages of the rebuild / level temporaries:
        # about 2,000 (epoched) and 500 (continuous) per pass under the C
        # library's default thresholds.
        assert _second_pass_faults(f"""
from streamconv import make_engine
eng = make_engine({kind!r}, rng.uniform(-1, 1, (16, 1, 1024)), 1024, sample_shape=(8,))
u = rng.uniform(-1, 1, (1024, 8))
def run():
    eng.reset()
    for x in u:
        eng.push(x)
""") < 100

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage")
    def test_prefill_reuses_freed_transform_blocks(self):
        # One row, no batched engine in the process: the second prefill
        # of a 2**18-sample prompt at K = 4096 (about 11 MiB of blocked
        # transform temporaries) faults in no pages, against about
        # 2,400 under the C library's default thresholds.
        assert _second_pass_faults("""
from streamconv import prefill
prompt = rng.uniform(-1, 1, 1 << 18)
taps = rng.uniform(-1, 1, (1 << 18) + 4096)
def run():
    prefill(prompt, taps, 4096)
""") < 100


def _second_pass_faults(setup: str) -> int:
    """Minor page faults of the second ``run()`` in a fresh interpreter.

    ``setup`` defines ``run`` and may use ``rng``, a seeded numpy
    generator; the first call warms the heap up.
    """
    code = f"""
import resource
import numpy as np
rng = np.random.default_rng(0)
{setup}
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, check=True)
    return int(run.stdout)
