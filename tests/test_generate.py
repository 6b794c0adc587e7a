import copy
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from streamconv import convolution as conv
from streamconv import (
    ENGINE_KINDS,
    ConfigurationError,
    CostMeter,
    Filter,
    clamp_token,
    generate_prompted,
    generate_scratch,
    make_engine,
    oracle_prompted,
    prefill,
)

PLACE_VALUE_FILTER = [1.0, 10.0, 100.0, 1000.0]


class PushOnly:
    """An engine seen through ``push`` and ``meter`` alone, as a timing
    proxy wraps one."""

    def __init__(self, engine):
        self.push = engine.push
        self._engine = engine

    @property
    def meter(self):
        return self._engine.meter


class TestScratch:
    def test_copy_kernel_fixes_seed(self):
        result = generate_scratch(Filter([1.0], 16), 16, "naive", seed_token=3.0)
        np.testing.assert_array_equal(result.outputs.values, np.full(16, 3.0))

    def test_delay_kernel_alternates(self):
        # y1 = 0, then the feedback u_{t+1} = y_t alternates 0,1,0,1,...
        result = generate_scratch(Filter([0.0, 1.0], 8), 8, "continuous",
                                  seed_token=1.0)
        np.testing.assert_array_equal(result.outputs.values,
                                      [0, 1, 0, 1, 0, 1, 0, 1])

    def test_engines_generate_identical_streams(self):
        rng = np.random.default_rng(6)
        taps = rng.uniform(-0.5, 0.5, 64)
        outs = {
            kind: generate_scratch(Filter(taps, 64), 64, kind,
                                   seed_token=0.7).outputs.values
            for kind in ("naive", "epoched", "continuous")
        }
        scale = 1.0 + np.max(np.abs(outs["naive"]))
        assert np.max(np.abs(outs["epoched"] - outs["naive"])) <= 1e-8 * scale
        assert np.max(np.abs(outs["continuous"] - outs["naive"])) <= 1e-8 * scale

    def test_push_only_engine_matches_the_engines_own_loop(self):
        rng = np.random.default_rng(8)
        phi = Filter(rng.uniform(-1, 1, 300), 300)
        for kind in ENGINE_KINDS:
            own = generate_scratch(phi, 300, kind, 0.7, clamp_token())
            proxy = generate_scratch(phi, 300, kind, 0.7, clamp_token(),
                                     engine=PushOnly(make_engine(kind, phi, 300)))
            assert own.outputs.values.tobytes() == proxy.outputs.values.tobytes(), kind
            assert own.meter == proxy.meter, kind

    def test_length_beyond_context_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_scratch(Filter([1.0, 0.0], 2), 3)

    def test_zero_length(self):
        assert len(generate_scratch(Filter([1.0], 4), 0)) == 0
        # no token, no engine: every kind reports an empty meter, as prompted does
        for kind in ENGINE_KINDS:
            res = generate_scratch(Filter([0.5, 0.25], 4), 0, kind)
            assert len(res) == 0 and res.meter == CostMeter(), kind
            assert res.meter == generate_prompted([1.0], [0.5, 0.25], 0, kind).meter


class TestPrefill:
    def test_place_value_cache(self):
        cache = prefill([1, 2], PLACE_VALUE_FILTER, 2)
        np.testing.assert_allclose(cache.contributions.values, [12.0, 120.0],
                                   rtol=1e-12)
        assert cache.transform_calls == 1

    def test_empty_prompt_gives_zeros(self):
        cache = prefill([], [1, 2, 3], 3)
        np.testing.assert_array_equal(cache.contributions.values, [0, 0, 0])
        assert cache.transform_calls == 0

    def test_zero_budget_is_valid_empty(self):
        assert len(prefill([1, 2], [1, 2, 3], 0)) == 0

    def test_matches_double_loop_slice(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            p_len = int(rng.integers(1, 40))
            k = int(rng.integers(1, 40))
            p = rng.uniform(-1, 1, p_len)
            taps = rng.uniform(-1, 1, p_len + k)
            cache = prefill(p, taps, k).contributions.values
            full = np.convolve(p, taps)
            want = np.zeros(k)
            got_slice = full[p_len - 1:p_len - 1 + k]
            want[:got_slice.size] = got_slice
            np.testing.assert_allclose(cache, want, rtol=1e-10, atol=1e-12)

    def test_cache_size_is_budget_not_prompt(self):
        cache = prefill(np.ones(1000), np.ones(1100), 16)
        assert len(cache) == 16

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prompt_rejected(self, bad):
        prompt = np.ones(300)
        prompt[123] = bad
        with pytest.raises(ValueError, match="finite"):
            prefill(prompt, np.ones(310), 8)

    def test_prompt_read_in_place_left_unchanged(self):
        rng = np.random.default_rng(15)
        prompt, taps = rng.uniform(-1, 1, 5000), rng.uniform(-1, 1, 5100)
        kept = prompt.copy()
        got = prefill(prompt, taps, 100).contributions.values
        np.testing.assert_array_equal(prompt, kept)
        np.testing.assert_array_equal(got, prefill(prompt.tolist(), taps, 100).contributions.values)

    @pytest.mark.parametrize("call", [prefill, generate_prompted])
    def test_array_taps_read_without_copy(self, call):
        # 2**20 taps are 8 MiB: a copy of them would be the whole peak
        rng = np.random.default_rng(16)
        prompt, taps = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 1 << 20)
        want = call(prompt, Filter(taps), 16)
        tracemalloc.start()
        try:
            got = call(prompt, taps, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < taps.nbytes // 4
        field = "contributions" if call is prefill else "outputs"
        assert getattr(got, field).values.tobytes() == getattr(want, field).values.tobytes()

    @pytest.mark.parametrize("call", [prefill, generate_prompted])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "2-d"])
    def test_bad_array_taps_rejected(self, call, bad):
        taps = np.ones((2, 8)) if bad == "2-d" else np.full(16, bad)
        with pytest.raises(ValueError):
            call(np.ones(16), taps, 4)


class TestPrompted:
    def test_place_value_example(self):
        result = generate_prompted([1, 2], PLACE_VALUE_FILTER, 2)
        np.testing.assert_allclose(result.outputs.values, [12.0, 132.0],
                                   rtol=1e-12)

    def test_oracle_agrees_on_example(self):
        np.testing.assert_allclose(
            oracle_prompted([1, 2], PLACE_VALUE_FILTER, 2).values,
            [12.0, 132.0], rtol=1e-12)

    def test_budget_one_is_last_prompt_position(self):
        # single output: the full convolution of the prompt at its end
        out = oracle_prompted([1, 2], PLACE_VALUE_FILTER, 1).values
        np.testing.assert_allclose(out, [12.0])

    def test_zero_prompt_equals_scratch_from_zero(self):
        rng = np.random.default_rng(3)
        taps = rng.uniform(-1, 1, 32)
        prompted = generate_prompted(np.zeros(5), Filter(taps, 64), 16)
        scratch = generate_scratch(Filter(taps, 64), 16, "continuous",
                                   seed_token=0.0)
        np.testing.assert_allclose(prompted.outputs.values,
                                   scratch.outputs.values, atol=1e-12)

    def test_zero_budget(self):
        assert len(generate_prompted([1, 2], [1, 2, 3], 0)) == 0

    @pytest.mark.parametrize("kind", ["naive", "epoched", "continuous"])
    def test_matches_oracle_sampled_grid(self, kind):
        rng = np.random.default_rng(hash(kind) % (2 ** 32))
        for p_len in (0, 1, 3, 9, 24):
            for k in (1, 2, 7, 25):
                p = rng.uniform(-1, 1, p_len)
                taps = rng.uniform(-1, 1, p_len + k)
                want = oracle_prompted(p, taps, k).values
                got = generate_prompted(p, taps, k, kind).outputs.values
                tol = 1e-9 * (1.0 + np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("kind", ["naive", "epoched", "continuous"])
    def test_decode_bitwise_equal_to_ndarray_loop(self, kind):
        # the decode loop as it ran on numpy scalars read from and written
        # to ndarrays; the Python-float loop must give the same bits
        rng = np.random.default_rng(23)
        p = rng.uniform(-1, 1, 40)
        taps = rng.uniform(-0.3, 0.3, 240)
        k = 200
        for tmap in (None, clamp_token()):
            slots = prefill(p, taps, k).contributions.values
            engine = make_engine(kind, Filter(taps[:k], k), k)
            want = np.empty(k)
            fed = 0.0
            for t in range(k):
                y_hat = slots[t] + fed
                want[t] = y_hat
                fed = engine.push(tmap(y_hat) if tmap else y_hat)
            got = generate_prompted(p, taps, k, kind, tmap).outputs.values
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_decode_engine_keeps_no_tap_spectra(self, monkeypatch):
        # the decode engine lives for one call, so spectra stored for its
        # rebuilds (blocked from t = 4096 at K = 1024) would be decode
        # memory that decode_peak_aux_elems does not count
        from streamconv import generate as generate_module

        engines = []

        def spy(*args):
            engines.append(make_engine(*args))
            return engines[-1]

        monkeypatch.setattr(generate_module, "make_engine", spy)
        rng = np.random.default_rng(57)
        k = 8192
        phi = Filter(rng.uniform(-1, 1, 100 + k))
        result = generate_prompted(rng.uniform(-1, 1, 100), phi, k, "epoched",
                                   clamp_token(), 1024)
        assert engines[0]._spectra is None and result.filter_spectra_elems == 0
        assert result.decode_peak_aux_elems == k + 1024

    def test_decode_memory_independent_of_prompt(self):
        k = 32
        peaks = set()
        for p_len in (64, 512, 4096):
            rng = np.random.default_rng(p_len)
            p = rng.uniform(-1, 1, p_len)
            taps = rng.uniform(-1, 1, p_len + k)
            result = generate_prompted(p, taps, k, "continuous")
            peaks.add(result.decode_peak_aux_elems)
            assert result.decode_peak_aux_elems <= 4 * k
            assert result.prefill_transform_calls == 1
        assert len(peaks) == 1  # identical for every prompt length


class TestFilterSpectra:
    # K = 512: 2048-point transforms over blocks of 2048 - 512 + 1 = 1537
    # prompt samples, each block against its own 2048-tap segment
    K, N, BLOCK = 512, 2048, 1537

    @staticmethod
    def blocks(p_len):
        return -(-p_len // TestFilterSpectra.BLOCK)

    def elems(self, p_len):
        return 2 * self.blocks(p_len) * (self.N // 2 + 1)

    def counted_prefill(self, forward_rows, prompt, phi, k=K):
        return forward_rows(prefill, prompt, phi, k)

    def test_second_prefill_transforms_no_tap_segment(self, forward_rows):
        rng = np.random.default_rng(51)
        p_len = 7000
        taps = rng.uniform(-1, 1, p_len + self.K)
        phi = Filter(taps)
        first, rows = self.counted_prefill(forward_rows, rng.uniform(-1, 1, p_len), phi)
        assert rows == 2 * self.blocks(p_len)  # the prompt's blocks and the segments
        prompt = rng.uniform(-1, 1, p_len)
        second, rows = self.counted_prefill(forward_rows, prompt, phi)
        assert rows == self.blocks(p_len)  # the prompt's blocks only
        assert first.filter_spectra_elems == second.filter_spectra_elems == self.elems(p_len)
        fresh = prefill(prompt, Filter(taps), self.K).contributions.values
        got = second.contributions.values
        assert np.max(np.abs(got - fresh)) <= 1e-12 * np.max(np.abs(fresh))
        assert second.transform_calls == 1

    def test_longer_prompt_and_new_budget_replace(self, forward_rows):
        rng = np.random.default_rng(52)
        taps = rng.uniform(-1, 1, 20000)
        phi = Filter(taps)
        short, long = rng.uniform(-1, 1, 4000), rng.uniform(-1, 1, 9000)
        cache, _ = self.counted_prefill(forward_rows, short, phi)
        assert cache.filter_spectra_elems == self.elems(4000)
        # too few stored segments: all of them are transformed again
        cache, rows = self.counted_prefill(forward_rows, long, phi)
        assert rows == 2 * self.blocks(9000)
        assert cache.filter_spectra_elems == self.elems(9000)
        want = prefill(long, taps, self.K).contributions.values
        assert np.max(np.abs(cache.contributions.values - want)) <= 1e-12 * np.max(np.abs(want))
        # the shorter prompt again reads the segments it needs
        cache, rows = self.counted_prefill(forward_rows, short, phi)
        assert rows == self.blocks(4000) and cache.filter_spectra_elems == self.elems(9000)
        want = prefill(short, taps, self.K).contributions.values
        assert np.max(np.abs(cache.contributions.values - want)) <= 1e-12 * np.max(np.abs(want))
        # budget 1024: 4096-point transforms over blocks of 3073 samples
        cache, rows = self.counted_prefill(forward_rows, long, phi, 1024)
        assert rows == 2 * 3 and cache.filter_spectra_elems == 2 * 3 * 2049
        assert len(phi._spectra) == 1  # one geometry per Filter

    def test_array_taps_leave_no_state(self, forward_rows):
        rng = np.random.default_rng(53)
        prompt, taps = rng.uniform(-1, 1, 7000), rng.uniform(-1, 1, 7000 + self.K)
        kept = taps.copy()
        results = [self.counted_prefill(forward_rows, prompt, taps) for _ in range(2)]
        for cache, rows in results:
            assert rows == 2 * self.blocks(7000) and cache.filter_spectra_elems == 0
        assert results[0][0].contributions == results[1][0].contributions
        np.testing.assert_array_equal(taps, kept)
        result = generate_prompted(prompt, taps, self.K)
        assert result.filter_spectra_elems == 0 and result.prefill_transform_calls == 1

    @pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy,
                                       lambda phi: pickle.loads(pickle.dumps(phi))])
    def test_copies_and_pickles_carry_no_spectra(self, clone):
        rng = np.random.default_rng(54)
        taps = rng.uniform(-1, 1, 7000 + self.K)
        phi = Filter(taps, 8000)
        assert prefill(rng.uniform(-1, 1, 7000), phi, self.K).filter_spectra_elems > 0
        twin = clone(phi)
        assert twin._spectra == [] and phi._spectra
        assert twin.context_length == 8000 and twin.taps == phi.taps
        assert len(pickle.dumps(phi)) == len(pickle.dumps(Filter(taps, 8000)))

    def test_filter_shared_across_threads(self):
        # four threads over two cores, switching often, prefill through one
        # Filter with two budgets and three prompt lengths: each result must
        # match the array-taps one, whatever store the others left behind
        rng = np.random.default_rng(56)
        taps = rng.uniform(-1, 1, 12000)
        phi = Filter(taps)
        jobs = [(rng.uniform(-1, 1, n), k) for n in (4000, 7000, 10000) for k in (512, 1024)]
        wants = [prefill(p, taps, k).contributions.values for p, k in jobs]
        errors = []

        def work(offset):
            try:
                for i in range(3 * len(jobs)):
                    j = (i + offset) % len(jobs)
                    got = prefill(jobs[j][0], phi, jobs[j][1]).contributions.values
                    if np.max(np.abs(got - wants[j])) > 1e-12 * np.max(np.abs(wants[j])):
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

    def test_scratch_reports_only_a_filters_store(self):
        # array taps get a throwaway Filter for the call; its store is not reported
        taps = np.random.default_rng(67).uniform(-1, 1, 1 << 14)
        phi = Filter(taps)
        plain = generate_scratch(taps, taps.size, "epoched", 0.5, clamp_token())
        held = generate_scratch(phi, taps.size, "epoched", 0.5, clamp_token())
        assert plain.filter_spectra_elems == 0
        assert held.filter_spectra_elems == conv.spectra_floats(phi._spectra) > 0
        assert plain.outputs == held.outputs

    def test_verify_covers_the_reused_path(self, monkeypatch):
        from streamconv.verify import SuiteResult, suite_prompted_oracle

        res = SuiteResult("prompted_oracle")
        suite_prompted_oracle(res, 3, 4096)
        assert res.passed
        real = conv._segment_spectra

        def stale(b, store, *geometry):  # a store read returns zeros
            scale = 0.0 if store else 1.0
            return real(b, store, *geometry) * scale

        monkeypatch.setattr(conv, "_segment_spectra", stale)
        res = SuiteResult("prompted_oracle")
        suite_prompted_oracle(res, 3, 4096)
        assert not res.passed
        # every call after the first through the K = 512 case's Filter reads the store
        assert {(f["through"], f["K"], f["call"], f["engine"]) for f in res.failures} == {
            ("Filter", 512, 0, "epoched"), ("Filter", 512, 0, "continuous"),
            ("Filter", 512, 1, "naive"), ("Filter", 512, 1, "epoched"),
            ("Filter", 512, 1, "continuous")}

    def test_reused_filter_at_prompt_long_size_matches_dot_products(self):
        # the benchmark's prompt-long shape: 2**18 prompt samples, K = 2**12
        rng = np.random.default_rng(55)
        p_len, k = 1 << 18, 1 << 12
        taps = rng.uniform(-1, 1, p_len + k)
        taps /= np.linalg.norm(taps)
        phi = Filter(taps)
        prefill(rng.uniform(-1, 1, p_len), phi, k)
        prompt = rng.uniform(-1, 1, p_len)
        cache = prefill(prompt, phi, k)
        assert cache.filter_spectra_elems == 2 * 22 * (16384 // 2 + 1)
        got = cache.contributions.values
        for q in rng.choice(k, 16, replace=False):
            # slot q reads taps q .. q + p_len - 1 against the reversed prompt
            want = float(np.dot(prompt[::-1], taps[q:q + p_len]))
            assert abs(got[q] - want) <= 1e-12 * abs(want), q


class TestTokenMaps:
    def test_clamp_token_bounds(self):
        clamp = clamp_token(-1.0, 1.0)
        assert clamp(0.5) == 0.5
        assert clamp(7.0) == 1.0
        assert clamp(-7.0) == -1.0

    def test_clamp_requires_ordered_bounds(self):
        with pytest.raises(ConfigurationError):
            clamp_token(1.0, -1.0)

    def test_maps_applied_identically_in_oracle_and_engine(self):
        rng = np.random.default_rng(19)
        p = rng.uniform(-1, 1, 8)
        taps = rng.uniform(-2, 2, 40)  # large taps: clamping will bite
        clamp = clamp_token()
        want = oracle_prompted(p, taps, 32, clamp).values
        got = generate_prompted(p, taps, 32, "continuous", clamp).outputs.values
        tol = 1e-9 * (1.0 + np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= tol

    def test_token_map_call_counts(self):
        # scratch feeds every output but the last; prompted maps every
        # yhat_t, the first before any push
        rng = np.random.default_rng(21)
        taps = rng.uniform(-1, 1, 140)
        p = rng.uniform(-1, 1, 30)
        clamp = clamp_token()
        seen = []

        def tmap(y):
            seen.append(y)
            return clamp(y)

        for kind in ENGINE_KINDS:
            for engine in (None, PushOnly(make_engine(kind, Filter(taps), 100))):
                seen.clear()
                out = generate_scratch(Filter(taps), 100, kind, 0.5, tmap,
                                       engine=engine).outputs.values
                assert len(seen) == 99 and seen == out[:-1].tolist(), kind
            seen.clear()
            out = generate_prompted(p, taps, 64, kind, tmap).outputs.values
            assert len(seen) == 64 and seen == out.tolist(), kind
            seen.clear()
            assert len(generate_scratch(Filter(taps), 1, kind, 0.5, tmap)) == 1
            assert seen == [], kind
