import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamconv import (
    Filter,
    Signal,
    conv_causal_reference,
    conv_full,
    futurefill,
    split_check,
)
from streamconv import convolution as conv
from streamconv import engines as engines_module
from streamconv import spectral as spectral_module
from streamconv.convolution import _futurefill_direct, middle
from streamconv.engines import make_engine
from streamconv.spectral import StuModel, spectral_filters


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if want.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))


finite_list = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=0, max_size=48
)


class TestSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Signal([1.0, float("nan")])
        with pytest.raises(ValueError):
            Signal([float("inf")])

    def test_zero_read_outside_range(self):
        s = Signal([1.0, 2.0])
        assert s.at(0) == 0.0
        assert s.at(1) == 1.0
        assert s.at(2) == 2.0
        assert s.at(3) == 0.0
        assert s.at(-5) == 0.0

    def test_empty_allowed(self):
        assert len(Signal([])) == 0

    def test_values_read_only(self):
        s = Signal([1.0])
        with pytest.raises(ValueError):
            s.values[0] = 2.0


class TestFilter:
    def test_taps_beyond_context_rejected(self):
        with pytest.raises(ValueError):
            Filter([1, 2, 3], context_length=2)

    def test_zero_read_beyond_taps(self):
        f = Filter([1.0, 2.0], context_length=8)
        assert f.tap(2) == 2.0
        assert f.tap(3) == 0.0
        assert f.tap(8) == 0.0

    def test_default_context_is_tap_count(self):
        assert Filter([1, 2, 3]).context_length == 3


class TestCausalReference:
    def test_impulse_returns_filter(self):
        out = conv_causal_reference([1, 0, 0], Filter([5.0, 6.0, 7.0]))
        np.testing.assert_array_equal(out.values, [5, 6, 7])

    def test_hand_evaluated_ramp(self):
        # direct sums: 1*1, 1*1+2*1, 1*1+2*1+3*1
        out = conv_causal_reference([1, 2, 3], Filter([1, 1, 1]))
        np.testing.assert_array_equal(out.values, [1, 3, 6])

    def test_hand_evaluated_ones_against_ramp(self):
        out = conv_causal_reference([1, 1, 1, 1], Filter([1, 2, 3, 4]))
        np.testing.assert_array_equal(out.values, [1, 3, 6, 10])

    def test_empty_input(self):
        assert len(conv_causal_reference([], Filter([1, 2]))) == 0

    def test_short_filter_zero_read(self):
        out = conv_causal_reference([1, 1, 1], Filter([2.0], context_length=3))
        np.testing.assert_array_equal(out.values, [2, 2, 2])


class TestConvFull:
    def test_place_value_example(self):
        # hand double loop: digits of 12 spread over powers of ten
        out = conv_full([1, 2], [1, 10, 100, 1000])
        np.testing.assert_allclose(out.values, [1, 12, 120, 1200, 2000], rtol=1e-12)

    def test_scalar_product(self):
        np.testing.assert_allclose(conv_full([1.0], [3.5]).values, [3.5])

    def test_telescoping_difference(self):
        np.testing.assert_allclose(conv_full([1, 1], [1, -1]).values, [1, 0, -1],
                                   atol=1e-12)

    def test_empty_operand_gives_empty(self):
        assert len(conv_full([], [1, 2, 3])) == 0
        assert len(conv_full([1, 2], [])) == 0

    @given(finite_list, finite_list)
    @settings(max_examples=150, deadline=None)
    def test_commutativity(self, a, b):
        ab = conv_full(a, b).values
        ba = conv_full(b, a).values
        assert ab.shape == ba.shape
        assert rel_err(ab, ba) < 1e-12

    @given(finite_list, finite_list, finite_list,
           st.floats(min_value=-4, max_value=4, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, a, b, c, alpha):
        n = max(len(a), len(b))
        av = np.zeros(n); av[:len(a)] = a
        bv = np.zeros(n); bv[:len(b)] = b
        if n == 0 or len(c) == 0:
            return
        lhs = conv_full(alpha * av + bv, c).values
        rhs = alpha * conv_full(av, c).values + conv_full(bv, c).values
        assert rel_err(lhs, rhs) < 1e-10

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=1, max_size=32),
           st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=1, max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_convolve(self, a, b):
        assert rel_err(conv_full(a, b).values, np.convolve(a, b)) < 1e-11

    def test_causal_prefix_of_full(self):
        # causal outputs are the first len(u) positions of the full product
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, 40)
        taps = rng.uniform(-1, 1, 64)
        causal = conv_causal_reference(u, Filter(taps)).values
        full = conv_full(u, taps).values
        assert rel_err(causal, full[:40]) < 1e-11

    def test_fast_slow_agreement_large(self):
        rng = np.random.default_rng(17)
        n = 1 << 14
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        fast = conv_full(a, b).values
        direct = conv_causal_reference(a, Filter(b, n)).values
        err = float(np.max(np.abs(fast[:n] - direct)))
        assert err <= 1e-9 * (1.0 + float(np.max(np.abs(direct))))


def window_of_full(a, b, start, count):
    """Positions start .. start+count-1 of np.convolve(a, b), zero past its end."""
    full = np.convolve(a, b) if len(a) and len(b) else np.zeros(0)
    out = np.zeros(count)
    got = full[start:start + count]
    out[:got.size] = got
    return out


def record_paths(monkeypatch, *modules):
    """Record ``(path, len(a))`` for each ``middle`` call made through ``modules``.

    The path is ``"direct"``, ``"blocked"`` or, when neither of those
    helpers ran, ``"transform"``.
    """
    paths, seen = [], []
    for path, name in (("direct", "_direct"), ("blocked", "_blocked_transform")):
        def spy(*args, path=path, inner=getattr(conv, name)):
            seen.append(path)
            return inner(*args)
        monkeypatch.setattr(conv, name, spy)

    def recorded(a, b, start, count, spectra=None):
        seen.clear()
        out = conv.middle(a, b, start, count, spectra)
        paths.append((seen[0] if seen else "transform", a.shape[-1]))
        return out

    for module in modules:
        monkeypatch.setattr(module, "middle", recorded)
    return paths


class TestMiddle:
    # per-point factor of the direct-vs-transform cost model, which
    # applies to one-row windows only: the measured one, always direct,
    # always transform. Windows with leading axes always take a
    # transform, the blocked one or one over the whole reach.
    PATHS = [pytest.param(factor, id=f"model{i}")
             for i, factor in enumerate([conv._DIRECT_MACS_PER_POINT, 10 ** 9, 0])]

    @pytest.mark.parametrize("model", PATHS)
    def test_matches_window_of_full_product(self, monkeypatch, model):
        monkeypatch.setattr(conv, "_DIRECT_MACS_PER_POINT", model)
        rng = np.random.default_rng(29)
        for _ in range(600):
            a = rng.uniform(-1, 1, int(rng.integers(0, 300)))
            b = rng.uniform(-1, 1, int(rng.integers(0, 300)))
            # windows before, across and past the end of the product,
            # narrow ones included so that long inputs are cut into blocks
            count = int(rng.integers(0, 40))
            start = int(rng.integers(0, a.size + b.size + 10))
            got = middle(a, b, start, count)
            want = window_of_full(a, b, start, count)
            assert got.shape == (count,)
            assert rel_err(got, want) < 1e-12, (a.size, b.size, start, count)

    def test_blocked_transform_at_rebuild_scale(self, monkeypatch):
        # an epoched rebuild near the end of L = 2**16, K = 1024
        calls = []
        blocked = conv._blocked_transform
        monkeypatch.setattr(conv, "_blocked_transform",
                            lambda *args: calls.append(args[-1]) or blocked(*args))
        rng = np.random.default_rng(31)
        t, k = (1 << 16) - 1024, 1024
        u = rng.uniform(-1, 1, t)
        taps = rng.uniform(-1, 1, t + k)
        got = middle(u, taps, t, k)
        assert calls == [conv.next_pow2(conv._BLOCKED_POINTS_PER_OUTPUT * k)]
        want = np.array([np.dot(u, taps[t + q:q:-1]) for q in range(k)])
        assert rel_err(got, want) < 1e-12

    def test_early_one_row_rebuild_takes_the_blocked_path(self, monkeypatch):
        # an epoched rebuild at L = 2**16, K = 1024 as soon as the input
        # holds one full block of 4096 - 1024 + 1 samples
        calls = []
        blocked = conv._blocked_transform
        monkeypatch.setattr(conv, "_blocked_transform",
                            lambda *args: calls.append(args[-1]) or blocked(*args))
        rng = np.random.default_rng(41)
        t, k = 4096, 1024
        u = rng.uniform(-1, 1, t)
        taps = rng.uniform(-1, 1, 1 << 16)
        got = middle(u, taps, t, k)
        assert calls == [4096]
        want = np.array([np.dot(u, taps[t + q:q:-1]) for q in range(k)])
        assert rel_err(got, want) < 1e-12

    def test_counts_one_call_per_window(self):
        before = conv.transform_calls()
        middle(np.ones(3), np.ones(3), 1, 2)
        middle(np.ones(4000), np.ones(4000), 2000, 2000)
        middle(np.ones(3), np.ones(3), 0, 0)
        assert conv.transform_calls() - before == 3

    # leading shapes of a and b: every filter over every channel, row
    # by row, one operand shared, and axes that broadcast both ways
    LEADS = [((1, 3), (4, 1)), ((3,), (3,)), ((2,), ()), ((), (3,)),
             ((2, 1, 3), (4, 1))]

    @pytest.mark.parametrize("model", PATHS)
    def test_leading_axes_match_row_by_row(self, monkeypatch, model):
        monkeypatch.setattr(conv, "_DIRECT_MACS_PER_POINT", model)
        rng = np.random.default_rng(37)
        for trial in range(150):
            lead_a, lead_b = self.LEADS[trial % len(self.LEADS)]
            a = rng.uniform(-1, 1, lead_a + (int(rng.integers(0, 300)),))
            b = rng.uniform(-1, 1, lead_b + (int(rng.integers(0, 300)),))
            count = int(rng.integers(0, 40))
            start = int(rng.integers(0, a.shape[-1] + b.shape[-1] + 10))
            lead = np.broadcast_shapes(lead_a, lead_b)
            before = conv.transform_calls()
            got = middle(a, b, start, count)
            assert conv.transform_calls() - before == 1  # one call for all rows
            assert got.shape == lead + (count,)
            rows_a = np.broadcast_to(a, lead + a.shape[-1:])
            rows_b = np.broadcast_to(b, lead + b.shape[-1:])
            for index in np.ndindex(lead):
                want = middle(rows_a[index].copy(), rows_b[index].copy(), start, count)
                assert rel_err(got[index], want) < 1e-12, (index, a.shape, b.shape,
                                                           start, count)

    def test_leading_axes_on_the_blocked_path(self, monkeypatch):
        calls = []
        blocked = conv._blocked_transform
        monkeypatch.setattr(conv, "_blocked_transform",
                            lambda *args: calls.append(args[0].shape) or blocked(*args))
        rng = np.random.default_rng(43)
        t, k = 3000, 64
        u = rng.uniform(-1, 1, (1, 3, t))
        taps = rng.uniform(-1, 1, (4, 1, t + k))
        got = middle(u, taps, t, k)
        assert calls == [(1, 3, t)] and got.shape == (4, 3, k)
        for i, c in np.ndindex(4, 3):
            want = np.array([np.dot(u[0, c], taps[i, 0, t + q:q:-1]) for q in range(k)])
            assert rel_err(got[i, c], want) < 1e-12

    @pytest.mark.parametrize("t", [202, 505, 909, 1010])
    def test_batched_rebuild_takes_the_blocked_path(self, monkeypatch, t):
        # an epoched rebuild of 16 filters over 8 channels at L = 1024, K = 101
        calls = []
        blocked = conv._blocked_transform
        monkeypatch.setattr(conv, "_blocked_transform",
                            lambda *args: calls.append(args[-1]) or blocked(*args))
        rng = np.random.default_rng(t)
        length, count = 1024, min(101, 1024 - t)
        u = rng.uniform(-1, 1, (1, 1, 8, t))
        taps = rng.uniform(-1, 1, (1, 16, 1, length)) / 32
        before = conv.transform_calls()
        got = middle(u, taps, t, count)
        assert conv.transform_calls() - before == 1
        assert calls == [conv.next_pow2(2 * count)] and got.shape == (1, 16, 8, count)
        for i, c in np.ndindex(16, 8):
            row = middle(u[0, 0, c], taps[0, i, 0], t, count)
            assert rel_err(got[0, i, c], row) < 1e-12, (i, c)
            # one row keeps its direct path: a valid-mode correlation
            np.testing.assert_array_equal(
                row, np.correlate(taps[0, i, 0, 1:t + count], u[0, 0, c, ::-1]))
        assert len(calls) == 1  # none of the one-row calls was blocked

    def test_store_keeps_its_newest_geometries(self):
        # one-shot windows of the full product of 2048 inputs and 2048
        # taps: window k reads the first k of each, the taps in a geometry
        # of their own
        rng = np.random.default_rng(31)
        a, b = rng.uniform(-1, 1, 2048), rng.uniform(-1, 1, 2048)
        full = np.convolve(a, b)
        store, bound = [], conv._STORE_GEOMETRIES
        for count in range(1100, 1100 + bound + 8):
            got = middle(a, b, 0, count, store)
            np.testing.assert_allclose(got, full[:count], rtol=0, atol=1e-10)
            # the newest geometries, oldest first, never more than the bound
            kept = range(max(1100, count + 1 - bound), count + 1)
            assert [key for key, _ in store] == [(k, 0, 4096, 4096) for k in kept]
        # a stored geometry is read: its entry is not written again
        entries = [fb for _, fb in store]
        middle(a, b, 0, count - bound + 1, store)
        assert [fb for _, fb in store] == entries

    def test_one_row_levels_switch_to_the_transform_at_1024(self, monkeypatch):
        # a continuous engine at horizon 2**12: level m is a window of m
        # inputs and m outputs, at every multiple of the block B with
        # lowest set bit m; the levels from B to 512 are summed directly
        paths = record_paths(monkeypatch, engines_module)
        rng = np.random.default_rng(47)
        engine = make_engine("continuous", rng.uniform(-1, 1, 1 << 12), 1 << 12)
        engine.push_many(rng.uniform(-1, 1, 1 << 12))
        direct = {1 << k for k in range(engines_module._BLOCK.bit_length() - 1, 10)}
        assert direct and {m for path, m in paths if path == "direct"} == direct
        assert sorted(m for path, m in paths if path != "direct") == [1024, 1024, 2048]
        assert {path for path, m in paths if m >= 1024} == {"transform"}

    @pytest.mark.parametrize("model", PATHS)
    @pytest.mark.parametrize("kind", ["epoched", "continuous"])
    def test_leading_axes_never_take_the_direct_path(self, monkeypatch, model, kind):
        # stu-online's shape: 16 filters over 8 channels at L = 1024,
        # the bank's Hankel products included
        monkeypatch.setattr(conv, "_DIRECT_MACS_PER_POINT", model)
        paths = record_paths(monkeypatch, engines_module, spectral_module)
        rng = np.random.default_rng(53)
        bank = spectral_filters(1024, 16)
        projections = rng.uniform(-1, 1, (16, 8, 8)) / 128
        stu = StuModel(bank, projections=projections, engine_kind=kind, max_steps=1024)
        for u in rng.uniform(-1, 1, (1024, 8)):
            stu.step(u)
        assert any(m == 1024 for _, m in paths)  # the bank's products
        assert any(m < 1024 for _, m in paths)  # the engine's boundaries
        assert "direct" not in {path for path, _ in paths}


class TestFutureFill:
    def test_place_value_slice(self):
        # positions 3..5 of the full product above
        out = futurefill([1, 2], [1, 10, 100, 1000])
        np.testing.assert_allclose(out.values, [120, 1200, 2000], rtol=1e-12)

    def test_empty_past_contributes_nothing(self):
        out = futurefill([], [1, 2, 3])
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_single_cross_term(self):
        np.testing.assert_allclose(futurefill([1.0], [1.0, 1.0]).values, [1.0])

    def test_short_w_gives_empty(self):
        assert len(futurefill([1, 2, 3], [1.0])) == 0
        assert len(futurefill([1, 2, 3], [])) == 0

    @pytest.mark.parametrize("v, w", [([1, 2], [1, 10, 100]), ([], [1, 2, 3]),
                                      ([1, 2, 3], [1.0]), ([1, 2, 3], []), ([], [])])
    def test_every_call_is_one_middle_call(self, v, w):
        before = conv.transform_calls()
        futurefill(v, w)
        assert conv.transform_calls() == before + 1

    def test_length_is_len_w_minus_one(self):
        assert len(futurefill([1, 2, 3, 4], [1, 2, 3])) == 2

    @given(finite_list, st.lists(st.floats(min_value=-10, max_value=10,
                                           allow_nan=False),
                                 min_size=1, max_size=48))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_summation(self, v, w):
        got = futurefill(v, w).values
        want = _futurefill_direct(np.asarray(v, float), np.asarray(w, float))
        assert got.shape == want.shape
        assert rel_err(got, want) < 1e-10

    def test_slice_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            t1 = int(rng.integers(1, 100))
            t2 = int(rng.integers(2, 100))
            v = rng.uniform(-1, 1, t1)
            w = rng.uniform(-1, 1, t2)
            got = futurefill(v, w).values
            want = np.convolve(v, w)[t1:t1 + t2 - 1]
            assert rel_err(got, want) < 1e-10


class TestSplitCheck:
    def test_hand_example(self):
        # whole product [1,3,6,10]; at s=3: 3+3, at s=4: 7+3
        assert split_check([1, 2, 3, 4], [1, 1, 1, 1], 2)

    def test_degenerate_full_split(self):
        assert split_check([1, 2, 3, 4], [1, 1, 1, 1], 4)

    def test_all_split_points_random_64(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, 64)
        b = rng.uniform(-1, 1, 64)
        assert all(split_check(a, b, t1) for t1 in range(1, 65))

    def test_bad_split_index(self):
        with pytest.raises(ValueError):
            split_check([1, 2], [3, 4], 0)
        with pytest.raises(ValueError):
            split_check([1, 2], [3, 4], 3)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            split_check([1, 2, 3], [1, 2], 1)
