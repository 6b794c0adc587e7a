import copy
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from streamconv import (
    ENGINE_KINDS,
    ConfigurationError,
    CostMeter,
    SequenceFormatError,
    StuModel,
    conv_causal_reference,
    Filter,
    hankel_entry,
    hankel_matrix,
    load_filter_bank,
    make_engine,
    ogd_spectral_step,
    save_filter_bank,
    spectral_filters,
)
import streamconv.spectral as spectral_module
from streamconv.spectral import MAX_DENSE_EIG, full_projections_from_factors


class TestHankel:
    def test_corner_entry(self):
        # integral of (a-1)^2 over [0,1] is 1/3
        assert hankel_entry(1, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_off_diagonal_entry(self):
        assert hankel_entry(1, 2) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_symmetry(self):
        assert hankel_entry(3, 5) == hankel_entry(5, 3)

    def test_closed_form_vs_quadrature(self):
        for n in range(2, 65):
            integral, _ = quad(lambda a: (a - 1.0) ** 2 * a ** (n - 2),
                               0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
            assert abs(hankel_entry(1, n - 1) - integral) <= 1e-12

    def test_matrix_matches_entries(self):
        m = hankel_matrix(5)
        for i in range(1, 6):
            for j in range(1, 6):
                assert m[i - 1, j - 1] == hankel_entry(i, j)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            hankel_entry(0, 1)


class TestFilterBank:
    def test_order_one_bank(self):
        bank = spectral_filters(1, 1)
        np.testing.assert_allclose(bank.filters, [[1.0]])
        np.testing.assert_allclose(bank.eigenvalues, [1.0 / 3.0], atol=1e-15)

    def test_orthonormal_and_ordered(self):
        bank = spectral_filters(64, 8)
        gram = bank.filters.T @ bank.filters
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8
        vals = bank.eigenvalues
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 0)

    def test_sign_convention_deterministic(self):
        bank = spectral_filters(32, 4)
        for idx in range(4):
            col = bank.filter_at(idx)
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_improves_with_more_filters(self):
        h = hankel_matrix(64)
        bank = spectral_filters(64, 8)
        errors = []
        for k in range(1, 9):
            approx = (bank.filters[:, :k] * bank.eigenvalues[:k]) @ bank.filters[:, :k].T
            errors.append(np.linalg.norm(h - approx))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_top_eigenpairs_match_full_decomposition(self):
        length, k = 1024, 16
        bank = spectral_filters(length, k)
        vals, vecs = np.linalg.eigh(hankel_matrix(length))
        full = vecs[:, ::-1][:, :k]
        for i in range(k):
            got, want = bank.filter_at(i), full[:, i]
            err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
            assert err <= 1e-6, i
        np.testing.assert_allclose(bank.eigenvalues, np.maximum(vals[::-1][:k], 0.0),
                                   rtol=0, atol=1e-12)
        gram = bank.filters.T @ bank.filters
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8

    @pytest.mark.parametrize("length", [1, 2, 7, 64, 1000])
    def test_hankel_product_matches_dense(self, length):
        x = np.random.default_rng(length).standard_normal((length, 5))
        want = hankel_matrix(length) @ x
        got = spectral_module._hankel_product(
            spectral_module._hankel_sequence(length), x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_matches_lapack_top_eigenpairs_at_2048(self):
        length, k = 2048, 16
        vals, vecs = eigh(hankel_matrix(length), subset_by_index=[length - k, length - 1])
        vals, vecs = vals[::-1], vecs[:, ::-1]
        bank = spectral_filters(length, k)
        for i in range(k):
            got, want = bank.filter_at(i), vecs[:, i]
            err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
            assert err <= 1e-6, i
        np.testing.assert_allclose(bank.eigenvalues, np.maximum(vals, 0.0),
                                   rtol=0, atol=1e-12)
        gram = bank.filters.T @ bank.filters
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8

    def test_banks_are_bitwise_reproducible(self):
        a, b = spectral_filters(512, 12), spectral_filters(512, 12)
        assert a.filters.tobytes() == b.filters.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    @pytest.mark.parametrize("length, k", [(1, 1), (8, 8), (9, 4)])
    def test_whole_space_block_matches_full_decomposition(self, length, k):
        # count + oversampling reaches the order: one Rayleigh-Ritz step
        # over the whole space
        vals, vecs = np.linalg.eigh(hankel_matrix(length))
        vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]
        bank = spectral_filters(length, k)
        for i in range(k):
            got, want = bank.filter_at(i), vecs[:, i]
            err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
            assert err <= 1e-8, i
        np.testing.assert_allclose(bank.eigenvalues, np.maximum(vals, 0.0),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("length, k", [(64, 8), (256, 16), (1000, 999), (2048, 1)])
    def test_residuals_within_stop_rule_bound(self, length, k):
        # the stop rule bounds the residuals of the computed products by
        # RESIDUAL_TOL eps lambda_1; against the dense matrix they may
        # differ by the products' own rounding, far less than as much again
        bank = spectral_filters(length, k)
        resid = hankel_matrix(length) @ bank.filters - bank.filters * bank.eigenvalues
        bound = 2 * spectral_module.RESIDUAL_TOL * np.finfo(np.float64).eps
        assert np.max(np.linalg.norm(resid, axis=0)) <= bound * bank.eigenvalues[0]

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral_module, "_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError):
            spectral_filters(256, 4)

    def test_caps_and_bounds(self):
        with pytest.raises(ConfigurationError):
            spectral_filters(8, 9)
        with pytest.raises(ConfigurationError):
            spectral_filters(MAX_DENSE_EIG + 1, 1)

    def test_csv_round_trip_exact(self, tmp_path):
        bank = spectral_filters(64, 8)
        path = str(tmp_path / "bank.csv")
        save_filter_bank(bank, path)
        loaded = load_filter_bank(path)
        np.testing.assert_array_equal(loaded.filters, bank.filters)
        gram = loaded.filters.T @ loaded.filters
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8

    @pytest.mark.parametrize("text, line", [
        ("2,1\n0.5\n0.25\n1.0\n", 4),  # a row the header does not declare
        ("-2,1\n", 1),  # a negative dimension
        ("3,1\n0.5\n0.25\n", 4),  # a missing row, named where it belongs
    ], ids=["extra-row", "negative-dimension", "missing-row"])
    def test_malformed_file_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bank.csv"
        path.write_text(text)
        with pytest.raises(SequenceFormatError) as info:
            load_filter_bank(str(path))
        assert (info.value.path, info.value.line) == (str(path), line)


class TestStuModel:
    def test_copy_kernel_identity_projection(self):
        # one filter = unit impulse, projection = identity: output echoes input
        bank_filters = np.zeros((8, 1))
        bank_filters[0, 0] = 1.0
        from streamconv.spectral import SpectralFilterBank
        bank = SpectralFilterBank(filters=bank_filters)
        model = StuModel(bank, projections=np.eye(2)[None, :, :],
                         engine_kind="naive", max_steps=16)
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.uniform(-1, 1, 2)
            np.testing.assert_allclose(model.step(u), u, atol=1e-12)

    def test_engine_kinds_agree_inside_model(self):
        rng = np.random.default_rng(42)
        bank = spectral_filters(32, 3)
        proj = rng.standard_normal((3, 4, 4)) * 0.4
        steps = 512
        a = StuModel(bank, projections=proj.copy(), engine_kind="naive",
                     max_steps=steps)
        b = StuModel(bank, projections=proj.copy(), engine_kind="continuous",
                     max_steps=steps)
        worst = 0.0
        for _ in range(steps):
            u = rng.uniform(-1, 1, 4)
            worst = max(worst, float(np.max(np.abs(a.step(u) - b.step(u)))))
        assert worst <= 1e-7

    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(7)
        length, k, d, steps = 16, 3, 2, 48
        bank = spectral_filters(length, k)
        proj = rng.standard_normal((k, d, d)) * 0.5
        model = StuModel(bank, projections=proj, engine_kind="continuous",
                         max_steps=steps)
        us = rng.uniform(-1, 1, (steps, d))
        streamed = np.array([model.step(us[t]) for t in range(steps)])
        batch = np.zeros_like(streamed)
        for i in range(k):
            taps = bank.filter_at(i)
            feats = np.column_stack([
                conv_causal_reference(us[:, c], Filter(taps, steps)).values
                for c in range(d)
            ])
            batch += feats @ proj[i].T
        assert np.max(np.abs(streamed - batch)) <= 1e-7

    def test_tensordot_equals_full_with_factored_projections(self):
        rng = np.random.default_rng(21)
        length, k, d, steps = 32, 3, 4, 40
        bank = spectral_filters(length, k)
        m_filters = rng.standard_normal((k, d))
        m_mix = rng.standard_normal((d, d))
        tensor = StuModel(bank, factor_filters=m_filters, factor_mix=m_mix,
                          engine_kind="naive", max_steps=steps)
        full = StuModel(bank,
                        projections=full_projections_from_factors(m_filters, m_mix),
                        engine_kind="naive", max_steps=steps)
        for _ in range(steps):
            u = rng.uniform(-1, 1, d)
            np.testing.assert_allclose(tensor.step(u), full.step(u), atol=1e-9)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_full_mode_features_match_reference(self, kind):
        # distinct filters and inputs, so a wrong engine-index mapping shows
        rng = np.random.default_rng(3)
        length, k, d_in, d_out, steps = 16, 3, 2, 4, 40
        bank = spectral_filters(length, k)
        model = StuModel(bank, projections=np.zeros((k, d_out, d_in)),
                         engine_kind=kind, max_steps=steps)
        us = rng.uniform(-1, 1, (steps, d_in))
        feats = np.empty((steps, k, d_in))
        for t in range(steps):
            model.step(us[t])
            feats[t] = model.last_features
        for i in range(k):
            for c in range(d_in):
                want = conv_causal_reference(us[:, c], Filter(bank.filter_at(i), steps))
                np.testing.assert_allclose(feats[:, i, c], want.values, atol=1e-9)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_full_mode_counters_are_k_times_d_engines(self, kind):
        length, k, d_in, steps = 32, 4, 3, 100
        bank = spectral_filters(length, k)
        model = StuModel(bank, projections=np.zeros((k, 2, d_in)),
                         engine_kind=kind, max_steps=steps)
        rng = np.random.default_rng(8)
        us = rng.uniform(-1, 1, (steps, d_in))
        for t in range(steps):
            model.step(us[t])
        single = make_engine(kind, Filter(bank.filter_at(0), steps), steps)
        single.push_many(us[:, 0])
        assert model.engine.shape == (k, d_in)
        for name in CostMeter().as_dict():
            total = getattr(model.engine.meter, name)
            assert total == k * d_in * getattr(single.meter, name), name

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @pytest.mark.parametrize("mode", ["full", "tensordot"])
    def test_reset_then_replay_matches_fresh_model(self, mode, kind):
        rng = np.random.default_rng(31)
        length, k, d, steps = 32, 3, 2, 100
        bank = spectral_filters(length, k)
        if mode == "full":
            weights = {"projections": rng.standard_normal((k, d, d))}
        else:
            weights = {"factor_filters": rng.standard_normal((k, d)),
                       "factor_mix": rng.standard_normal((d, d))}
        fresh, model = (StuModel(bank, engine_kind=kind, max_steps=steps,
                                 **{n: w.copy() for n, w in weights.items()})
                        for _ in range(2))
        for u in rng.uniform(-1, 1, (77, d)):  # mid-block, mid-epoch
            model.step(u)
        model.reset()
        assert model.last_features is None
        for u in rng.uniform(-1, 1, (steps, d)):
            np.testing.assert_array_equal(model.step(u), fresh.step(u))
            if mode == "full":
                np.testing.assert_array_equal(model.last_features, fresh.last_features)
            else:
                assert model.last_features is None and fresh.last_features is None

    def test_non_finite_input_rejected_before_any_push(self):
        bank = spectral_filters(16, 2)
        model = StuModel(bank, projections=np.ones((2, 2, 2)),
                         engine_kind="continuous", max_steps=8)
        model.step(np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            model.step(np.array([0.5, np.nan]))
        assert model.engine.shape == (2, 2)
        assert model.engine.steps == 1

    def test_tensordot_engine_count_is_dimension(self):
        bank = spectral_filters(16, 4)
        model = StuModel(bank, factor_filters=np.ones((4, 3)),
                         factor_mix=np.eye(3), max_steps=8)
        assert model.engine.shape == (3,)
        for u in np.random.default_rng(5).uniform(-1, 1, (8, 3)):
            model.step(u)
        single = make_engine("naive", Filter(model.mixed_kernels[:, 0], 16), 8)
        single.push_many(np.zeros(8))
        assert model.engine.meter == CostMeter(
            *(3 * v for v in single.meter.as_dict().values()))

    def test_dimension_mismatch_rejected(self):
        bank = spectral_filters(16, 2)
        model = StuModel(bank, projections=np.zeros((2, 3, 3)), max_steps=4)
        with pytest.raises(ConfigurationError):
            model.step(np.zeros(5))
        with pytest.raises(ConfigurationError):
            StuModel(bank, projections=np.zeros((3, 2, 2)), max_steps=4)


def _replay_einsum_formulas(proj, feats, targets, lr):
    """Predictions and projections of OGD written as an einsum and a
    broadcast update over (k, d_out, d_in) projections."""
    proj = proj.copy()
    preds = np.empty(targets.shape)
    for t, (f, y) in enumerate(zip(feats, targets)):
        preds[t] = np.einsum("ioc,ic->o", proj, f)
        residual = preds[t] - y
        proj -= lr * 2.0 * (residual[:, None] * f[:, None, :])
    return preds, proj


class TestFlatProjections:
    def test_projections_view_shape_and_write_through(self):
        rng = np.random.default_rng(61)
        k, d_out, d_in = 3, 4, 2
        bank = spectral_filters(16, k)
        proj = rng.standard_normal((k, d_out, d_in))
        model = StuModel(bank, projections=proj, max_steps=8)
        assert model.projections.shape == (k, d_out, d_in)
        np.testing.assert_array_equal(model.projections, proj)
        model.step(rng.uniform(-1, 1, d_in))
        new = rng.standard_normal((k, d_out, d_in))
        model.projections[...] = new
        np.testing.assert_array_equal(model.projections, new)
        y = model.step(rng.uniform(-1, 1, d_in))
        want = np.einsum("ioc,ic->o", new, model.last_features)
        np.testing.assert_allclose(y, want, rtol=1e-14, atol=1e-15)
        model.projections[1, 2, 0] = 7.0
        assert model.projections[1, 2, 0] == 7.0
        model.projections = np.zeros((k, d_out, d_in))
        np.testing.assert_array_equal(model.step(rng.uniform(-1, 1, d_in)), np.zeros(d_out))

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copy_mid_stream_continues_like_original(self, how, kind):
        rng = np.random.default_rng(67)
        k, d, steps = 3, 2, 120
        bank = spectral_filters(32, k)
        model = StuModel(bank, projections=rng.standard_normal((k, d, d)) * 0.3,
                         engine_kind=kind, max_steps=steps + 1)
        us, ys = rng.uniform(-1, 1, (2, steps, d))
        for t in range(77):  # mid-block, mid-epoch
            ogd_spectral_step(model, us[t], ys[t], 0.01)
        twin = copy.deepcopy(model) if how == "deepcopy" else pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(twin.projections, model.projections)
        for t in range(77, steps):
            np.testing.assert_array_equal(ogd_spectral_step(twin, us[t], ys[t], 0.01),
                                          ogd_spectral_step(model, us[t], ys[t], 0.01))
            np.testing.assert_array_equal(twin.projections, model.projections)
        # the copy's view reads the matrix its updates write, and no longer the original's
        twin.projections[...] = 0.0
        np.testing.assert_array_equal(twin.step(np.full(d, 0.5)), np.zeros(d))
        assert np.any(model.projections != 0.0)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_ogd_matches_einsum_and_broadcast_replay(self, kind):
        rng = np.random.default_rng(71)
        k, d_in, d_out, steps, lr = 4, 3, 5, 256, 0.01
        bank = spectral_filters(steps, k)
        proj = rng.uniform(-1, 1, (k, d_out, d_in)) / (k * d_in)
        model = StuModel(bank, projections=proj, engine_kind=kind, max_steps=steps)
        us = rng.uniform(-1, 1, (steps, d_in))
        ys = rng.uniform(-1, 1, (steps, d_out))
        preds = np.empty((steps, d_out))
        feats = np.empty((steps, k, d_in))
        for t in range(steps):
            preds[t] = ogd_spectral_step(model, us[t], ys[t], lr)
            feats[t] = model.last_features
        want_preds, want_proj = _replay_einsum_formulas(proj, feats, ys, lr)
        assert np.max(np.abs(preds - want_preds)) <= 1e-13 * np.max(np.abs(want_preds))
        assert (np.max(np.abs(model.projections - want_proj))
                <= 1e-13 * np.max(np.abs(want_proj)))


class TestGradientUpdates:
    def test_zero_residual_leaves_projections_unchanged(self):
        bank = spectral_filters(8, 2)
        model = StuModel(bank, projections=np.zeros((2, 2, 2)), max_steps=8)
        before = model.projections.copy()
        y_hat = ogd_spectral_step(model, np.array([0.3, -0.2]),
                                  np.zeros(2), 0.05)
        np.testing.assert_array_equal(y_hat, np.zeros(2))
        np.testing.assert_array_equal(model.projections, before)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(55)
        d, k, length, steps = 3, 2, 16, 5
        bank = spectral_filters(length, k)
        proj = rng.standard_normal((k, d, d)) * 0.3
        us = rng.uniform(-1, 1, (steps, d))
        ys = rng.uniform(-1, 1, (steps, d))

        def final_loss(p):
            model = StuModel(bank, projections=p, engine_kind="naive",
                             max_steps=steps)
            for t in range(steps - 1):
                model.step(us[t])
            r = model.step(us[-1]) - ys[-1]
            return float(r @ r)

        model = StuModel(bank, projections=proj.copy(), engine_kind="naive",
                         max_steps=steps)
        for t in range(steps - 1):
            model.step(us[t])
        y_hat = model.step(us[-1])
        feats = model.last_features
        residual = y_hat - ys[-1]
        eps = 1e-6
        for i in range(k):
            analytic = 2.0 * np.outer(residual, feats[i])
            numeric = np.empty((d, d))
            for r in range(d):
                for c in range(d):
                    up = proj.copy(); up[i, r, c] += eps
                    dn = proj.copy(); dn[i, r, c] -= eps
                    numeric[r, c] = (final_loss(up) - final_loss(dn)) / (2 * eps)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-5

    def test_teacher_student_loss_decreases(self):
        rng = np.random.default_rng(11)
        d, k, length, steps = 3, 2, 16, 2000
        bank = spectral_filters(length, k)
        teacher = StuModel(bank, projections=rng.standard_normal((k, d, d)),
                           engine_kind="naive", max_steps=steps)
        student = StuModel(bank, projections=np.zeros((k, d, d)),
                           engine_kind="naive", max_steps=steps)
        losses = []
        for _ in range(steps):
            u = rng.uniform(-1, 1, d)
            y = teacher.step(u)
            y_hat = ogd_spectral_step(student, u, y, learning_rate=0.01)
            losses.append(float(np.sum((y_hat - y) ** 2)))
        decile = steps // 10
        assert np.mean(losses[-decile:]) < np.mean(losses[:decile])

    BAD_CALLS = {
        "short target": (np.zeros(1), 0.05, ConfigurationError),
        "long target": (np.zeros(3), 0.05, ConfigurationError),
        "matrix target": (np.zeros((2, 1)), 0.05, ConfigurationError),
        "nan target": (np.array([0.1, np.nan]), 0.05, ValueError),
        "inf target": (np.array([np.inf, 0.1]), 0.05, ValueError),
        "nan rate": (np.zeros(2), float("nan"), ConfigurationError),
        "inf rate": (np.zeros(2), float("inf"), ConfigurationError),
        "zero rate": (np.zeros(2), 0.0, ConfigurationError),
        "negative rate": (np.zeros(2), -0.1, ConfigurationError),
    }

    @pytest.mark.parametrize("case", sorted(BAD_CALLS))
    def test_bad_target_or_rate_rejected_before_any_state_change(self, case):
        y, lr, error = self.BAD_CALLS[case]
        rng = np.random.default_rng(73)
        bank = spectral_filters(16, 2)
        model = StuModel(bank, projections=rng.standard_normal((2, 2, 2)),
                         engine_kind="continuous", max_steps=8)
        ogd_spectral_step(model, np.array([0.5, -0.5]), np.array([0.2, 0.1]), 0.05)
        before, feats = model.projections.copy(), model.last_features
        with pytest.raises(error):
            ogd_spectral_step(model, np.array([0.3, 0.4]), y, lr)
        assert model.engine.steps == 1
        np.testing.assert_array_equal(model.projections, before)
        assert model.last_features is feats

    def test_requires_full_mode_and_positive_rate(self):
        bank = spectral_filters(8, 2)
        tensor = StuModel(bank, factor_filters=np.ones((2, 2)),
                          factor_mix=np.eye(2), max_steps=4)
        with pytest.raises(ConfigurationError):
            ogd_spectral_step(tensor, np.zeros(2), np.zeros(2), 0.1)
        full = StuModel(bank, projections=np.zeros((2, 2, 2)), max_steps=4)
        with pytest.raises(ConfigurationError):
            ogd_spectral_step(full, np.zeros(2), np.zeros(2), 0.0)
