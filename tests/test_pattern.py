"""Tests for the Gaussian-lobe pattern model and fitter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dirmusic.pattern as pattern_module
from dirmusic.pattern import (
    DEFAULT_PATTERN,
    GaussianMixturePattern,
    eval_pattern,
    fit_pattern,
    gaussian_sum,
    gaussian_sum_jacobian,
    wrap_angle,
)

# Independent reference: plain-Python evaluation of the built-in lobes.
_LOBES = [(0.5255, 218.1, 51.73), (0.3405, 304.8, 41.0), (0.6251, 156.1, 109.1)]


def _reference_gain(theta):
    theta = theta % 360.0
    return sum(a * math.exp(-(((theta - b) / c) ** 2)) for a, b, c in _LOBES)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw, expected", [(0.0, 0.0), (420.0, 60.0), (-90.0, 270.0), (360.0, 0.0)]
    )
    def test_known_values(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(-1e6, 1e6))
    def test_range_and_congruence(self, theta):
        wrapped = wrap_angle(theta)
        assert 0.0 <= wrapped < 360.0
        assert math.isclose(
            math.cos(math.radians(wrapped)), math.cos(math.radians(theta)), abs_tol=1e-6
        )
        assert math.isclose(
            math.sin(math.radians(wrapped)), math.sin(math.radians(theta)), abs_tol=1e-6
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))
        with pytest.raises(ValueError):
            wrap_angle(np.array([1.0, np.inf]))

    def test_array_input(self):
        out = wrap_angle(np.array([-1.0, 361.0]))
        assert_allclose(out, [359.0, 1.0])


class TestEvalPattern:
    def test_single_component_peak(self):
        pattern = GaussianMixturePattern(((1.0, 0.0, 1.0),))
        assert eval_pattern(pattern, 0.0) == pytest.approx(1.0)

    def test_matches_reference_evaluation(self):
        thetas = np.linspace(0.0, 359.9, 131)
        got = eval_pattern(DEFAULT_PATTERN, thetas)
        want = [_reference_gain(t) for t in thetas]
        assert_allclose(got, want, rtol=1e-13)

    def test_value_at_widest_lobe_center(self):
        # 0.6251 from the lobe there plus 0.1249 leakage from the first lobe
        assert eval_pattern(DEFAULT_PATTERN, 156.1) == pytest.approx(0.750046, abs=1e-5)

    def test_wrap_seam_is_small_and_documented(self):
        g0 = eval_pattern(DEFAULT_PATTERN, 0.0)
        g_end = eval_pattern(DEFAULT_PATTERN, 359.999)
        assert g0 == pytest.approx(0.080699, abs=1e-5)
        assert g_end == pytest.approx(0.074877, abs=1e-5)
        assert g0 - g_end == pytest.approx(0.005823, abs=1e-4)

    def test_full_turn_invariance(self):
        thetas = np.linspace(-720.0, 720.0, 57)
        assert_allclose(
            eval_pattern(DEFAULT_PATTERN, thetas),
            eval_pattern(DEFAULT_PATTERN, thetas + 360.0),
            rtol=1e-12,
        )

    def test_nonnegative_everywhere(self):
        thetas = np.arange(0.0, 360.0, 0.25)
        assert np.all(eval_pattern(DEFAULT_PATTERN, thetas) >= 0.0)


class TestGaussianSum:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lobes=st.integers(1, 7),
        shape=st.sampled_from([(), (1,), (7,), (360,), (6, 360)]),
    )
    def test_equals_one_expression_form_bitwise(self, seed, n_lobes, shape):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 360.0, size=shape)
        params = np.column_stack(
            [rng.uniform(0.0, 1.0, n_lobes), rng.uniform(0.0, 360.0, n_lobes), rng.uniform(1.0, 120.0, n_lobes)]
        )
        d = angles[..., None] - params[:, 1]
        expected = (params[:, 0] * np.exp(-((d / params[:, 2]) ** 2))).sum(axis=-1)
        assert np.array_equal(gaussian_sum(angles, params.ravel()), expected)


class TestValidation:
    def test_component_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            GaussianMixturePattern(((-0.1, 10.0, 5.0),))
        with pytest.raises(ValueError):
            GaussianMixturePattern(((1.0, 360.0, 5.0),))
        with pytest.raises(ValueError):
            GaussianMixturePattern(((1.0, 10.0, 0.0),))

    def test_pattern_needs_components(self):
        with pytest.raises(ValueError):
            GaussianMixturePattern(())

    @pytest.mark.parametrize("lobes", [[(0.0, 10.0, 5.0)], [(0.0, 10.0, 5.0), (0.0, 200.0, 30.0)]])
    def test_pattern_needs_a_nonzero_amplitude(self, lobes):
        # an all-zero table gives zero gain everywhere: no signal to locate
        with pytest.raises(ValueError, match="amplitude"):
            GaussianMixturePattern(lobes)
        assert GaussianMixturePattern(lobes + [(0.5, 90.0, 20.0)]).lobes[-1] == (0.5, 90.0, 20.0)

    @pytest.mark.parametrize(
        "lobes",
        [[(1.0, 10.0)], [(1.0, 10.0, 5.0, 2.0)], [1.0, 10.0, 5.0], ["1,10,5"], 5.0],
        ids=["short_row", "long_row", "flat_row", "string_row", "scalar"],
    )
    def test_lobes_must_be_rows_of_three(self, lobes):
        with pytest.raises(ValueError, match="lobe"):
            GaussianMixturePattern(lobes)

    def test_any_rows_give_the_same_hashable_lobe_table(self):
        rows = [[1, 10, 5], [np.float32(0.5), np.int64(200), 30.0]]
        table = ((1.0, 10.0, 5.0), (0.5, 200.0, 30.0))
        for lobes in (rows, np.array(rows, dtype=float), table):
            pattern = GaussianMixturePattern(lobes)
            assert pattern.lobes == table
            assert all(type(v) is float for lobe in pattern.lobes for v in lobe)
            assert pattern == GaussianMixturePattern(table)
            assert hash(pattern) == hash(GaussianMixturePattern(table))
        assert_array_equal(np.array(GaussianMixturePattern(table).lobes), np.array(table))


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(1234)
        angles = np.linspace(0.0, 359.0, 73)
        for _ in range(10):
            params = np.column_stack(
                [rng.uniform(0.1, 1.0, 3), rng.uniform(0.0, 359.0, 3), rng.uniform(10.0, 120.0, 3)]
            ).ravel()
            analytic = gaussian_sum_jacobian(angles, params)
            fd = np.empty_like(analytic)
            for i in range(params.size):
                h = 1e-6 * max(1.0, abs(params[i]))
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                fd[:, i] = (gaussian_sum(angles, up) - gaussian_sum(angles, down)) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
            assert rel <= 1e-5


class TestFitPattern:
    def test_exact_single_gaussian_recovery(self):
        truth = (1.0, 100.0, 30.0)
        angles = np.arange(0.0, 360.0, 4.0)
        gains = truth[0] * np.exp(-(((angles - truth[1]) / truth[2]) ** 2))
        fit = fit_pattern(angles, gains, 1)
        assert fit.converged
        got = np.array(fit.pattern.lobes)[0]
        assert_allclose(got, truth, rtol=1e-6)

    def test_roundtrip_three_components_noise_free(self):
        angles = np.arange(0.0, 360.0, 1.0)
        gains = eval_pattern(DEFAULT_PATTERN, angles)
        fit = fit_pattern(angles, gains, 3)
        fitted = eval_pattern(fit.pattern, angles)
        rmse = np.sqrt(np.mean((fitted - gains) ** 2))
        assert rmse <= 1e-4 * gains.max()

    def test_roundtrip_with_uniform_noise(self):
        rng = np.random.default_rng(77)
        angles = np.arange(0.0, 360.0, 1.0)
        clean = eval_pattern(DEFAULT_PATTERN, angles)
        fit = fit_pattern(angles, clean + rng.uniform(-0.01, 0.01, angles.size), 3)
        fitted = eval_pattern(fit.pattern, angles)
        rmse = np.sqrt(np.mean((fitted - clean) ** 2))
        assert rmse <= 0.02 * clean.max()

    def test_reported_residual_is_objective_of_fitted_pattern(self):
        rng = np.random.default_rng(3)
        angles = np.arange(0.0, 360.0, 2.0)
        gains = eval_pattern(DEFAULT_PATTERN, angles) + rng.uniform(-0.01, 0.01, angles.size)
        fit = fit_pattern(angles, gains, 3)
        resid = eval_pattern(fit.pattern, angles) - gains
        assert fit.converged
        assert fit.residual == pytest.approx(float(resid @ resid), rel=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_pattern([0.0, 10.0, 20.0, 30.0], [1.0, 1.0, 1.0, 1.0], 2)

    def test_duplicate_angles_rejected(self):
        angles = [0.0, 10.0, 370.0, 30.0, 40.0, 50.0]  # 370 wraps onto 10
        with pytest.raises(ValueError):
            fit_pattern(angles, np.ones(6), 2)

    def test_reports_non_convergence_on_tiny_budget(self, monkeypatch):
        rng = np.random.default_rng(5)
        angles = np.arange(0.0, 360.0, 2.0)
        gains = eval_pattern(DEFAULT_PATTERN, angles) + rng.uniform(-0.05, 0.05, angles.size)
        full = fit_pattern(angles, gains, 3)
        monkeypatch.setattr(pattern_module, "_MAX_NFEV", 1)
        fit = fit_pattern(angles, gains, 3)
        assert not fit.converged
        assert fit.n_iter == 1
        assert fit.residual >= full.residual
