"""Tests for the covariance/eigenspace/spectrum estimation chain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dirmusic.estimator import (
    ambiguity_scan,
    angular_error,
    default_grid,
    eig_sym,
    estimate_doa,
    noise_subspace,
    sample_covariance,
    spatial_spectrum,
)
from dirmusic.manifold import ArrayConfig, manifold_matrix, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN
from dirmusic.signal import SamplingSpec, add_awgn, pd_pulse, synthesize_clean

ARRAY6 = ArrayConfig.uniform(6)
SHORT_SPEC = SamplingSpec(rate_hz=10e9, n_samples=512)


def _clean_snapshots(theta, array=ARRAY6, spec=SHORT_SPEC):
    gains = steering_vector(DEFAULT_PATTERN, array, theta)
    return synthesize_clean(gains, pd_pulse(spec=spec))


class TestSampleCovariance:
    def test_zero_input(self):
        assert_allclose(sample_covariance(np.zeros((3, 8))), np.zeros((3, 3)))

    def test_constant_channel(self):
        c = 1.7
        r = sample_covariance(np.full((1, 50), c))
        assert_allclose(r, [[c * c]], rtol=1e-14)

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(0.1, 1.0, 4)
        s = rng.normal(size=64)
        r = sample_covariance(np.outer(g, s))
        want = (s @ s / s.size) * np.outer(g, g)
        assert_allclose(r, want, rtol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(1)
        r = sample_covariance(rng.normal(size=(6, 300)))
        assert_allclose(r, r.T, atol=0.0)
        eigvals = np.linalg.eigvalsh(r)
        assert eigvals.min() >= -1e-10 * eigvals.max()

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((3, 1)))


class TestEigSym:
    def test_identity(self):
        pair = eig_sym(np.eye(6))
        assert_allclose(pair.values, np.ones(6))
        assert_allclose(pair.vectors @ pair.vectors.T, np.eye(6), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        pair = eig_sym(np.diag([1.0, 3.0]))
        assert_allclose(pair.values, [3.0, 1.0])
        assert_allclose(np.abs(pair.vectors), np.eye(2)[:, ::-1], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        r = (a + a.T) / 2.0
        pair = eig_sym(r)
        recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        assert np.linalg.norm(recon - r) <= 1e-10 * np.linalg.norm(r)
        assert np.linalg.norm(pair.vectors.T @ pair.vectors - np.eye(6)) <= 1e-10
        assert np.all(np.diff(pair.values) <= 0.0)

    def test_eigen_equation_per_column(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        r = (a + a.T) / 2.0
        pair = eig_sym(r)
        for j in range(5):
            lhs = r @ pair.vectors[:, j]
            rhs = pair.values[j] * pair.vectors[:, j]
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(abs(pair.values[j]), 1.0)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        r = (a + a.T) / 2.0
        first = eig_sym(r)
        second = eig_sym(r.copy())
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)
        for j in range(4):
            col = first.vectors[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_sym(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eig_sym(np.ones(3))

    def test_stack_checks_symmetry_per_matrix(self):
        # the small matrix is asymmetric at its own scale, though not at
        # the scale of its large neighbour
        small = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
        with pytest.raises(ValueError):
            eig_sym(np.stack([1e9 * np.eye(2), small]))


class TestNoiseSubspace:
    def test_dimensions(self):
        pair = eig_sym(np.eye(6))
        assert noise_subspace(pair, 1).shape == (6, 5)
        assert noise_subspace(pair, 6).shape == (6, 0)

    def test_orthogonal_to_true_gain_vector_noiseless(self):
        for theta in (0.0, 45.0, 213.0):
            g = steering_vector(DEFAULT_PATTERN, ARRAY6, theta)
            pair = eig_sym(sample_covariance(_clean_snapshots(theta)))
            en = noise_subspace(pair, 1)
            assert np.linalg.norm(en.T @ g) <= 1e-8 * np.linalg.norm(g)

    def test_degenerate_isotropic_covariance_still_orthonormal(self):
        pair = eig_sym(2.5 * np.eye(5))
        en = noise_subspace(pair, 1)
        assert_allclose(en.T @ en, np.eye(4), atol=1e-10)

    def test_rejects_too_many_sources(self):
        pair = eig_sym(np.eye(4))
        with pytest.raises(ValueError):
            noise_subspace(pair, 5)
        with pytest.raises(ValueError):
            noise_subspace(pair, 0)


class TestSpatialSpectrum:
    GRID = default_grid()
    MANIFOLD = manifold_matrix(DEFAULT_PATTERN, ARRAY6, GRID)

    def test_positive_and_finite_on_degree_grid(self):
        pair = eig_sym(sample_covariance(_clean_snapshots(100.0)))
        spec = spatial_spectrum(noise_subspace(pair, 1), self.MANIFOLD, self.GRID)
        assert np.all(np.isfinite(spec.values))
        assert np.all(spec.values > 0.0)

    def test_noiseless_argmax_at_truth(self):
        theta = 73.0
        pair = eig_sym(sample_covariance(_clean_snapshots(theta)))
        spec = spatial_spectrum(noise_subspace(pair, 1), self.MANIFOLD, self.GRID)
        assert spec.grid_deg[np.argmax(spec.values)] == theta

    def test_empty_grid_rejected(self):
        pair = eig_sym(np.eye(6))
        with pytest.raises(ValueError):
            spatial_spectrum(noise_subspace(pair, 1), np.zeros((6, 0)), [])
        with pytest.raises(ValueError):
            spatial_spectrum(noise_subspace(pair, 1), self.MANIFOLD, self.GRID[:-1])
        stacked = eig_sym(np.stack([np.eye(6), 2.0 * np.eye(6)]))
        with pytest.raises(ValueError):
            spatial_spectrum(noise_subspace(stacked, 1), self.MANIFOLD, self.GRID[:-1])


# Stacks of symmetric PSD matrices; fewer snapshots than elements gives
# singular members with repeated zero eigenvalues.
PSD_STACK = dict(
    n=st.integers(1, 10),
    n_matrices=st.integers(1, 5),
    n_snapshots=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)


def _psd_stack(n, n_matrices, n_snapshots, seed):
    a = np.random.default_rng(seed).normal(size=(n_matrices, n, n_snapshots))
    covs = a @ np.swapaxes(a, -1, -2) / n_snapshots
    return (covs + np.swapaxes(covs, -1, -2)) / 2.0


class TestBatchedStages:
    """A stack through the stages equals each matrix through them alone."""

    @settings(max_examples=60, deadline=None)
    @given(**PSD_STACK)
    def test_eig_sym_stack_equals_per_matrix(self, n, n_matrices, n_snapshots, seed):
        covs = _psd_stack(n, n_matrices, n_snapshots, seed)
        stacked = eig_sym(covs)
        for j in range(n_matrices):
            single = eig_sym(covs[j])
            assert np.array_equal(stacked.values[j], single.values)
            assert np.array_equal(stacked.vectors[j], single.vectors)

    @settings(max_examples=60, deadline=None)
    @given(**PSD_STACK)
    def test_spectrum_stack_equals_per_matrix(self, n, n_matrices, n_snapshots, seed):
        covs = _psd_stack(n, n_matrices, n_snapshots, seed)
        grid = default_grid()
        manifold = manifold_matrix(DEFAULT_PATTERN, ArrayConfig.uniform(n), grid)
        stacked = spatial_spectrum(noise_subspace(eig_sym(covs)), manifold, grid)
        assert stacked.values.shape == (n_matrices, grid.size)
        for j in range(n_matrices):
            single = spatial_spectrum(noise_subspace(eig_sym(covs[j])), manifold, grid)
            assert np.array_equal(stacked.values[j], single.values)


class TestEstimateDoa:
    def test_noiseless_exact_recovery(self):
        est = estimate_doa(_clean_snapshots(45.0), DEFAULT_PATTERN, ARRAY6)
        assert est.angle_deg == 45.0

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(10)
        x = add_awgn(_clean_snapshots(200.0), 0.0, rng)
        base = estimate_doa(x, DEFAULT_PATTERN, ARRAY6).angle_deg
        for c in (1e-3, 7.0, 1e4):
            assert estimate_doa(c * x, DEFAULT_PATTERN, ARRAY6).angle_deg == base

    def test_channel_rotation_shifts_estimate(self):
        # moving every row down one position makes the data look like it
        # came from one array spacing (60 deg) earlier
        theta = 120.0
        x = _clean_snapshots(theta)
        est = estimate_doa(np.roll(x, 1, axis=0), DEFAULT_PATTERN, ARRAY6)
        assert est.angle_deg == (theta - 60.0) % 360.0

    def test_estimate_lies_on_grid_and_attaches_spectrum(self):
        grid = default_grid(0.5)
        rng = np.random.default_rng(2)
        x = add_awgn(_clean_snapshots(33.3), 10.0, rng)
        est = estimate_doa(x, DEFAULT_PATTERN, ARRAY6, grid)
        assert est.angle_deg in grid
        assert est.spectrum.values.size == grid.size
        assert est.peak_value == pytest.approx(est.spectrum.values.max())


# Noisy single-source data for every uniform N whose spacing 360/N is a
# whole number of 1-degree grid steps, N = 1 included.
NOISY_CASE = dict(
    n=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10]),
    theta=st.integers(0, 359),
    snr_db=st.integers(-5, 20),
    seed=st.integers(0, 2**32 - 1),
)


def _noisy(n, theta, snr_db, seed):
    clean = _clean_snapshots(float(theta), ArrayConfig.uniform(n))
    return add_awgn(clean, snr_db, np.random.default_rng(seed))


class TestEstimatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(**NOISY_CASE)
    def test_row_roll_moves_estimate_by_one_spacing(self, n, theta, snr_db, seed):
        array = ArrayConfig.uniform(n)
        x = _noisy(n, theta, snr_db, seed)
        base = estimate_doa(x, DEFAULT_PATTERN, array).angle_deg
        moved = estimate_doa(np.roll(x, 1, axis=0), DEFAULT_PATTERN, array).angle_deg
        assert moved == (base - 360.0 / n) % 360.0

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(1e-3, 1e3), **NOISY_CASE)
    def test_positive_scaling_keeps_estimate(self, n, theta, snr_db, seed, c):
        array = ArrayConfig.uniform(n)
        x = _noisy(n, theta, snr_db, seed)
        base = estimate_doa(x, DEFAULT_PATTERN, array).angle_deg
        assert estimate_doa(c * x, DEFAULT_PATTERN, array).angle_deg == base


class TestAngularError:
    @pytest.mark.parametrize(
        "est, true, expected",
        [(10.0, 10.0, 0.0), (1.0, 359.0, 2.0), (359.0, 1.0, -2.0), (190.0, 10.0, 180.0)],
    )
    def test_known_values(self, est, true, expected):
        assert angular_error(est, true) == pytest.approx(expected)

    @given(st.floats(-720.0, 720.0), st.floats(-720.0, 720.0))
    def test_range_and_congruence(self, est, true):
        err = angular_error(est, true)
        assert -180.0 < err <= 180.0
        assert (err - (est - true)) % 360.0 == pytest.approx(0.0, abs=1e-6) or (
            err - (est - true)
        ) % 360.0 == pytest.approx(360.0, abs=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            angular_error(float("inf"), 0.0)


class TestAmbiguityScan:
    def test_shape_and_finiteness(self):
        scan = ambiguity_scan(DEFAULT_PATTERN, ARRAY6)
        assert scan.shape == (360,)
        assert np.all(np.isfinite(scan))
        assert np.all(scan > 0.0)

    def test_no_degenerate_duplicate_directions_for_default_setup(self):
        # every off-peak residual stays bounded away from the exact-match
        # floor, i.e. no second direction mimics the true one
        scan = ambiguity_scan(DEFAULT_PATTERN, ARRAY6)
        assert scan.max() < 1e10
