"""Tests for the gain manifold and its perturbation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirmusic.manifold import ArrayConfig, manifold_matrix, perturb, reject_blind, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN, GaussianMixturePattern, eval_pattern


class TestArrayConfig:
    def test_uniform_offsets_exact(self):
        arr = ArrayConfig.uniform(6)
        assert arr.offsets_deg == (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
        assert arr.n_elements == 6

    def test_explicit_subset_layout(self):
        arr = ArrayConfig((0.0, 60.0, 120.0, 180.0))
        assert arr.n_elements == 4

    @pytest.mark.parametrize(
        "offsets", [(), (10.0, 5.0), (0.0, 360.0), (-1.0, 10.0), (0.0, 0.0)]
    )
    def test_invalid_offsets(self, offsets):
        with pytest.raises(ValueError):
            ArrayConfig(offsets)

    @pytest.mark.parametrize(
        "offsets, message",
        [
            ((True, 60.0), "offsets_deg must be a number"),
            ((0.0, "60"), "offsets_deg must be a number"),
            (5.0, "offsets_deg must be a list of numbers"),
            ("0,60", "offsets_deg must be a list of numbers"),
        ],
        ids=["bool_entry", "string_entry", "scalar", "string"],
    )
    def test_offsets_must_be_a_list_of_numbers(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            ArrayConfig(offsets)

    def test_integer_offsets_are_stored_as_float(self):
        offsets = ArrayConfig([0, np.int64(60)]).offsets_deg
        assert offsets == (0.0, 60.0)
        assert all(type(o) is float for o in offsets)

    def test_uniform_rejects_zero_elements(self):
        with pytest.raises(ValueError):
            ArrayConfig.uniform(0)


class TestSteeringVector:
    def test_single_element_reduces_to_pattern(self):
        arr = ArrayConfig.uniform(1)
        for theta in (0.0, 123.4, 359.0):
            assert_allclose(
                steering_vector(DEFAULT_PATTERN, arr, theta),
                [eval_pattern(DEFAULT_PATTERN, theta)],
            )

    def test_entries_match_pattern_at_offset_angles(self):
        arr = ArrayConfig.uniform(6)
        got = steering_vector(DEFAULT_PATTERN, arr, 0.0)
        want = [eval_pattern(DEFAULT_PATTERN, 60.0 * k) for k in range(6)]
        assert_allclose(got, want, rtol=1e-14)

    def test_one_spacing_rotation_is_cyclic_shift(self):
        arr = ArrayConfig.uniform(6)
        for theta in (0.0, 17.3, 301.0):
            base = steering_vector(DEFAULT_PATTERN, arr, theta)
            shifted = steering_vector(DEFAULT_PATTERN, arr, theta + 60.0)
            assert_allclose(shifted, np.roll(base, -1), rtol=1e-12)

    def test_full_turn_invariance(self):
        arr = ArrayConfig.uniform(5)
        assert_allclose(
            steering_vector(DEFAULT_PATTERN, arr, 42.0),
            steering_vector(DEFAULT_PATTERN, arr, 402.0),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_array_of_directions_equals_per_direction_calls(self, n):
        arr = ArrayConfig.uniform(n)
        thetas = np.random.default_rng(8).uniform(1.0, 360.0, size=(3, 7))
        got = steering_vector(DEFAULT_PATTERN, arr, thetas)
        assert got.shape == (3, 7, n)
        for idx in np.ndindex(thetas.shape):
            want = steering_vector(DEFAULT_PATTERN, arr, float(thetas[idx]))
            assert got[idx].tobytes() == want.tobytes()


class TestManifoldMatrix:
    def test_single_angle_column(self):
        arr = ArrayConfig.uniform(4)
        m = manifold_matrix(DEFAULT_PATTERN, arr, [77.0])
        assert m.shape == (4, 1)
        assert_allclose(m[:, 0], steering_vector(DEFAULT_PATTERN, arr, 77.0))

    def test_columns_equal_steering_vectors_on_degree_grid(self):
        arr = ArrayConfig.uniform(6)
        grid = np.arange(0.0, 360.0, 1.0)
        m = manifold_matrix(DEFAULT_PATTERN, arr, grid)
        assert m.shape == (6, 360)
        for j in (0, 59, 180, 359):
            assert_allclose(m[:, j], steering_vector(DEFAULT_PATTERN, arr, grid[j]))

    def test_no_all_zero_column_on_degree_grid(self):
        m = manifold_matrix(DEFAULT_PATTERN, ArrayConfig.uniform(6), np.arange(360.0))
        assert np.all(np.linalg.norm(m, axis=0) > 0.0)

    def test_wrap_invariance_of_columns(self):
        arr = ArrayConfig.uniform(6)
        assert_allclose(
            manifold_matrix(DEFAULT_PATTERN, arr, [10.0]),
            manifold_matrix(DEFAULT_PATTERN, arr, [370.0]),
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            manifold_matrix(DEFAULT_PATTERN, ArrayConfig.uniform(6), [])


class TestRejectBlind:
    """A direction where every element has zero gain is refused, naming
    the blind sectors of a 0.01 degree sweep."""

    def test_lit_directions_pass(self):
        arr, grid = ArrayConfig.uniform(6), np.arange(360.0)
        reject_blind(DEFAULT_PATTERN, arr, grid, manifold_matrix(DEFAULT_PATTERN, arr, grid).T)

    def test_names_every_sector(self):
        pattern, arr = GaussianMixturePattern([(1.0, 100.0, 1.0)]), ArrayConfig.uniform(6)
        gains = steering_vector(pattern, arr, [50.0, 10.0])
        sectors = ", ".join(f"{a + 7.3:.2f}-{a + 12.7:.2f}" for a in range(0, 360, 60))
        with pytest.raises(ValueError, match=f"^pattern gives every element zero gain at {sectors} deg,"):
            reject_blind(pattern, arr, [50.0, 10.0], gains)

    def test_sector_through_zero_is_one_sector(self):
        pattern, arr = GaussianMixturePattern([(1.0, 100.0, 1.0)]), ArrayConfig.uniform(2)
        with pytest.raises(ValueError, match="zero gain at 127.30-252.70, 307.30-72.70 deg,"):
            reject_blind(pattern, arr, [0.0], steering_vector(pattern, arr, [0.0]))

    def test_sector_finer_than_the_sweep_names_the_direction(self):
        # zero only from about 359.995 deg on, between the sweep's last sample and 360
        pattern = GaussianMixturePattern([(1.0, 100.0, 259.995 / np.sqrt(745.1332))])
        arr = ArrayConfig.uniform(1)
        with pytest.raises(ValueError, match="zero gain at 359.998 deg,"):
            reject_blind(pattern, arr, [1.0, 359.998], steering_vector(pattern, arr, [1.0, 359.998]))


class TestPerturb:
    def test_zero_half_width_is_identity(self):
        rng = np.random.default_rng(0)
        g = np.array([0.1, 0.5, 0.9])
        assert np.array_equal(perturb(g, 0.0, rng), g)

    def test_draws_stay_within_support(self):
        rng = np.random.default_rng(11)
        g = steering_vector(DEFAULT_PATTERN, ArrayConfig.uniform(6), 45.0)
        for _ in range(200):
            out = perturb(g, 0.1, rng)
            assert np.all(np.abs(out - g) <= 0.1)

    def test_moments_match_uniform_law(self):
        # mean 0, variance half_width^2 / 3
        rng = np.random.default_rng(99)
        half = 0.05
        draws = perturb(np.zeros(100_000), half, rng)
        assert abs(draws.mean()) <= 1e-3
        assert draws.var() == pytest.approx(half**2 / 3.0, rel=0.05)

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.ones(3), -0.1, np.random.default_rng(0))

    def test_entries_may_go_negative(self):
        rng = np.random.default_rng(2)
        out = perturb(np.full(1000, 0.01), 0.1, rng)
        assert np.any(out < 0.0)
