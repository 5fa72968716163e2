"""Tests for the Monte Carlo harness (fast, reduced trial counts)."""

import dataclasses

import numpy as np
import pytest

from dirmusic.experiments import (
    TrialConfig,
    TrialReport,
    run_batch,
    run_element_sweep,
    run_manifold_error_sweep,
    run_snr_sweep,
    run_trial,
    summarize,
)
from dirmusic.signal import SamplingSpec

# Short records keep unit tests quick; the acceptance suite runs the
# full-length defaults.
FAST = TrialConfig(n_trials=48, sampling=SamplingSpec(rate_hz=10e9, n_samples=512))


def _reports(errors, successes):
    return [
        TrialReport(theta_true_deg=10.0, theta_hat_deg=10.0 + e, error_deg=e, success=ok)
        for e, ok in zip(errors, successes)
    ]


class TestRunTrial:
    def test_noiseless_on_grid_is_exact(self):
        cfg = dataclasses.replace(FAST, snr_db=300.0)
        report = run_trial(cfg, 45.0, np.random.default_rng(0))
        assert report.theta_hat_deg == 45.0
        assert report.error_deg == 0.0
        assert report.success

    def test_deterministic_given_seed(self):
        cfg = dataclasses.replace(FAST, snr_db=0.0, manifold_error=0.05)
        first = run_trial(cfg, 123.4, np.random.default_rng(99))
        second = run_trial(cfg, 123.4, np.random.default_rng(99))
        assert first == second

    def test_success_flag_matches_threshold(self):
        cfg = dataclasses.replace(FAST, snr_db=-10.0)
        rng = np.random.default_rng(17)
        for theta in (10.0, 200.0, 355.5):
            report = run_trial(cfg, theta, rng)
            assert report.success == (abs(report.error_deg) < cfg.success_threshold_deg)

    def test_single_element_estimate_is_uninformative(self):
        cfg = dataclasses.replace(FAST, n_elements=1, manifold_error=0.05)
        report = run_trial(cfg, 180.0, np.random.default_rng(1))
        assert report.theta_hat_deg == 0.0
        assert not report.success


class TestRunBatch:
    @pytest.mark.parametrize("protocol", [{}, {"integer_directions": True, "inclusive_success": True}])
    def test_trial_j_is_run_trial_on_child_j(self, protocol):
        # trial j's generator draws the direction first, then run_trial's draws
        cfg = dataclasses.replace(FAST, n_trials=6, snr_db=-5.0, manifold_error=0.05, **protocol)
        batch = run_batch(cfg)
        for j, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials)):
            rng = np.random.default_rng(child)
            if cfg.integer_directions:
                theta = float(rng.integers(1, 361))
            else:
                theta = rng.uniform(1.0, 360.0)
            assert run_trial(cfg, theta, rng) == batch[j]

    def test_reproducible_bitwise(self):
        cfg = dataclasses.replace(FAST, snr_db=0.0, n_trials=16)
        assert run_batch(cfg) == run_batch(cfg)

    def test_different_seeds_differ(self):
        cfg = dataclasses.replace(FAST, snr_db=0.0, n_trials=16)
        other = dataclasses.replace(cfg, seed=cfg.seed + 1)
        assert run_batch(cfg) != run_batch(other)

    def test_directions_stay_in_sampling_range(self):
        for report in run_batch(dataclasses.replace(FAST, n_trials=64)):
            assert 1.0 <= report.theta_true_deg <= 360.0

    def test_high_snr_batch_is_accurate(self):
        reports = run_batch(dataclasses.replace(FAST, snr_db=300.0, n_trials=64))
        assert all(r.success for r in reports)


class TestSummarize:
    def test_all_zero_errors(self):
        stats = summarize(_reports([0.0, 0.0, 0.0], [True, True, True]))
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.accuracy == 1.0

    def test_population_variance_convention(self):
        stats = summarize(_reports([-2.0, 2.0], [False, False]))
        assert stats.mean == 0.0
        assert stats.variance == pytest.approx(4.0)
        assert stats.std == pytest.approx(2.0)

    def test_min_max_and_count(self):
        stats = summarize(_reports([-3.0, 0.5, 1.0], [False, True, True]))
        assert (stats.min, stats.max, stats.n) == (-3.0, 1.0, 3)
        assert stats.accuracy == pytest.approx(2.0 / 3.0)

    def test_accuracy_follows_success_flags(self):
        # under the inclusive comparison |err| == threshold is a success;
        # the summary must count the flags, not re-apply a comparison
        cfg = dataclasses.replace(
            FAST, n_trials=64, snr_db=-10.0, integer_directions=True, inclusive_success=True
        )
        trials = run_batch(cfg)
        assert any(abs(t.error_deg) == cfg.success_threshold_deg for t in trials)
        assert summarize(trials).accuracy == np.mean([t.success for t in trials])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSweeps:
    def test_snr_sweep_shape_and_reproducibility(self):
        cfg = dataclasses.replace(FAST, n_trials=24)
        report = run_snr_sweep(cfg, [10.0, 0.0])
        assert report.setting_name == "snr_db"
        assert [row.setting for row in report.rows] == [10.0, 0.0]
        assert all(0.0 <= row.accuracy <= 1.0 for row in report.rows)
        assert all(row.n_trials == 24 for row in report.rows)
        assert report == run_snr_sweep(cfg, [10.0, 0.0])

    def test_error_sweep_uses_perturbation(self):
        cfg = dataclasses.replace(FAST, n_trials=24)
        report = run_manifold_error_sweep(cfg, [0.0, 0.1])
        assert report.setting_name == "manifold_error"
        # common random numbers: the unperturbed setting cannot be worse
        assert report.rows[0].accuracy >= report.rows[1].accuracy

    def test_element_sweep_rebuilds_uniform_layouts(self):
        cfg = dataclasses.replace(FAST, n_trials=24, manifold_error=0.05)
        report = run_element_sweep(cfg, [1, 6])
        assert report.setting_name == "n_elements"
        assert report.rows[0].accuracy <= 0.2  # single element fails by design
        assert report.rows[1].accuracy >= report.rows[0].accuracy

    def test_empty_setting_lists_rejected(self):
        with pytest.raises(ValueError):
            run_snr_sweep(FAST, [])
        with pytest.raises(ValueError):
            run_manifold_error_sweep(FAST, [])
        with pytest.raises(ValueError):
            run_element_sweep(FAST, [])


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(success_threshold_deg=0.0)
        with pytest.raises(ValueError):
            TrialConfig(manifold_error=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr_db", float("nan")),
            ("snr_db", float("-inf")),
            ("manifold_error", float("nan")),
            ("success_threshold_deg", float("nan")),
            ("n_elements", 0),
        ],
    )
    def test_invalid_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrialConfig(**{field: value})

    def test_explicit_offsets_override_uniform(self):
        cfg = TrialConfig(n_elements=4, offsets_deg=(0.0, 60.0, 120.0, 180.0))
        assert cfg.array().offsets_deg == (0.0, 60.0, 120.0, 180.0)

    def test_offsets_must_match_element_count(self):
        # rejected at construction, not when the array is first built
        with pytest.raises(ValueError, match="offsets_deg"):
            TrialConfig(n_elements=6, offsets_deg=(0.0, 60.0))
