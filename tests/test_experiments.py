"""Tests for the Monte Carlo harness (fast, reduced trial counts)."""

import dataclasses

import numpy as np
import pytest

from dirmusic import experiments
from dirmusic.experiments import (
    _SCAN_BLOCK,
    TrialBatch,
    TrialConfig,
    run_batch,
    run_element_sweep,
    run_manifold_error_sweep,
    run_snr_sweep,
    run_trial,
    summarize,
)
from dirmusic.estimator import sample_covariance
from dirmusic.manifold import perturb, steering_vector
from dirmusic.signal import SamplingSpec, add_awgn, pd_pulse, synthesize_clean

# Short records keep unit tests quick; the acceptance suite runs the
# full-length defaults.
FAST = TrialConfig(n_trials=48, sampling=SamplingSpec(rate_hz=10e9, n_samples=512))


FIELDS = [f.name for f in dataclasses.fields(TrialBatch)]


def _batch(errors, successes):
    err = np.asarray(errors, dtype=float)
    return TrialBatch(np.full(err.size, 10.0), 10.0 + err, err, np.asarray(successes, dtype=bool))


class TestRunTrial:
    def test_noiseless_on_grid_is_exact(self):
        cfg = dataclasses.replace(FAST, snr_db=300.0)
        report = run_trial(cfg, 45.0, np.random.default_rng(0))
        assert report.theta_hat_deg.tolist() == [45.0]
        assert report.error_deg.tolist() == [0.0]
        assert report.success.tolist() == [True]

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
            assert report.success.shape == (1,)
            assert np.array_equal(
                report.success, np.abs(report.error_deg) < cfg.success_threshold_deg
            )

    def test_single_element_estimate_is_uninformative(self):
        cfg = dataclasses.replace(FAST, n_elements=1, manifold_error=0.05)
        report = run_trial(cfg, 180.0, np.random.default_rng(1))
        assert report.theta_hat_deg.tolist() == [0.0]
        assert report.success.tolist() == [False]


class TestRunBatch:
    @pytest.mark.parametrize(
        "protocol",
        [
            {},
            {"integer_directions": True, "inclusive_success": True},
            # a batch that spans a spectrum-scan block boundary
            pytest.param({"n_elements": 10, "n_trials": _SCAN_BLOCK + 3}, id="across_scan_blocks"),
        ],
    )
    def test_trial_j_is_run_trial_on_child_j(self, protocol):
        # trial j's generator draws the direction first, then run_trial's draws
        cfg = dataclasses.replace(
            FAST, **{"n_trials": 6, "snr_db": -5.0, "manifold_error": 0.05, **protocol}
        )
        batch = run_batch(cfg)
        singles = []
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials):
            rng = np.random.default_rng(child)
            if cfg.integer_directions:
                theta = float(rng.integers(1, 361))
            else:
                theta = rng.uniform(1.0, 360.0)
            singles.append(run_trial(cfg, theta, rng))
        for name in FIELDS:
            joined = np.concatenate([getattr(single, name) for single in singles])
            assert np.array_equal(joined, getattr(batch, name)), name

    def test_reproducible_bitwise(self):
        cfg = dataclasses.replace(FAST, snr_db=0.0, n_trials=16)
        first, second = run_batch(cfg), run_batch(cfg)
        for name in FIELDS:
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        assert first == second

    def test_different_seeds_differ(self):
        cfg = dataclasses.replace(FAST, snr_db=0.0, n_trials=16)
        first = run_batch(cfg)
        second = run_batch(dataclasses.replace(cfg, seed=cfg.seed + 1))
        for name in ("theta_true_deg", "theta_hat_deg", "error_deg"):
            assert not np.array_equal(getattr(first, name), getattr(second, name)), name
        assert first != second

    def test_fields_are_one_array_entry_per_trial(self):
        batch = run_batch(dataclasses.replace(FAST, n_trials=5))
        for name in FIELDS:
            value = getattr(batch, name)
            assert value.shape == (5,), name
            assert value.dtype == (bool if name == "success" else np.float64), name

    def test_directions_stay_in_sampling_range(self):
        theta = run_batch(dataclasses.replace(FAST, n_trials=64)).theta_true_deg
        assert ((1.0 <= theta) & (theta <= 360.0)).all()

    def test_high_snr_batch_is_accurate(self):
        batch = run_batch(dataclasses.replace(FAST, snr_db=300.0, n_trials=64))
        assert batch.success.all()


class TestSummarize:
    def test_all_zero_errors(self):
        stats = summarize(_batch([0.0, 0.0, 0.0], [True, True, True]))
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.accuracy == 1.0

    def test_population_variance_convention(self):
        stats = summarize(_batch([-2.0, 2.0], [False, False]))
        assert stats.mean == 0.0
        assert stats.variance == pytest.approx(4.0)
        assert stats.std == pytest.approx(2.0)

    def test_min_max_and_count(self):
        stats = summarize(_batch([-3.0, 0.5, 1.0], [False, True, True]))
        assert (stats.min, stats.max, stats.n) == (-3.0, 1.0, 3)
        assert stats.accuracy == pytest.approx(2.0 / 3.0)

    def test_accuracy_follows_success_flags(self):
        # under the inclusive comparison |err| == threshold is a success;
        # the summary must count the flags, not re-apply a comparison
        cfg = dataclasses.replace(
            FAST, n_trials=64, snr_db=-10.0, integer_directions=True, inclusive_success=True
        )
        batch = run_batch(cfg)
        assert (np.abs(batch.error_deg) == cfg.success_threshold_deg).any()
        assert summarize(batch).accuracy == np.mean(batch.success)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(_batch([], []))


class TestSweeps:
    def test_snr_sweep_shape_and_reproducibility(self):
        cfg = dataclasses.replace(FAST, n_trials=24)
        report = run_snr_sweep(cfg, [10.0, 0.0])
        assert [row.setting for row in report.rows] == [10.0, 0.0]
        assert all(0.0 <= row.accuracy <= 1.0 for row in report.rows)
        assert all(row.n_trials == 24 for row in report.rows)
        assert report == run_snr_sweep(cfg, [10.0, 0.0])

    def test_error_sweep_uses_perturbation(self):
        cfg = dataclasses.replace(FAST, n_trials=24)
        report = run_manifold_error_sweep(cfg, [0.0, 0.1])
        # common random numbers: the unperturbed setting cannot be worse
        assert report.rows[0].accuracy >= report.rows[1].accuracy

    def test_element_sweep_rebuilds_uniform_layouts(self):
        cfg = dataclasses.replace(FAST, n_trials=24, manifold_error=0.05)
        report = run_element_sweep(cfg, [1, 6])
        assert report.rows[0].accuracy <= 0.2  # single element fails by design
        assert report.rows[1].accuracy >= report.rows[0].accuracy

    def test_rows_summarize_their_batches(self):
        report = run_manifold_error_sweep(dataclasses.replace(FAST, n_trials=24), [0.0, 0.1])
        for row, batch in zip(report.rows, report.batches):
            stats = summarize(batch)
            assert (row.accuracy, row.mean_err, row.std_err) == (
                stats.accuracy, stats.mean, stats.std
            )

    def test_empty_setting_lists_rejected(self):
        with pytest.raises(ValueError):
            run_snr_sweep(FAST, [])
        with pytest.raises(ValueError):
            run_manifold_error_sweep(FAST, [])
        with pytest.raises(ValueError):
            run_element_sweep(FAST, [])


# The acceptance settings, with full-length records and few trials.
ACCEPTANCE = TrialConfig(n_trials=4)
SUBSET4 = (0.0, 60.0, 120.0, 180.0)


def _per_setting(cfg, field, values):
    return [run_batch(dataclasses.replace(cfg, **{field: v})) for v in values]


class TestSweepsShareDraws:
    """A sweep draws each trial's noise once per group of settings, and
    every setting's batch equals run_batch on that setting alone."""

    @pytest.mark.parametrize(
        "runner, cfg, field, values",
        [
            (run_snr_sweep, ACCEPTANCE, "snr_db", [10, 5, 0, -5, -10]),
            (
                run_snr_sweep,
                dataclasses.replace(ACCEPTANCE, n_elements=4, offsets_deg=SUBSET4),
                "snr_db",
                [10, 5, 0, -5, -10],
            ),
            (run_manifold_error_sweep, ACCEPTANCE, "manifold_error", [0.025, 0.05, 0.075, 0.1]),
            (
                run_element_sweep,
                dataclasses.replace(ACCEPTANCE, manifold_error=0.05),
                "n_elements",
                [1, 2, 4, 6, 8, 10],
            ),
        ],
        ids=["snr_6_elements", "snr_4_element_subset", "manifold_error", "element_count"],
    )
    def test_acceptance_settings(self, runner, cfg, field, values):
        assert runner(cfg, values).batches == tuple(_per_setting(cfg, field, values))

    @pytest.mark.parametrize(
        "runner, field, values, base",
        [
            (run_manifold_error_sweep, "manifold_error", [0.05, 0.0, 0.1, 0.0], {}),
            (run_snr_sweep, "snr_db", [10.0, -10.0, 0.0], {"manifold_error": 0.05}),
            (run_snr_sweep, "snr_db", [0.0, -10.0, 0.0], {}),
            (run_manifold_error_sweep, "manifold_error", [0.05, 0.05], {}),
            (
                run_snr_sweep,
                "snr_db",
                [-10.0, 0.0],
                {"integer_directions": True, "inclusive_success": True},
            ),
            (
                run_manifold_error_sweep,
                "manifold_error",
                [0.1, 0.0, 0.05],
                {"integer_directions": True},
            ),
            (run_snr_sweep, "snr_db", [300.0, 10.0], {}),
            (run_snr_sweep, "snr_db", [10.0, 300.0], {}),
        ],
        ids=["error_list_with_zero", "snr_at_nonzero_error", "repeated_snr",
             "repeated_error", "integer_directions_snr", "integer_directions_error",
             "wide_span_noiseless_first", "wide_span_noiseless_last"],
    )
    def test_mixed_and_repeated_settings(self, runner, field, values, base):
        cfg = dataclasses.replace(FAST, n_trials=24, **base)
        report = runner(cfg, values)
        assert report.batches == tuple(_per_setting(cfg, field, values))
        assert [row.setting for row in report.rows] == [float(v) for v in values]

    @pytest.mark.parametrize("name", ["synthesize_clean", "add_awgn", "eig_sym"])
    def test_snr_sweep_runs_once_per_trial(self, monkeypatch, name):
        original, calls = getattr(experiments, name), []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(experiments, name, counting)
        run_snr_sweep(dataclasses.replace(FAST, n_trials=5), [10.0, 5.0, 0.0, -5.0, -10.0])
        assert len(calls) == 5


def _own_record_covariance(cfg, child):
    """The sample covariance of a setting's own noisy record, drawn from
    trial ``child``'s generator as run_batch draws it."""
    rng = np.random.default_rng(child)
    gains = steering_vector(cfg.pattern, cfg.array(), rng.uniform(1.0, 360.0))
    if cfg.manifold_error > 0.0:
        gains = perturb(gains, cfg.manifold_error, rng)
    clean = synthesize_clean(gains, pd_pulse(cfg.pulse, cfg.sampling))
    return sample_covariance(add_awgn(clean, cfg.snr_db, rng))


class TestCovarianceExpansion:
    """A group builds only the noisy record of each trial's noisiest
    setting, whose covariance is exactly that of run_batch; every other
    setting's covariance equals the one of its own record to rounding."""

    @pytest.mark.parametrize(
        "cfg, field, values",
        [
            (ACCEPTANCE, "snr_db", [10.0, 5.0, 0.0, -5.0, -10.0]),
            (ACCEPTANCE, "manifold_error", [0.025, 0.05, 0.075, 0.1]),
            (
                dataclasses.replace(ACCEPTANCE, n_elements=4, offsets_deg=SUBSET4),
                "snr_db",
                [10.0, 5.0, 0.0, -5.0, -10.0],
            ),
            (dataclasses.replace(ACCEPTANCE, n_elements=1), "snr_db", [10.0, -10.0]),
            (dataclasses.replace(ACCEPTANCE, manifold_error=0.05), "snr_db", [-10.0, 10.0]),
            (ACCEPTANCE, "snr_db", [300.0, 10.0]),
        ],
        ids=["snr_6_elements", "manifold_error", "snr_4_element_subset", "one_element",
             "snr_at_nonzero_error", "wide_snr_span"],
    )
    def test_each_setting_matches_its_own_record(self, monkeypatch, cfg, field, values):
        stacks, original = [], experiments.eig_sym

        def capturing(covariances):
            stacks.append(np.array(covariances))
            return original(covariances)

        monkeypatch.setattr(experiments, "eig_sym", capturing)
        settings = [dataclasses.replace(cfg, **{field: v}) for v in values]
        experiments._run_group(settings, pd_pulse(cfg.pulse, cfg.sampling))
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials)
        assert len(stacks) == len(children)
        for stack, child in zip(stacks, children):
            assert stack.shape == (len(settings), cfg.n_elements, cfg.n_elements)
            wants = [_own_record_covariance(setting, child) for setting in settings]
            assert any(np.array_equal(got, want) for got, want in zip(stack, wants))
            for got, want in zip(stack, wants):
                # rounding is relative to the matrix's scale: an entry near
                # zero keeps the absolute error of the large ones
                scale = np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


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
            ("seed", -1),
            ("n_elements", 4.0),
            ("n_trials", 2.7),
            ("n_trials", True),
            ("seed", 1.9),
            ("seed", True),
            ("seed", "7"),
            ("snr_db", True),
            ("snr_db", "10"),
            ("manifold_error", False),
            ("manifold_error", None),
            ("success_threshold_deg", "3"),
            ("grid_step_deg", True),
            ("grid_step_deg", "1"),
            ("grid_step_deg", 0.0),
            ("grid_step_deg", float("nan")),
        ],
    )
    def test_invalid_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrialConfig(**{field: value})

    def test_real_numbers_are_stored_as_float(self):
        cfg = TrialConfig(
            snr_db=10, manifold_error=np.int64(0), success_threshold_deg=2, grid_step_deg=1
        )
        values = (cfg.snr_db, cfg.manifold_error, cfg.success_threshold_deg, cfg.grid_step_deg)
        assert values == (10.0, 0.0, 2.0, 1.0)
        assert all(type(value) is float for value in values)

    def test_numpy_integers_accepted(self):
        cfg = TrialConfig(n_elements=np.int64(4), n_trials=np.int32(3), seed=np.uint64(5))
        assert cfg.array().n_elements == 4

    def test_explicit_offsets_override_uniform(self):
        cfg = TrialConfig(n_elements=4, offsets_deg=(0.0, 60.0, 120.0, 180.0))
        assert cfg.array().offsets_deg == (0.0, 60.0, 120.0, 180.0)

    def test_offsets_must_match_element_count(self):
        # rejected at construction, not when the array is first built
        with pytest.raises(ValueError, match="offsets_deg"):
            TrialConfig(n_elements=6, offsets_deg=(0.0, 60.0))
