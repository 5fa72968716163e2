"""Acceptance suite: full-scale studies checked at reference tolerances.

Every Monte Carlo criterion runs 3600 trials per setting with the
default master seed, exactly like the published studies it mirrors.
Expect a few minutes of runtime. Each test prints one PASS/FAIL line
for its criterion (visible with ``pytest -s``), with the measured
numbers alongside the required bands.

Known state: under the library's sampling protocol (continuous
directions, strict success comparison) two sub-checks sit above a
protocol-independent geometric ceiling and fail; the analysis and the
alternative counting protocol that matches those published numbers are
covered in tests/test_published_protocol.py and the README.
"""

import dataclasses

import numpy as np
import pytest

from dirmusic.estimator import (
    default_grid,
    eig_sym,
    estimate_doa,
    noise_subspace,
    sample_covariance,
)
from dirmusic.manifold import ArrayConfig, steering_vector
from dirmusic.pattern import (
    DEFAULT_PATTERN,
    eval_pattern,
    fit_pattern,
    gaussian_sum,
    gaussian_sum_jacobian,
)
from dirmusic.pipeline import FilterSpec, Recording, normalize_bipolar, process_recording
from dirmusic.signal import PulseModel, SamplingSpec, add_awgn, pd_pulse, synthesize_clean
from dirmusic.experiments import (
    TrialConfig,
    run_element_sweep,
    run_manifold_error_sweep,
    run_snr_sweep,
    summarize,
)

BASE = TrialConfig()  # 6 elements, 3600 trials, 1 deg grid, 2 deg threshold
SUBSET4 = (0.0, 60.0, 120.0, 180.0)
FAST_SPEC = SamplingSpec(rate_hz=10e9, n_samples=512)  # noise-free checks
SNRS = (10, 5, 0, -5, -10)  # dB, criteria 1, 2 and 5


def _errors(batch):
    return batch.error_deg


def _scatter(batch, low=-np.inf, high=np.inf):
    """Detail for an accuracy band check: the binomial standard error
    sqrt(p (1 - p) / n) and the signed distance to the nearer band edge
    in standard errors, positive inside the band."""
    p, n = summarize(batch).accuracy, batch.success.size
    se = float(np.sqrt(p * (1.0 - p) / n))
    margin = min(p - low, high - p)
    distance = margin / se if se > 0.0 else float(np.copysign(np.inf, margin))
    return f"; SE {se:.4f}, {distance:+.1f} SE from band edge"


def _criterion(name, checks):
    """Print one PASS/FAIL line plus details, then assert."""
    ok = all(passed for _, passed, _ in checks)
    print(f"\n{'PASS' if ok else 'FAIL'} {name}")
    for label, passed, detail in checks:
        print(f"    [{'ok' if passed else 'FAILED'}] {label}: {detail}")
    assert ok, "; ".join(f"{label}: {detail}" for label, passed, detail in checks if not passed)


@pytest.fixture(scope="session")
def snr_batches_6el():
    return dict(zip(SNRS, run_snr_sweep(BASE, SNRS).batches))


@pytest.fixture(scope="session")
def eps_batches_6el():
    levels = (0.025, 0.05, 0.075, 0.1)
    return dict(zip(levels, run_manifold_error_sweep(BASE, levels).batches))


@pytest.fixture(scope="session")
def element_batches(eps_batches_6el):
    counts = (1, 2, 4, 8, 10)
    report = run_element_sweep(dataclasses.replace(BASE, manifold_error=0.05), counts)
    batches = dict(zip(counts, report.batches))
    # 6 elements at eps = 0.05 is also a setting of criterion 3; it runs once.
    batches[6] = eps_batches_6el[0.05]
    return batches


@pytest.fixture(scope="session")
def snr_batches_4el():
    cfg = dataclasses.replace(BASE, n_elements=4, offsets_deg=SUBSET4)
    return dict(zip(SNRS, run_snr_sweep(cfg, SNRS).batches))


def test_criterion_1_snr_accuracy_6_elements(snr_batches_6el):
    batches = snr_batches_6el
    acc = {snr: summarize(batch).accuracy for snr, batch in batches.items()}
    checks = [
        (
            f"accuracy at {snr} dB",
            acc[snr] >= 0.98,
            f"{acc[snr]:.4f} (need >= 0.98)" + _scatter(batches[snr], low=0.98),
        )
        for snr in (10, 5, 0)
    ]
    checks.append(
        (
            "accuracy at -5 dB",
            0.9717 <= acc[-5],
            f"{acc[-5]:.4f} (need 0.9917 +- 0.02)" + _scatter(batches[-5], low=0.9717),
        )
    )
    checks.append(
        (
            "accuracy at -10 dB",
            0.6778 <= acc[-10] <= 0.7778,
            f"{acc[-10]:.4f} (need 0.7278 +- 0.05)" + _scatter(batches[-10], 0.6778, 0.7778),
        )
    )
    _criterion("criterion 1: six-element accuracy versus SNR", checks)


def test_criterion_2_low_snr_error_statistics(snr_batches_6el):
    errors = _errors(snr_batches_6el[-10])
    mean, var = errors.mean(), errors.var()
    checks = [
        ("error mean at -10 dB", abs(mean - 0.0583) <= 0.5, f"{mean:+.4f} (need 0.0583 +- 0.5)"),
        ("error variance at -10 dB", abs(var - 2.2291) <= 1.5, f"{var:.4f} (need 2.2291 +- 1.5)"),
    ]
    _criterion("criterion 2: error statistics at -10 dB", checks)


def test_criterion_3_manifold_error_sweep(eps_batches_6el):
    levels = (0.025, 0.05, 0.075, 0.1)
    acc = {e: summarize(eps_batches_6el[e]).accuracy for e in levels}
    err = {e: _errors(eps_batches_6el[e]) for e in levels}
    stds = {e: err[e].std() for e in levels}
    checks = [
        (
            "accuracy at eps=0.025",
            acc[0.025] >= 0.94,
            f"{acc[0.025]:.4f} (need >= 0.94)" + _scatter(eps_batches_6el[0.025], low=0.94),
        ),
        (
            "accuracy at eps=0.1",
            0.33 <= acc[0.1] <= 0.53,
            f"{acc[0.1]:.4f} (need within [0.33, 0.53])"
            + _scatter(eps_batches_6el[0.1], 0.33, 0.53),
        ),
        (
            "accuracy strictly decreasing in eps",
            all(acc[a] > acc[b] for a, b in zip(levels, levels[1:])),
            " > ".join(f"{acc[e]:.4f}" for e in levels),
        ),
        (
            "error std at eps=0.025",
            0.13 <= stds[0.025] <= 2.13,
            f"{stds[0.025]:.4f} (need 1.13 +- 1)",
        ),
        (
            "error std at eps=0.1",
            3.29 <= stds[0.1] <= 5.29,
            f"{stds[0.1]:.4f} (need 4.29 +- 1)",
        ),
        (
            "error std increasing in eps",
            all(stds[a] < stds[b] for a, b in zip(levels, levels[1:])),
            " < ".join(f"{stds[e]:.4f}" for e in levels),
        ),
        (
            "error mean near zero at every eps",
            all(abs(err[e].mean()) <= 0.5 for e in levels),
            ", ".join(f"{err[e].mean():+.4f}" for e in levels),
        ),
    ]
    _criterion("criterion 3: accuracy versus manifold amplitude error", checks)


def test_criterion_4_element_count_sweep(element_batches):
    counts = (1, 2, 4, 6, 8, 10)
    acc = {n: summarize(element_batches[n]).accuracy for n in counts}
    checks = [
        (
            "accuracy with 1 element",
            acc[1] <= 0.05,
            f"{acc[1]:.4f} (need <= 0.05)" + _scatter(element_batches[1], high=0.05),
        ),
        (
            "accuracy with 10 elements",
            0.8106 <= acc[10] <= 0.9106,
            f"{acc[10]:.4f} (need 0.8606 +- 0.05)"
            + _scatter(element_batches[10], 0.8106, 0.9106),
        ),
        (
            "accuracy non-decreasing in element count",
            all(acc[a] <= acc[b] for a, b in zip(counts, counts[1:])),
            " <= ".join(f"{acc[n]:.4f}" for n in counts),
        ),
    ]
    _criterion("criterion 4: accuracy versus element count", checks)


def test_criterion_5_snr_accuracy_4_element_subset(snr_batches_4el):
    batches = snr_batches_4el
    acc = {snr: summarize(batch).accuracy for snr, batch in batches.items()}
    checks = [
        (
            f"accuracy at {snr} dB",
            acc[snr] >= 0.98,
            f"{acc[snr]:.4f} (need >= 0.98)" + _scatter(batches[snr], low=0.98),
        )
        for snr in (10, 5)
    ]
    checks.append(
        (
            "accuracy at 0 dB",
            0.9617 <= acc[0],
            f"{acc[0]:.4f} (need 0.9817 +- 0.02)" + _scatter(batches[0], low=0.9617),
        )
    )
    checks.append(
        (
            "accuracy at -5 dB",
            0.8062 <= acc[-5] <= 0.9062,
            f"{acc[-5]:.4f} (need 0.8562 +- 0.05)" + _scatter(batches[-5], 0.8062, 0.9062),
        )
    )
    checks.append(
        (
            "accuracy at -10 dB",
            0.4267 <= acc[-10] <= 0.5267,
            f"{acc[-10]:.4f} (need 0.4767 +- 0.05)" + _scatter(batches[-10], 0.4267, 0.5267),
        )
    )
    _criterion("criterion 5: four-element (60 deg subset) accuracy versus SNR", checks)


def test_criterion_6_noise_free_exactness():
    array = ArrayConfig.uniform(6)
    grid = default_grid()
    pulse = pd_pulse(spec=FAST_SPEC)
    worst_residual = 0.0
    wrong = []
    for theta in grid:
        gains = steering_vector(DEFAULT_PATTERN, array, theta)
        snapshots = synthesize_clean(gains, pulse)
        estimate = estimate_doa(snapshots, DEFAULT_PATTERN, array, grid)
        if estimate.angle_deg != theta:
            wrong.append((theta, estimate.angle_deg))
        en = noise_subspace(eig_sym(sample_covariance(snapshots)))
        residual = np.linalg.norm(en.T @ gains) / np.linalg.norm(gains)
        worst_residual = max(worst_residual, float(residual))
    checks = [
        ("exact recovery at all 360 grid angles", not wrong, f"misses: {wrong[:5]}"),
        (
            "noise-subspace residual bound",
            worst_residual <= 1e-8,
            f"worst {worst_residual:.3e} (need <= 1e-8)",
        ),
    ]
    _criterion("criterion 6: noise-free exactness on the degree grid", checks)


def test_criterion_7_invariance_suite():
    array = ArrayConfig.uniform(6)
    pulse = pd_pulse(spec=FAST_SPEC)
    rng = np.random.default_rng(2718)

    scale_ok = True
    for theta in (12.0, 123.7, 290.0):
        x = add_awgn(
            synthesize_clean(steering_vector(DEFAULT_PATTERN, array, theta), pulse), 0.0, rng
        )
        base = estimate_doa(x, DEFAULT_PATTERN, array).angle_deg
        scale_ok &= all(
            estimate_doa(c * x, DEFAULT_PATTERN, array).angle_deg == base
            for c in (1e-6, 0.5, 3.0, 1e6)
        )

    shift_ok = True
    for theta in (0.0, 45.0, 222.0):
        x = add_awgn(
            synthesize_clean(steering_vector(DEFAULT_PATTERN, array, theta), pulse), 10.0, rng
        )
        base = estimate_doa(x, DEFAULT_PATTERN, array).angle_deg
        moved = estimate_doa(np.roll(x, 1, axis=0), DEFAULT_PATTERN, array).angle_deg
        shift_ok &= moved == (base - 60.0) % 360.0

    x = add_awgn(
        synthesize_clean(steering_vector(DEFAULT_PATTERN, array, 77.0), pulse), 5.0, rng
    )
    norm_once = normalize_bipolar(x)
    norm_ok = np.allclose(normalize_bipolar(norm_once), norm_once)
    norm_ok &= (
        estimate_doa(norm_once, DEFAULT_PATTERN, array).angle_deg
        == estimate_doa(x, DEFAULT_PATTERN, array).angle_deg
    )

    worst_recon, worst_ortho = 0.0, 0.0
    for _ in range(100):
        a = rng.normal(size=(6, 6))
        r = (a + a.T) / 2.0
        pair = eig_sym(r)
        recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        worst_recon = max(worst_recon, np.linalg.norm(recon - r) / np.linalg.norm(r))
        worst_ortho = max(
            worst_ortho, np.linalg.norm(pair.vectors.T @ pair.vectors - np.eye(6))
        )

    checks = [
        ("estimate invariant under positive scaling", scale_ok, "scales 1e-6 .. 1e6"),
        ("cyclic channel shift moves estimate by -60 deg", shift_ok, "3 directions"),
        ("normalization idempotent and estimate-invariant", bool(norm_ok), ""),
        (
            "eigendecomposition reconstruction on 100 seeded matrices",
            worst_recon <= 1e-10,
            f"worst {worst_recon:.3e} (need <= 1e-10)",
        ),
        (
            "eigenvector orthonormality on 100 seeded matrices",
            worst_ortho <= 1e-10,
            f"worst {worst_ortho:.3e} (need <= 1e-10)",
        ),
    ]
    _criterion("criterion 7: invariance suite", checks)


def test_criterion_8_pattern_fit_oracle():
    rng = np.random.default_rng(31415)
    angles = np.arange(0.0, 360.0, 1.0)
    clean = eval_pattern(DEFAULT_PATTERN, angles)
    fit = fit_pattern(angles, clean + rng.uniform(-0.01, 0.01, angles.size), 3)
    rmse = float(np.sqrt(np.mean((eval_pattern(fit.pattern, angles) - clean) ** 2)))

    worst_rel = 0.0
    probe = np.linspace(0.0, 359.0, 73)
    for _ in range(10):
        params = np.column_stack(
            [rng.uniform(0.1, 1.0, 3), rng.uniform(0.0, 359.0, 3), rng.uniform(10.0, 120.0, 3)]
        ).ravel()
        analytic = gaussian_sum_jacobian(probe, params)
        fd = np.empty_like(analytic)
        for i in range(params.size):
            h = 1e-6 * max(1.0, abs(params[i]))
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            fd[:, i] = (gaussian_sum(probe, up) - gaussian_sum(probe, down)) / (2 * h)
        worst_rel = max(worst_rel, np.linalg.norm(analytic - fd) / np.linalg.norm(analytic))

    checks = [
        (
            "noisy fit curve RMSE within 2% of peak gain",
            rmse <= 0.02 * clean.max(),
            f"rmse {rmse:.5f}, peak {clean.max():.4f}",
        ),
        (
            "analytic gradient matches central differences",
            worst_rel <= 1e-5,
            f"worst relative deviation {worst_rel:.3e} (need <= 1e-5)",
        ),
    ]
    _criterion("criterion 8: pattern-fit round trip and gradient check", checks)


def test_criterion_9_end_to_end_pipeline_surrogate():
    # Desktop surrogate for the hardware test: synthetic 4-channel
    # recordings at 10 dB SNR with a 948 MHz interference tone at the
    # same power as the pulse, run through the full offline pipeline.
    array = ArrayConfig(SUBSET4)
    spec = FilterSpec(low_hz=1.0e9, high_hz=2.0e9, n_taps=1001)
    rate = 10e9
    n_samples = 4096
    pulse = pd_pulse(PulseModel(), SamplingSpec(rate, 256))
    root = np.random.SeedSequence(987)
    errors = []
    for child in root.spawn(20):
        rng = np.random.default_rng(child)
        theta = rng.uniform(1.0, 360.0)
        gains = steering_vector(DEFAULT_PATTERN, array, theta)
        channels = np.zeros((4, n_samples))
        channels[:, 1500 : 1500 + pulse.size] = synthesize_clean(gains, pulse)
        power = np.mean(channels**2)
        channels = channels + rng.normal(0.0, np.sqrt(power / 10.0), channels.shape)
        tone_phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n_samples) / rate
        channels = channels + np.sqrt(2.0 * power) * np.sin(2.0 * np.pi * 948e6 * t + tone_phase)
        result = process_recording(
            Recording(rate_hz=rate, channels=channels), spec, DEFAULT_PATTERN, array
        )
        err = (result.estimate.angle_deg - theta) % 360.0
        errors.append(err - 360.0 if err > 180.0 else err)
    errors = np.asarray(errors)
    mean_abs = float(np.mean(np.abs(errors)))
    std = float(errors.std())
    checks = [
        ("mean absolute error", mean_abs <= 2.0, f"{mean_abs:.4f} deg (need <= 2)"),
        ("error standard deviation", std <= 2.5, f"{std:.4f} deg (need <= 2.5)"),
    ]
    _criterion("criterion 9: end-to-end pipeline on 20 synthetic recordings", checks)
