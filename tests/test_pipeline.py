"""Tests for the recorded-waveform processing stages."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirmusic.estimator import estimate_doa
from dirmusic.manifold import ArrayConfig, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN
from dirmusic.pipeline import (
    FilterSpec,
    NoPulseFoundError,
    Recording,
    bandpass,
    detect_pulse,
    normalize_bipolar,
    process_recording,
)
from dirmusic.signal import PulseModel, SamplingSpec, pd_pulse, synthesize_clean

RATE = 10e9
SUBSET4 = ArrayConfig((0.0, 60.0, 120.0, 180.0))
ARRAY6 = ArrayConfig.uniform(6)
# 1001 taps give a ~33 MHz transition at 10 GS/s, enough to reject the
# 948 MHz interferer just below the 1 GHz band edge.
SHARP_FILTER = FilterSpec(low_hz=1.0e9, high_hz=2.0e9, n_taps=1001)


def make_recording(
    theta,
    array=SUBSET4,
    n_samples=4096,
    pulse_start=1500,
    snr_db=None,
    tone_amplitude=0.0,
    seed=0,
):
    """Synthetic multichannel record with one pulse, optional noise/tone."""
    rng = np.random.default_rng(seed)
    gains = steering_vector(DEFAULT_PATTERN, array, theta)
    pulse = pd_pulse(PulseModel(), SamplingSpec(RATE, 256))
    channels = np.zeros((array.n_elements, n_samples))
    channels[:, pulse_start : pulse_start + pulse.size] = synthesize_clean(gains, pulse)
    if snr_db is not None:
        sigma = np.sqrt(np.mean(channels**2) / 10.0 ** (snr_db / 10.0))
        channels = channels + rng.normal(0.0, sigma, channels.shape)
    if tone_amplitude > 0.0:
        t = np.arange(n_samples) / RATE
        phase = rng.uniform(0.0, 2.0 * np.pi)
        channels = channels + tone_amplitude * np.sin(2.0 * np.pi * 948e6 * t + phase)
    return Recording(rate_hz=RATE, channels=channels)


def _freq_response(kernel, freq_hz, rate_hz=RATE):
    n = np.arange(kernel.size)
    return abs(np.sum(kernel * np.exp(-2j * np.pi * freq_hz * n / rate_hz)))


class TestFilterSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(low_hz=2e9, high_hz=1e9)
        with pytest.raises(ValueError):
            FilterSpec(n_taps=100)
        with pytest.raises(ValueError):
            FilterSpec(n_taps=9)

    def test_band_must_fit_below_nyquist(self):
        with pytest.raises(ValueError):
            FilterSpec(low_hz=1e9, high_hz=2e9).kernel(3e9)

    def test_passband_center_is_unity(self):
        # oracle: direct DFT of the kernel
        for spec in (FilterSpec(), SHARP_FILTER):
            kernel = spec.kernel(RATE)
            center = (spec.low_hz + spec.high_hz) / 2.0
            assert _freq_response(kernel, center) == pytest.approx(1.0, rel=0.05)

    def test_interferer_rejection_with_sharp_kernel(self):
        kernel = SHARP_FILTER.kernel(RATE)
        assert _freq_response(kernel, 948e6) <= 10 ** (-20 / 20)

    @pytest.mark.parametrize("n_taps", [11, 101, 1001])
    def test_matches_scipy_firwin(self, n_taps):
        firwin = pytest.importorskip("scipy.signal").firwin
        for low, high in ((1.0e9, 2.0e9), (0.3e9, 0.9e9), (2.0e9, 4.5e9)):
            for rate in (RATE, 12.5e9):
                expected = firwin(n_taps, [low, high], pass_zero=False, window="hamming", fs=rate)
                kernel = FilterSpec(low, high, n_taps).kernel(rate)
                assert_allclose(kernel, expected, rtol=0.0, atol=1e-15)


class TestBandpass:
    def test_zero_in_zero_out(self):
        rec = Recording(RATE, np.zeros((2, 512)))
        out = bandpass(rec, FilterSpec())
        assert_allclose(out.channels, 0.0)
        assert out.n_samples == rec.n_samples

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = Recording(RATE, rng.normal(size=(2, 600)))
        y = Recording(RATE, rng.normal(size=(2, 600)))
        spec = FilterSpec()
        combined = Recording(RATE, 2.0 * x.channels - 3.0 * y.channels)
        assert_allclose(
            bandpass(combined, spec).channels,
            2.0 * bandpass(x, spec).channels - 3.0 * bandpass(y, spec).channels,
            atol=1e-12,
        )

    def test_in_band_tone_preserved_and_aligned(self):
        t = np.arange(4096) / RATE
        tone = np.sin(2.0 * np.pi * 1.5e9 * t)
        rec = Recording(RATE, tone[None, :])
        out = bandpass(rec, FilterSpec()).channels[0]
        # away from the zero-padded edges the tone passes unchanged, in
        # amplitude and in time (group delay compensated)
        mid = slice(200, -200)
        assert np.max(np.abs(out[mid] - tone[mid])) < 0.05

    def test_out_of_band_tone_suppressed(self):
        t = np.arange(8192) / RATE
        tone = np.sin(2.0 * np.pi * 948e6 * t)
        out = bandpass(Recording(RATE, tone[None, :]), SHARP_FILTER).channels[0]
        mid = slice(1100, -1100)
        assert np.max(np.abs(out[mid])) <= 0.1

    # Lengths: the kernel itself, lengths that are no multiple of the
    # overlap-add block step (924 samples at 101 taps, 3096 at 1001),
    # exact multiples of it, and lengths whose delay-shifted end lands
    # exactly on a block edge.
    @pytest.mark.parametrize(
        "n_taps, n_samples",
        [(n, length) for n in (11, 101, 1001) for length in (n, 4096, 200_003)]
        + [(101, 1848), (101, 1798), (1001, 6192), (1001, 5692), (1001, 5693)],
    )
    def test_matches_direct_convolution(self, n_taps, n_samples):
        rng = np.random.default_rng(n_samples)
        rec = Recording(RATE, rng.normal(size=(2, n_samples)))
        spec = FilterSpec(n_taps=n_taps)
        kernel = spec.kernel(RATE)
        expected = np.array([np.convolve(ch, kernel, mode="same") for ch in rec.channels])
        out = bandpass(rec, spec).channels
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_record_shorter_than_kernel_rejected(self):
        rec = Recording(RATE, np.zeros((1, 64)))
        with pytest.raises(ValueError):
            bandpass(rec, FilterSpec(n_taps=101))


class TestDetectPulse:
    def test_window_contains_known_pulse(self):
        rec = make_recording(93.0, snr_db=10.0)
        window = detect_pulse(bandpass(rec, SHARP_FILTER))
        assert window.start <= 1505 <= window.stop  # envelope peaks ~5 samples in

    def test_pure_noise_raises(self):
        rng = np.random.default_rng(123)
        rec = Recording(RATE, rng.normal(0.0, 1.0, size=(4, 20000)))
        with pytest.raises(NoPulseFoundError):
            detect_pulse(rec, k_sigma=5.0)

    def test_all_zero_record_raises(self):
        with pytest.raises(NoPulseFoundError):
            detect_pulse(Recording(RATE, np.zeros((2, 100))))

    def test_larger_of_two_pulses_wins(self):
        pulse = pd_pulse(PulseModel(), SamplingSpec(RATE, 128))
        channels = np.zeros((1, 6000))
        channels[0, 1000:1128] = 0.4 * pulse
        channels[0, 4000:4128] = 1.0 * pulse
        window = detect_pulse(Recording(RATE, channels))
        assert window.start <= 4005 <= window.stop  # centered on the larger pulse
        assert window.start > 1128

    def test_translation_covariance(self):
        base = make_recording(40.0, pulse_start=1200, snr_db=20.0, seed=9)
        shifted = make_recording(40.0, pulse_start=1500, snr_db=20.0, seed=9)
        w0 = detect_pulse(base)
        w1 = detect_pulse(shifted)
        assert (w1.start - w0.start, w1.stop - w0.stop) == (300, 300)

    def test_margins_respect_record_bounds(self):
        # pulse past the noise-estimation head but closer to the edges
        # than the margins reach
        rec = make_recording(40.0, pulse_start=65, n_samples=600)
        window = detect_pulse(rec, pre_margin_s=10e-9, post_margin_s=60e-9)
        assert window.start == 0
        assert window.stop == 600


class TestNormalizeBipolar:
    def test_known_matrix(self):
        out = normalize_bipolar(np.array([[2.0, -4.0], [1.0, 0.0]]))
        assert_allclose(out, [[0.5, -1.0], [0.25, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 50))
        once = normalize_bipolar(x)
        assert_allclose(normalize_bipolar(once), once)

    def test_preserves_ratios_and_signs(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 40))
        out = normalize_bipolar(x)
        assert np.all(np.sign(out) == np.sign(x))
        assert_allclose(out * np.max(np.abs(x)), x, rtol=1e-12)
        assert np.max(np.abs(out)) == pytest.approx(1.0)

    def test_estimator_invariant_under_normalization(self):
        rng = np.random.default_rng(7)
        x = make_recording(222.0, array=ARRAY6, snr_db=0.0, seed=3).channels
        x = x[:, 1400:1900] + rng.normal(0.0, 1e-6, (6, 500))
        a = estimate_doa(x, DEFAULT_PATTERN, ARRAY6).angle_deg
        b = estimate_doa(normalize_bipolar(x), DEFAULT_PATTERN, ARRAY6).angle_deg
        assert a == b

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_bipolar(np.zeros((2, 4)))


class TestProcessRecording:
    def test_clean_on_grid_recovery(self):
        rec = make_recording(93.0)
        result = process_recording(rec, SHARP_FILTER, DEFAULT_PATTERN, SUBSET4)
        assert result.estimate.angle_deg == 93.0
        assert result.n_elements == 4

    def test_noisy_with_interference_tone(self):
        rec = make_recording(93.0, snr_db=10.0, tone_amplitude=0.02, seed=21)
        result = process_recording(rec, SHARP_FILTER, DEFAULT_PATTERN, SUBSET4)
        err = abs(result.estimate.angle_deg - 93.0)
        assert min(err, 360.0 - err) <= 2.0

    def test_channel_rotation_shifts_estimate(self):
        rec = make_recording(120.0, array=ARRAY6, snr_db=30.0, seed=2)
        rotated = Recording(RATE, np.roll(rec.channels, 1, axis=0))
        base = process_recording(rec, SHARP_FILTER, DEFAULT_PATTERN, ARRAY6)
        moved = process_recording(rotated, SHARP_FILTER, DEFAULT_PATTERN, ARRAY6)
        assert moved.estimate.angle_deg == (base.estimate.angle_deg - 60.0) % 360.0

    def test_channel_count_mismatch_rejected(self):
        rec = make_recording(93.0)
        with pytest.raises(ValueError):
            process_recording(rec, SHARP_FILTER, DEFAULT_PATTERN, ARRAY6)

    def test_detection_failure_propagates(self):
        rng = np.random.default_rng(11)
        rec = Recording(RATE, rng.normal(0.0, 1.0, size=(4, 8000)))
        with pytest.raises(NoPulseFoundError):
            process_recording(rec, SHARP_FILTER, DEFAULT_PATTERN, SUBSET4)


class TestRecordingValidation:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            Recording(RATE, np.zeros(10))
        with pytest.raises(ValueError):
            Recording(RATE, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Recording(0.0, np.zeros((2, 10)))
        with pytest.raises(ValueError):
            Recording(RATE, np.array([[np.nan, 1.0]]))
