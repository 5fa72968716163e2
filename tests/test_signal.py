"""Tests for pulse synthesis and noise injection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirmusic.manifold import ArrayConfig, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN
from dirmusic.signal import (
    DEFAULT_PULSE,
    DEFAULT_SAMPLING,
    PulseModel,
    SamplingSpec,
    add_awgn,
    pd_pulse,
    synthesize_clean,
)


def _envelope(t, model=DEFAULT_PULSE):
    return model.amplitude * (np.exp(-t / model.decay_s) - np.exp(-t / model.rise_s))


class TestPdPulse:
    def test_starts_at_exactly_zero(self):
        s = pd_pulse()
        assert s[0] == 0.0
        assert np.max(np.abs(s)) > 0.0

    def test_envelope_peak_matches_dense_scan(self):
        # oracle: dense numerical evaluation of the envelope
        t = np.arange(0.0, 5e-9, 1e-13)
        env = _envelope(t)
        t_peak = t[np.argmax(env)]
        # closed form tau1*tau2/(tau1-tau2)*ln(tau1/tau2) = 0.402359 ns
        assert t_peak == pytest.approx(0.402359e-9, abs=2e-13)

    def test_width_above_ten_percent_of_peak(self):
        # oracle: dense scan of the envelope; the region above 10% of the
        # peak spans 2.914 ns, the few-nanosecond scale of a real pulse
        t = np.arange(0.0, 20e-9, 1e-13)
        env = _envelope(t)
        above = np.flatnonzero(env >= 0.1 * env.max())
        width = t[above[-1]] - t[above[0]]
        assert width == pytest.approx(2.914e-9, abs=2e-12)
        assert 2.0e-9 <= width <= 3.0e-9

    def test_samples_bounded_by_envelope(self):
        spec = SamplingSpec(rate_hz=10e9, n_samples=2048)
        s = pd_pulse(DEFAULT_PULSE, spec)
        t = np.arange(spec.n_samples) / spec.rate_hz
        assert np.all(np.abs(s) <= _envelope(t) + 1e-15)

    @pytest.mark.parametrize(
        "model, spec",
        [
            (DEFAULT_PULSE, DEFAULT_SAMPLING),
            (DEFAULT_PULSE, SamplingSpec(rate_hz=10e9, n_samples=512)),
            (DEFAULT_PULSE, SamplingSpec(10e9, 256)),
            # decay long enough that no sample reaches the underflow cut
            (PulseModel(decay_s=2e-6, rise_s=1e-6), DEFAULT_SAMPLING),
        ],
    )
    def test_matches_direct_formula(self, model, spec):
        # only the sign of zeros past the cut may differ, which == ignores
        t = np.arange(spec.n_samples) / spec.rate_hz
        envelope = np.exp(-t / model.decay_s) - np.exp(-t / model.rise_s)
        direct = model.amplitude * envelope * np.cos(2.0 * np.pi * model.carrier_hz * t)
        assert np.array_equal(pd_pulse(model, spec), direct)

    def test_rejects_decay_not_longer_than_rise(self):
        with pytest.raises(ValueError):
            PulseModel(decay_s=0.2e-9, rise_s=0.2e-9)

    def test_rejects_undersampled_carrier(self):
        with pytest.raises(ValueError):
            pd_pulse(DEFAULT_PULSE, SamplingSpec(rate_hz=2e9, n_samples=64))


class TestSynthesizeClean:
    def test_zero_gain_row_is_zero(self):
        x = synthesize_clean([1.0, 0.0], np.array([1.0, 2.0, 3.0]))
        assert_allclose(x[1], 0.0)

    def test_outer_product_values(self):
        x = synthesize_clean([2.0, 1.0], np.array([1.0, 1.0, 1.0]))
        assert_allclose(x, [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])

    def test_rank_one_all_two_by_two_minors_vanish(self):
        rng = np.random.default_rng(8)
        g = rng.uniform(0.1, 1.0, 5)
        s = rng.normal(size=40)
        x = synthesize_clean(g, s)
        for i in range(5):
            for k in range(i + 1, 5):
                minors = x[i, :-1] * x[k, 1:] - x[i, 1:] * x[k, :-1]
                assert np.max(np.abs(minors)) < 1e-12

    def test_rejects_matrix_inputs(self):
        with pytest.raises(ValueError):
            synthesize_clean(np.ones((2, 2)), np.ones(4))


class TestAddAwgn:
    def test_effectively_noiseless_at_high_snr(self):
        x = synthesize_clean([1.0, 0.5], pd_pulse(DEFAULT_PULSE, SamplingSpec(10e9, 512)))
        out = add_awgn(x, 300.0, np.random.default_rng(0))
        assert np.max(np.abs(out - x)) <= 1e-10 * np.max(np.abs(x))

    def test_noise_variance_matches_definition(self):
        # snr 0 dB on a unit-power input: sigma^2 = 1
        x = np.ones((1, 1_000_000))
        out = add_awgn(x, 0.0, np.random.default_rng(42))
        noise = out - x
        assert noise.var() == pytest.approx(1.0, rel=0.01)
        assert abs(noise.mean()) < 5e-3

    def test_noise_variance_uniform_across_channels(self):
        rng = np.random.default_rng(3)
        gains = steering_vector(DEFAULT_PATTERN, ArrayConfig.uniform(6), 20.0)
        x = synthesize_clean(gains, pd_pulse(DEFAULT_PULSE, SamplingSpec(10e9, 100_000)))
        noise = add_awgn(x, 0.0, rng) - x
        per_channel = noise.var(axis=1)
        assert np.max(per_channel) / np.min(per_channel) < 1.1
        assert_allclose(per_channel, noise.var(), rtol=0.05)

    def test_noise_independent_of_signal(self):
        rng = np.random.default_rng(7)
        x = np.sin(np.linspace(0.0, 300.0, 1_000_000)).reshape(1, -1)
        noise = add_awgn(x, 0.0, rng) - x
        rho = np.corrcoef(x.ravel(), noise.ravel())[0, 1]
        assert abs(rho) < 0.01

    def test_low_gain_channels_sink_first(self):
        # at -10 dB the weakest element's pulse hides in the noise while
        # the strongest stays well above it
        gains = steering_vector(DEFAULT_PATTERN, ArrayConfig.uniform(6), 0.0)
        x = synthesize_clean(gains, pd_pulse())
        sigma = np.sqrt(np.mean(x**2) * 10.0 ** (10.0 / 10.0))
        peaks = np.max(np.abs(x), axis=1)
        assert peaks[np.argmin(gains)] < 3.0 * sigma
        assert peaks[np.argmax(gains)] > 10.0 * sigma

    def test_rejects_zero_power_input(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros((2, 16)), 10.0, np.random.default_rng(0))

    @pytest.mark.parametrize("shape, snr_db", [((6, 15360), -10.0), ((4, 251), 7.5), ((1, 3), 30.0)])
    def test_same_bits_and_stream_as_one_normal_draw(self, shape, snr_db):
        # the defining form: clean + rng.normal(0, sigma, size)
        x = np.random.default_rng(1).normal(size=shape)
        sigma = np.sqrt(np.mean(x**2) / 10.0 ** (snr_db / 10.0))
        reference_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        expected = x + reference_rng.normal(0.0, sigma, size=shape)
        assert np.array_equal(add_awgn(x, snr_db, rng), expected)
        assert rng.random() == reference_rng.random()


class TestDefaults:
    def test_sampling_defaults(self):
        assert DEFAULT_SAMPLING.rate_hz == 10e9
        assert DEFAULT_SAMPLING.n_samples == 15360

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            SamplingSpec(rate_hz=0.0)
        with pytest.raises(ValueError):
            SamplingSpec(n_samples=1)
