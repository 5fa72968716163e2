"""Tests for the recorded-waveform processing stages."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dirmusic.estimator import estimate_doa
from dirmusic.manifold import ArrayConfig, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN
from dirmusic.pipeline import (
    FilterSpec,
    NoPulseFoundError,
    Recording,
    _block_plan,
    _fft_length,
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


def _assert_matches_convolve(channels, spec):
    kernel = spec.kernel(RATE)
    expected = np.array([np.convolve(ch, kernel, mode="same") for ch in channels])
    out = bandpass(Recording(RATE, channels), spec).channels
    assert out.shape == expected.shape
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def _csv_layout(channels):
    """The same samples laid out as ``read_waveform_csv`` returns them:
    the channel columns of a (samples, 1 + channels) table, transposed."""
    table = np.zeros((channels.shape[1], 1 + channels.shape[0]))
    table[:, 1:] = channels.T
    return table[:, 1:].T


def _assert_layouts_agree(channels, spec):
    """Both layouts match ``np.convolve`` to rounding and each other bit
    for bit."""
    _assert_matches_convolve(channels, spec)
    expected = bandpass(Recording(RATE, channels), spec).channels
    assert np.array_equal(bandpass(Recording(RATE, _csv_layout(channels)), spec).channels, expected)


def _traced_peak(call):
    """``call()``'s result and the bytes allocated at its peak above what
    was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _stream_pool(seed, size):
    """(theta, record) pairs built like the ``pipeline_stream`` benchmark's
    records: 4 x 4096 samples at 10 GS/s, the 256-sample pulse at sample
    1500, white noise at 10 dB over the record and a 948 MHz tone of
    twice the record's mean power."""
    pulse = pd_pulse(PulseModel(), SamplingSpec(RATE, 256))
    t = np.arange(4096) / RATE
    for child in np.random.SeedSequence([seed, 3]).spawn(size):
        rng = np.random.default_rng(child)
        theta = float(rng.uniform(1.0, 360.0))
        channels = np.zeros((4, 4096))
        gains = steering_vector(DEFAULT_PATTERN, SUBSET4, theta)
        channels[:, 1500 : 1500 + pulse.size] = synthesize_clean(gains, pulse)
        power = float(np.mean(channels**2))
        channels += rng.normal(0.0, np.sqrt(power / 10.0), channels.shape)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        channels += np.sqrt(2.0 * power) * np.sin(2.0 * np.pi * 948e6 * t + phase)
        yield theta, Recording(RATE, channels)


# (angle_deg, window start, stop, channel, threshold) of the first 32
# records of _stream_pool(1, ...), as the bandpass before its buffer
# re-plan gave them; the comment is the true direction. The threshold's
# last bits depend on numpy's FFT backend, so it is compared to 1e-12.
STREAM_POOL_GOLDEN = [
    (114.0, 1458, 1709, 2, 0.011652538046024216),  # 113.67
    (147.0, 1458, 1709, 1, 0.009756357124281325),  # 146.66
    (345.0, 1458, 1709, 3, 0.006904856881910247),  # 345.23
    (278.0, 1458, 1709, 0, 0.005355186617005143),  # 277.88
    (299.0, 1458, 1709, 3, 0.00561593392499662),  # 299.07
    (142.0, 1458, 1709, 1, 0.010450155850592646),  # 142.20
    (309.0, 1458, 1709, 3, 0.005118928678245928),  # 308.85
    (291.0, 1458, 1709, 3, 0.005362984604363172),  # 290.82
    (143.0, 1458, 1709, 1, 0.01136143172935726),  # 142.78
    (106.0, 1458, 1709, 2, 0.011108633859403293),  # 106.49
    (256.0, 1458, 1709, 0, 0.0055885881039654745),  # 255.93
    (295.0, 1458, 1709, 3, 0.005342072972778712),  # 295.05
    (272.0, 1458, 1709, 0, 0.006117692911769742),  # 272.39
    (164.0, 1458, 1709, 1, 0.010267058661227615),  # 163.36
    (164.0, 1458, 1709, 1, 0.009443696374559135),  # 163.85
    (158.0, 1458, 1709, 1, 0.009362226416086092),  # 159.13
    (192.0, 1458, 1709, 0, 0.009405931130830674),  # 192.01
    (27.0, 1458, 1709, 3, 0.009740128032093386),  # 27.84
    (337.0, 1458, 1709, 3, 0.007053480292922481),  # 337.78
    (31.0, 1458, 1709, 3, 0.008540225036650638),  # 31.43
    (3.0, 1458, 1709, 3, 0.007089377463097521),  # 3.01
    (341.0, 1458, 1709, 3, 0.0069864758224900386),  # 341.49
    (94.0, 1458, 1709, 2, 0.010991278650027707),  # 95.30
    (238.0, 1458, 1709, 0, 0.006974038976076514),  # 238.08
    (67.0, 1458, 1709, 2, 0.009762175189112002),  # 66.76
    (343.0, 1458, 1709, 3, 0.007420556361238032),  # 343.35
    (7.0, 1458, 1709, 3, 0.007799882099590936),  # 7.04
    (198.0, 1458, 1709, 0, 0.007697456934333973),  # 197.81
    (273.0, 1458, 1709, 0, 0.005097391748224642),  # 272.57
    (214.0, 1458, 1709, 0, 0.008029750957564724),  # 214.24
    (168.0, 1458, 1709, 1, 0.009686457469311979),  # 167.85
    (151.0, 1458, 1709, 1, 0.010236521142573134),  # 150.54
]


class TestFilterSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(low_hz=2e9, high_hz=1e9)
        with pytest.raises(ValueError):
            FilterSpec(n_taps=100)
        with pytest.raises(ValueError):
            FilterSpec(n_taps=9)
        for n_taps in (101.0, 101.5, True):
            with pytest.raises(ValueError, match="n_taps must be an integer"):
                FilterSpec(n_taps=n_taps)
        assert FilterSpec(n_taps=np.int64(101)).kernel(10e9).size == 101
        for field in ("low_hz", "high_hz"):
            for value in (True, "2e9", [1]):
                with pytest.raises(ValueError, match=f"{field} must be a number"):
                    FilterSpec(**{field: value})

    def test_integer_band_edges_are_stored_as_float(self):
        spec = FilterSpec(low_hz=1_000_000_000, high_hz=np.int64(2_000_000_000))
        assert (spec.low_hz, spec.high_hz) == (1.0e9, 2.0e9)
        assert type(spec.low_hz) is float and type(spec.high_hz) is float

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

    # Lengths: the kernel itself, 4096 and 200,003 (one block or many,
    # by the FFT length each record gets), and two-block records whose
    # output ends inside the last block's spill (1848 and 6192, whole
    # multiples of the 924- and 3096-sample steps; 5693, one sample in)
    # or exactly where the last block's step ends (1798, 5692).
    @pytest.mark.parametrize(
        "n_taps, n_samples",
        [(n, length) for n in (11, 101, 1001) for length in (n, 4096, 200_003)]
        + [(101, 1848), (101, 1798), (1001, 6192), (1001, 5692), (1001, 5693)],
    )
    def test_matches_direct_convolution(self, n_taps, n_samples):
        rng = np.random.default_rng(n_samples)
        _assert_matches_convolve(rng.normal(size=(2, n_samples)), FilterSpec(n_taps=n_taps))

    @pytest.mark.parametrize("n_taps", [11, 101, 1001])
    def test_one_block_capacity_and_one_past(self, n_taps):
        # At its capacity the smallest FFT holds the record in one block;
        # one sample more and the 5/4 size does, by the same code path.
        smallest = 1 << (max(1024, 4 * n_taps) - 1).bit_length()
        capacity = smallest - n_taps + 1
        assert _fft_length(capacity, n_taps) == smallest
        assert _fft_length(capacity + 1, n_taps) == smallest * 5 // 4
        rng = np.random.default_rng(n_taps)
        for n_samples in (capacity, capacity + 1):
            _assert_matches_convolve(rng.normal(size=(3, n_samples)), FilterSpec(n_taps=n_taps))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), half=st.integers(5, 500), n_channels=st.integers(1, 6))
    def test_matches_direct_convolution_property(self, data, half, n_channels):
        n_taps = 2 * half + 1
        smallest = 1 << (max(1024, 4 * n_taps) - 1).bit_length()
        n_samples = data.draw(st.integers(n_taps, 3 * smallest), label="n_samples")
        rng = np.random.default_rng(n_samples)
        _assert_matches_convolve(rng.normal(size=(n_channels, n_samples)), FilterSpec(n_taps=n_taps))

    # The block-edge lengths above, plus one-block records with no whole
    # block before the last: shorter than a step, exactly one step (924
    # at 101 taps), the kernel itself, and 4096 at 1001 taps.
    @pytest.mark.parametrize(
        "n_taps, n_samples",
        [(101, 1848), (101, 1798), (1001, 6192), (1001, 5692), (1001, 5693)]
        + [(101, 500), (101, 924), (11, 11), (1001, 1001), (1001, 4096)],
    )
    def test_csv_layout_gives_the_same_bits(self, n_taps, n_samples):
        channels = np.random.default_rng(n_samples).normal(size=(4, n_samples))
        strided = _csv_layout(channels)
        assert not strided.flags.c_contiguous
        spec = FilterSpec(n_taps=n_taps)
        expected = bandpass(Recording(RATE, channels), spec).channels
        assert np.array_equal(bandpass(Recording(RATE, strided), spec).channels, expected)

    # Records of 1, g, g + 1 and 2g + 1 blocks, where g is the number of
    # blocks transformed at once: 31 of 1024 points for 2 channels at 101
    # taps, 7 of 2048 points for 4 channels at 301 taps. Each count is
    # tried with its last block whole and one sample short of it.
    @pytest.mark.parametrize(
        "n_channels, n_taps, n_fft, group", [(2, 101, 1024, 31), (4, 301, 2048, 7)]
    )
    @pytest.mark.parametrize("blocks", ["1", "g", "g+1", "2g+1"])
    def test_group_edges(self, n_channels, n_taps, n_fft, group, blocks):
        n_blocks = {"1": 1, "g": group, "g+1": group + 1, "2g+1": 2 * group + 1}[blocks]
        step = n_fft - n_taps + 1
        rng = np.random.default_rng(n_blocks)
        for n_samples in (n_blocks * step - 1, n_blocks * step):
            assert _block_plan(n_channels, n_samples, n_taps) == (n_fft, n_blocks, min(group, n_blocks))
            channels = rng.normal(size=(n_channels, n_samples))
            _assert_layouts_agree(channels, FilterSpec(n_taps=n_taps))

    # A last group that is one block of a single sample, after one and
    # after two whole groups of 31.
    @pytest.mark.parametrize("n_blocks", [32, 63])
    def test_last_group_of_one_sample(self, n_blocks):
        n_samples = (n_blocks - 1) * 924 + 1
        assert _block_plan(2, n_samples, 101) == (1024, n_blocks, 31)
        channels = np.random.default_rng(n_blocks).normal(size=(2, n_samples))
        _assert_layouts_agree(channels, FilterSpec(n_taps=101))

    # The output plus a scratch that does not grow with the record: the
    # benchmark's 4 x 200k CSV-layout record at 1001 taps.
    def test_memory_is_output_plus_fixed_scratch(self):
        channels = _csv_layout(np.random.default_rng(4).normal(size=(4, 200_000)))
        rec = Recording(RATE, channels)
        filtered, peak = _traced_peak(lambda: bandpass(rec, SHARP_FILTER))
        assert filtered.channels.flags.c_contiguous
        assert peak <= filtered.channels.nbytes + 2_000_000

    @pytest.mark.parametrize("n_samples", [500, 4096, 8192])
    def test_output_shares_no_memory_with_input(self, n_samples):
        channels = np.random.default_rng(2).normal(size=(3, n_samples))
        for layout in (channels, _csv_layout(channels)):
            out = bandpass(Recording(RATE, layout), FilterSpec()).channels
            assert not np.shares_memory(out, layout)

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

    def test_negative_peak_wins_over_smaller_positive(self):
        channels = np.zeros((2, 1000))
        channels[0, 300] = 1.5
        channels[1, 500] = -2.0
        window = detect_pulse(Recording(RATE, channels))
        assert (window.channel, window.start) == (1, 450)

    # A +/- magnitude tie: the first position in flat (channel, sample)
    # order wins, whichever sign it has.
    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ((0, 400, -1.0), (0, 600, 1.0), (0, 350)),
            ((0, 400, 1.0), (0, 600, -1.0), (0, 350)),
            ((0, 700, 1.0), (1, 100, -1.0), (0, 650)),
            ((0, 700, -1.0), (1, 100, 1.0), (0, 650)),
        ],
    )
    def test_magnitude_tie_earlier_position_wins(self, first, second, expected):
        channels = np.zeros((2, 1000))
        for channel, index, value in (first, second):
            channels[channel, index] = value
        window = detect_pulse(Recording(RATE, channels))
        assert (window.channel, window.start) == expected

    # A record near the float64 limit overflows in the bandpass.
    def test_overflowing_record_fails_before_the_estimator(self):
        rec = Recording(RATE, np.full((4, 4096), 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                process_recording(rec, FilterSpec(), DEFAULT_PATTERN, SUBSET4)

    def test_search_makes_no_record_sized_temporary(self):
        rec = Recording(RATE, np.random.default_rng(5).normal(size=(4, 200_000)))
        _, peak = _traced_peak(lambda: detect_pulse(rec, k_sigma=1.0))
        assert peak < rec.channels.nbytes // rec.n_channels

    def test_translation_covariance(self):
        base = make_recording(40.0, pulse_start=1200, snr_db=20.0, seed=9)
        shifted = make_recording(40.0, pulse_start=1500, snr_db=20.0, seed=9)
        w0 = detect_pulse(base)
        w1 = detect_pulse(shifted)
        assert (w1.start - w0.start, w1.stop - w0.stop) == (300, 300)

    def test_margins_respect_record_bounds(self):
        # pulse past the noise-estimation head but closer to the edges
        # than the margins reach: the peak sits 44 samples in and 196
        # from the end, inside the 50 before and 200 after it
        rec = make_recording(40.0, pulse_start=40, n_samples=400)
        rec = Recording(RATE, rec.channels[:, :240])
        window = detect_pulse(rec)
        assert window.start == 0
        assert window.stop == 240


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

    def test_stream_pool_matches_golden(self):
        pool = list(_stream_pool(1, len(STREAM_POOL_GOLDEN)))
        for (_, rec), (angle, start, stop, channel, threshold) in zip(pool, STREAM_POOL_GOLDEN):
            result = process_recording(rec, SHARP_FILTER, DEFAULT_PATTERN, SUBSET4)
            window = result.window
            assert result.estimate.angle_deg == angle
            assert (window.start, window.stop, window.channel) == (start, stop, channel)
            assert window.threshold == pytest.approx(threshold, rel=1e-12)

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
