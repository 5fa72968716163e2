"""Offline processing of recorded multichannel pulse waveforms.

Stages: bandpass filtering (linear-phase FIR, group delay compensated),
strongest-pulse interception, amplitude normalization to [-1, 1], and
finally the spectrum search. Normalization divides by the single global
peak magnitude across all channels, which removes the distance-dependent
overall amplitude while preserving the inter-channel gain ratios that
carry the direction information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimator import DoaEstimate, estimate_doa
from .manifold import ArrayConfig
from .pattern import GaussianMixturePattern

__all__ = [
    "Recording",
    "FilterSpec",
    "PulseWindow",
    "PipelineResult",
    "NoPulseFoundError",
    "bandpass",
    "detect_pulse",
    "normalize_bipolar",
    "process_recording",
]


class NoPulseFoundError(RuntimeError):
    """No sample exceeded the detection threshold."""


@dataclass(frozen=True)
class Recording:
    """Multichannel waveform record.

    ``channels`` is an (n_channels, n_samples) array in volts, one row
    per array element, in element order.
    """

    rate_hz: float
    channels: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.channels, dtype=float)
        if data.ndim != 2:
            raise ValueError("channels must be a 2-D array")
        if data.shape[1] < 2:
            raise ValueError("recording needs at least 2 samples")
        if not np.all(np.isfinite(data)):
            raise ValueError("recording contains non-finite samples")
        if not (self.rate_hz > 0.0 and np.isfinite(self.rate_hz)):
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        object.__setattr__(self, "channels", data)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


def _sinc(x: np.ndarray) -> np.ndarray:
    """``np.sinc(x)`` for ``x`` whose only zero is ``x[0]``.

    Same arithmetic as ``np.sinc``, with its zero guard (a ``where`` over
    the whole array) replaced by the limit 1 at ``x[0]``.
    """
    y = np.pi * x
    y[0] = 1.0
    y = np.sin(y) / y
    y[0] = 1.0
    return y


@dataclass(frozen=True)
class FilterSpec:
    """Linear-phase windowed-sinc bandpass design.

    ``n_taps`` must be odd so the group delay is an integer number of
    samples. Feasibility against a concrete sample rate (high edge below
    Nyquist, record longer than the kernel) is checked when filtering.
    """

    low_hz: float = 1.0e9
    high_hz: float = 2.0e9
    n_taps: int = 101

    def __post_init__(self):
        if not (0.0 < self.low_hz < self.high_hz):
            raise ValueError(
                f"need 0 < low_hz < high_hz, got {self.low_hz}, {self.high_hz}"
            )
        if self.n_taps < 11 or self.n_taps % 2 == 0:
            raise ValueError(f"n_taps must be odd and >= 11, got {self.n_taps}")

    def kernel(self, rate_hz: float) -> np.ndarray:
        """FIR taps for the given sample rate (Hamming windowed sinc).

        The taps are scaled to unit gain at the band centre, the same
        design as ``scipy.signal.firwin(n_taps, [low_hz, high_hz],
        pass_zero=False, window="hamming", fs=rate_hz)``.
        """
        nyquist = rate_hz / 2.0
        if self.high_hz >= nyquist:
            raise ValueError(f"high_hz={self.high_hz} must be below Nyquist ({nyquist})")
        low, high = self.low_hz / nyquist, self.high_hz / nyquist
        # Every factor is even about the centre tap, so each is evaluated
        # once per offset m = 0..half, by the arithmetic of np.sinc and
        # np.hamming, and mirrored: the taps equal the full-length design.
        half = (self.n_taps - 1) // 2
        m = np.arange(half + 1.0)
        taps = high * _sinc(high * m)
        taps -= low * _sinc(low * m)
        taps *= 0.54 + 0.46 * np.cos(np.pi * (2.0 * m) / (2 * half))
        carrier = np.cos(np.pi * m * (low + high) / 2.0)
        taps = np.concatenate((taps[:0:-1], taps))
        taps /= np.sum(taps * np.concatenate((carrier[:0:-1], carrier)))
        return taps


@dataclass(frozen=True)
class PulseWindow:
    """Half-open sample range [start, stop) selected around the pulse."""

    start: int
    stop: int
    channel: int
    threshold: float

    def __post_init__(self):
        for name in ("start", "stop", "channel"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "threshold", float(self.threshold))
        if not (0 <= self.start < self.stop):
            raise ValueError(f"need 0 <= start < stop, got {self.start}, {self.stop}")
        if self.stop - self.start < 2:
            raise ValueError("window must span at least 2 samples")


@dataclass(frozen=True)
class PipelineResult:
    """Direction estimate plus the pulse window it was computed from."""

    estimate: DoaEstimate
    window: PulseWindow
    rate_hz: float
    filter_band_hz: tuple[float, float]
    n_elements: int


def _fft_length(n_samples: int, n_taps: int) -> int:
    """Overlap-add FFT length with the least ``n_blocks * n_fft * log2(n_fft)``.

    The candidates are 2^k and 5/4 * 2^k, from the smallest power of two
    >= max(1024, 4 * n_taps) until one holds the whole record in one
    block; the smallest wins ties.
    """
    size = 1 << (max(1024, 4 * n_taps) - 1).bit_length()
    sizes = []
    while not sizes or sizes[-1] < n_samples + n_taps - 1:
        sizes += [size, size * 5 // 4]
        size *= 2
    return min(sizes, key=lambda n: -(-n_samples // (n - n_taps + 1)) * n * math.log2(n))


def bandpass(rec: Recording, spec: FilterSpec) -> Recording:
    """Filter every channel with the same linear-phase FIR kernel.

    Output length equals input length: the convolution treats samples
    beyond the record edges as zero, and taking the central part of the
    full convolution compensates the group delay, so channels stay time
    aligned. The result equals ``np.convolve(channel, kernel, "same")``
    per channel, to rounding.

    All channels are filtered at once by overlap-add FFT convolution
    (Stockham 1966): each channel is cut into blocks of ``step`` samples,
    every block is convolved with the kernel by one real FFT of length
    ``n_fft``, and the ``n_taps - 1`` samples each block spills past its
    end are added onto the start of the next block; the last block's
    spill ends the full convolution. ``n_fft`` is the size with the least
    transform work for this record (see ``_fft_length``), so a record
    that fits in one good FFT length is filtered as a single block.

    One call allocates one record-sized buffer: the block spectra, taken
    straight from the record (``rfft`` zero-pads each block itself), then
    the inverse blocks; the output is assembled over the spent spectra.
    A 4 x 4096 record with 1001 taps takes 328 KB (164 KB of spectra,
    164 KB of inverse blocks), plus the 8 KB kernel, its 41 KB spectrum
    and numpy's buffer for the broadcast multiply. The peak matters
    beyond its size: glibc returns a freed heap top to the system once
    it reaches twice the largest mapped chunk freed so far, and the next
    call faults those pages in again. One dominant buffer keeps a call
    well below that line, where two equal ones would sit right on it.
    The returned channels are a view of that buffer, so a kept result
    holds all of it (328 KB for 131 KB of output at 4 x 4096 / 1001
    taps); ``.copy()`` the channels to keep only the output.
    """
    n_taps = spec.n_taps
    n_channels, n_samples = rec.channels.shape
    if n_samples < n_taps:
        raise ValueError(f"record length {n_samples} is shorter than the kernel ({n_taps})")
    kernel = spec.kernel(rec.rate_hz)
    spill = n_taps - 1
    delay = spill // 2
    n_fft = _fft_length(n_samples, n_taps)
    step = n_fft - spill
    n_blocks = -(-n_samples // step)
    # The spectra first, then the inverse blocks, in one buffer.
    n_spectra = n_channels * n_blocks * (n_fft + 2)
    buf = np.empty(n_spectra + n_channels * n_blocks * n_fft)
    spectra = buf[:n_spectra].view(complex).reshape(n_channels, n_blocks, n_fft // 2 + 1)
    blocks = buf[n_spectra:].reshape(n_channels, n_blocks, n_fft)
    # Every block but the last is whole; the last holds the 1..step
    # samples left over.
    head = (n_blocks - 1) * step
    whole = rec.channels[:, :head].reshape(n_channels, n_blocks - 1, step)
    np.fft.rfft(whole, n_fft, out=spectra[:, :-1])
    np.fft.rfft(rec.channels[:, head:], n_fft, out=spectra[:, -1])
    spectra *= np.fft.rfft(kernel, n_fft)
    np.fft.irfft(spectra, n_fft, out=blocks)
    # The full convolution, over the spectra (it is shorter than they
    # are): each block's first step samples, the last block's spill, and
    # every other spill added onto the head of the next block.
    body = n_blocks * step
    full = buf[: n_channels * (body + spill)].reshape(n_channels, body + spill)
    full[:, :body].reshape(n_channels, n_blocks, step)[...] = blocks[:, :, :step]
    full[:, body:] = blocks[:, -1, step:]
    later = full[:, step:body].reshape(n_channels, n_blocks - 1, step)
    later[:, :, :spill] += blocks[:, :-1, step:]
    filtered = full[:, delay : delay + n_samples]
    return replace(rec, channels=filtered)


def detect_pulse(
    rec: Recording,
    k_sigma: float = 5.0,
    *,
    pre_margin_s: float = 5e-9,
    post_margin_s: float = 20e-9,
) -> PulseWindow:
    """Locate the strongest pulse and return a window around it.

    The global maximum magnitude across channels marks the pulse; the
    detection threshold is k_sigma times the noise standard deviation
    estimated from the first 10% of that channel (which assumes the
    pulse does not sit at the very start of the record). With several
    pulses present, the largest one wins.

    Raises:
        NoPulseFoundError: peak magnitude below the threshold (or an
            all-zero record).
    """
    if k_sigma <= 0.0:
        raise ValueError(f"k_sigma must be > 0, got {k_sigma}")
    data = rec.channels
    flat_peak = int(np.argmax(np.abs(data)))
    channel, peak_idx = np.unravel_index(flat_peak, data.shape)
    peak = abs(float(data[channel, peak_idx]))

    head = data[channel, : max(2, rec.n_samples // 10)]
    threshold = k_sigma * float(np.std(head))
    if peak <= 0.0 or peak < threshold:
        raise NoPulseFoundError(
            f"peak magnitude {peak:.3g} below detection threshold {threshold:.3g}"
        )

    pre = int(round(pre_margin_s * rec.rate_hz))
    post = int(round(post_margin_s * rec.rate_hz))
    start = max(0, peak_idx - pre)
    stop = min(rec.n_samples, peak_idx + post + 1)
    return PulseWindow(start=start, stop=stop, channel=int(channel), threshold=threshold)


def normalize_bipolar(x) -> np.ndarray:
    """Scale a snapshot matrix by its single global peak magnitude.

    Every entry is divided by max |entry| over all channels jointly, so
    the output lies in [-1, 1] with at least one entry at +-1, signs and
    inter-channel amplitude ratios unchanged. Idempotent.
    """
    data = np.asarray(x, dtype=float)
    peak = float(np.max(np.abs(data)))
    if peak == 0.0:
        raise ValueError("cannot normalize an all-zero matrix")
    return data / peak


def process_recording(
    rec: Recording,
    filter_spec: FilterSpec,
    pattern: GaussianMixturePattern,
    array: ArrayConfig,
    grid_deg=None,
    *,
    k_sigma: float = 5.0,
    pre_margin_s: float = 5e-9,
    post_margin_s: float = 20e-9,
) -> PipelineResult:
    """Bandpass, intercept the pulse, normalize, estimate the direction.

    The recording must carry one channel per array element. Detection
    failures (``NoPulseFoundError``) propagate to the caller.
    """
    if rec.n_channels != array.n_elements:
        raise ValueError(
            f"recording has {rec.n_channels} channels but the array has "
            f"{array.n_elements} elements"
        )
    filtered = bandpass(rec, filter_spec)
    window = detect_pulse(
        filtered, k_sigma, pre_margin_s=pre_margin_s, post_margin_s=post_margin_s
    )
    snapshots = normalize_bipolar(filtered.channels[:, window.start : window.stop])
    estimate = estimate_doa(snapshots, pattern, array, grid_deg)
    return PipelineResult(
        estimate=estimate,
        window=window,
        rate_hz=rec.rate_hz,
        filter_band_hz=(filter_spec.low_hz, filter_spec.high_hz),
        n_elements=array.n_elements,
    )
