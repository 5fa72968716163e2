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
from dataclasses import dataclass

import numpy as np

from .estimator import DoaEstimate, estimate_doa
from ._checks import _integer, _number
from .manifold import ArrayConfig
from .pattern import GaussianMixturePattern

__all__ = [
    "DEFAULT_K_SIGMA",
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


#: Detection threshold in noise standard deviations, the default of
#: detect_pulse, process_recording and the CLI's --k-sigma.
DEFAULT_K_SIGMA = 5.0

#: Window margins around the detected peak, before and after it.
_PRE_MARGIN_S = 5e-9
_POST_MARGIN_S = 20e-9


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
        object.__setattr__(self, "low_hz", _number("low_hz", self.low_hz))
        object.__setattr__(self, "high_hz", _number("high_hz", self.high_hz))
        object.__setattr__(self, "n_taps", _integer("n_taps", self.n_taps))
        if not 0.0 < self.low_hz < self.high_hz:
            raise ValueError(f"need 0 < low_hz < high_hz, got {self.low_hz}, {self.high_hz}")
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


#: Bytes of block spectra and inverse blocks that ``bandpass`` holds at once.
_GROUP_BYTES = 1 << 20


def _block_plan(n_channels: int, n_samples: int, n_taps: int) -> tuple[int, int, int]:
    """``(n_fft, n_blocks, group)`` of the overlap-add in ``bandpass``.

    The record is cut into ``n_blocks`` blocks of ``n_fft - n_taps + 1``
    samples, transformed ``group`` blocks at a time: as many as fit in
    ``_GROUP_BYTES`` of spectra and inverse blocks, at least one and at
    most all of them.
    """
    n_fft = _fft_length(n_samples, n_taps)
    n_blocks = -(-n_samples // (n_fft - n_taps + 1))
    block_bytes = n_channels * (2 * n_fft + 2) * 8
    return n_fft, n_blocks, max(1, min(n_blocks, _GROUP_BYTES // block_bytes))


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

    The blocks go through in groups of about ``_GROUP_BYTES`` (see
    ``_block_plan``). One buffer per call holds the C-contiguous output,
    one group's spectra and inverse blocks, and the spill carried into
    the next group; each group's stretch of the full convolution is
    assembled over its spent spectra and copied into the output. So a
    call takes its output plus a scratch that does not grow with the
    record (557 KB at 4 x 200k / 1001 taps), and a short record is one
    block in one buffer (491 KB at 4 x 4096 / 1001 taps, 131 KB of it
    output). One dominant buffer keeps repeated calls from faulting:
    glibc returns a freed heap top to the system only once it reaches
    twice the largest mapped chunk freed so far. The returned channels
    are a view of that buffer, so a kept result holds the scratch too;
    ``.copy()`` the channels to keep only the output.
    """
    n_taps = spec.n_taps
    x = rec.channels
    n_channels, n_samples = x.shape
    if n_samples < n_taps:
        raise ValueError(f"record length {n_samples} is shorter than the kernel ({n_taps})")
    n_fft, n_blocks, group = _block_plan(n_channels, n_samples, n_taps)
    kernel_spectrum = np.fft.rfft(spec.kernel(rec.rate_hz), n_fft)
    spill = n_taps - 1
    delay = spill // 2
    step = n_fft - spill
    n_bins = n_fft // 2 + 1
    # The output, then the group's spectra, its inverse blocks and the
    # spill carried to the next group, in one buffer.
    n_out = n_channels * n_samples
    n_spectra = n_channels * group * 2 * n_bins
    buf = np.empty(n_out + n_spectra + n_channels * (group * n_fft + spill))
    out = buf[:n_out].reshape(n_channels, n_samples)
    spectra_buf = buf[n_out : n_out + n_spectra]
    blocks_buf = buf[n_out + n_spectra : buf.size - n_channels * spill]
    carry = buf[buf.size - n_channels * spill :].reshape(n_channels, spill)
    for first in range(0, n_blocks, group):
        last = min(first + group, n_blocks)
        size = last - first
        spectra = spectra_buf[: n_channels * size * 2 * n_bins]
        spectra = spectra.view(complex).reshape(n_channels, size, n_bins)
        blocks = blocks_buf[: n_channels * size * n_fft].reshape(n_channels, size, n_fft)
        # Every block but the record's last is whole; the last holds the
        # 1..step samples left over.
        whole = min(last, n_blocks - 1) - first
        if whole:
            head = x[:, first * step : (first + whole) * step]
            np.fft.rfft(head.reshape(n_channels, whole, step), n_fft, out=spectra[:, :whole])
        if whole < size:
            np.fft.rfft(x[:, (n_blocks - 1) * step :], n_fft, out=spectra[:, -1])
        # Row by row: a broadcast multiply would allocate numpy's buffer.
        for row in spectra.reshape(-1, n_bins):
            row *= kernel_spectrum
        np.fft.irfft(spectra, n_fft, out=blocks)
        # The group's stretch of the full convolution, over the spent
        # spectra: each block's first step samples, the last block's
        # spill, every other spill added onto the head of the next
        # block, and the previous group's spill onto the first head.
        full = spectra_buf[: n_channels * (size * step + spill)]
        full = full.reshape(n_channels, size * step + spill)
        full[:, : size * step].reshape(n_channels, size, step)[...] = blocks[:, :, :step]
        full[:, size * step :] = blocks[:, -1, step:]
        later = full[:, step : size * step].reshape(n_channels, size - 1, step)
        later[:, :, :spill] += blocks[:, :-1, step:]
        if first:
            full[:, :spill] += carry
        carry[...] = full[:, size * step :]
        # Full convolution sample t is output sample t - delay. A spill
        # is complete only once the next group has added its head.
        start = first * step - delay
        stop = min(last * step + (spill if last == n_blocks else 0) - delay, n_samples)
        out[:, max(start, 0) : stop] = full[:, max(-start, 0) : stop - start]
    # A finite record filters to finite samples, short of overflow near
    # the float64 limit, which detect_pulse rejects; so the result skips
    # Recording's validation pass.
    filtered = object.__new__(Recording)
    filtered.__dict__.update(rate_hz=rec.rate_hz, channels=out)
    return filtered


def detect_pulse(rec: Recording, k_sigma: float = DEFAULT_K_SIGMA) -> PulseWindow:
    """Locate the strongest pulse and return a window around it.

    The global maximum magnitude across channels marks the pulse; the
    detection threshold is k_sigma times the noise standard deviation
    estimated from the first 10% of that channel (which assumes the
    pulse does not sit at the very start of the record). With several
    pulses present, the largest one wins. The window runs from
    ``_PRE_MARGIN_S`` before the peak to ``_POST_MARGIN_S`` after it,
    clipped to the record.

    Raises:
        NoPulseFoundError: peak magnitude below the threshold (or an
            all-zero record).
        ValueError: ``k_sigma`` not finite and > 0, or a non-finite
            sample, which ``bandpass`` leaves when a record near the
            float64 limit overflows.
    """
    if _number("k_sigma", k_sigma) <= 0.0:
        raise ValueError(f"k_sigma must be > 0, got {k_sigma}")
    data = rec.channels
    # The largest magnitude is the largest or the smallest sample; on a
    # tie the earlier one in flat (channel, sample) order wins, as it
    # would for argmax(|data|), with no record-sized |data| built.
    flat_peak = min(
        (int(np.argmax(data)), int(np.argmin(data))),
        key=lambda i: (-abs(float(data.flat[i])), i),
    )
    channel, peak_idx = np.unravel_index(flat_peak, data.shape)
    peak = abs(float(data[channel, peak_idx]))
    # argmax and argmin return a NaN or an infinity whenever the record
    # holds one, so any non-finite sample shows here.
    if not math.isfinite(peak):
        raise ValueError(f"record has a non-finite sample ({peak}) in channel {channel}")

    head = data[channel, : max(2, rec.n_samples // 10)]
    threshold = k_sigma * float(np.std(head))
    if peak <= 0.0 or peak < threshold:
        raise NoPulseFoundError(
            f"peak magnitude {peak:.3g} below detection threshold {threshold:.3g}"
        )

    pre = int(round(_PRE_MARGIN_S * rec.rate_hz))
    post = int(round(_POST_MARGIN_S * rec.rate_hz))
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
    k_sigma: float = DEFAULT_K_SIGMA,
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
    window = detect_pulse(filtered, k_sigma)
    snapshots = normalize_bipolar(filtered.channels[:, window.start : window.stop])
    return PipelineResult(estimate=estimate_doa(snapshots, pattern, array, grid_deg), window=window)
