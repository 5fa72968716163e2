"""Synthetic discharge pulses and multichannel snapshot generation.

The source is a damped oscillation s(t) = A (exp(-t/tau_decay) -
exp(-t/tau_rise)) cos(2 pi f_c t). Each array element receives the same
waveform scaled by its gain, giving a rank-1 clean snapshot matrix, to
which white Gaussian noise is added at a prescribed SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _integer, _number

__all__ = [
    "PulseModel",
    "SamplingSpec",
    "DEFAULT_PULSE",
    "DEFAULT_SAMPLING",
    "pd_pulse",
    "synthesize_clean",
    "add_awgn",
]


@dataclass(frozen=True)
class PulseModel:
    """Damped-oscillation pulse parameters.

    ``decay_s`` must exceed ``rise_s``; both exponentials cancel at t=0,
    so the waveform starts at exactly zero.
    """

    amplitude: float = 1.0
    decay_s: float = 1.0e-9
    rise_s: float = 0.2e-9
    carrier_hz: float = 1.25e9

    def __post_init__(self):
        for name in ("amplitude", "decay_s", "rise_s", "carrier_hz"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if not (0.0 < self.rise_s < self.decay_s):
            raise ValueError(
                f"need decay_s > rise_s > 0, got decay={self.decay_s}, rise={self.rise_s}"
            )
        if self.carrier_hz <= 0.0:
            raise ValueError(f"carrier_hz must be > 0, got {self.carrier_hz}")


@dataclass(frozen=True)
class SamplingSpec:
    """Sample rate and record length for synthesized snapshots."""

    rate_hz: float = 10.0e9
    n_samples: int = 15360

    def __post_init__(self):
        object.__setattr__(self, "rate_hz", _number("rate_hz", self.rate_hz))
        object.__setattr__(self, "n_samples", _integer("n_samples", self.n_samples))
        if self.rate_hz <= 0.0:
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")


DEFAULT_PULSE = PulseModel()
DEFAULT_SAMPLING = SamplingSpec()

# exp(-x) rounds to 0.0 for every x above about 745.13.
_EXP_ZERO = 746.0


def pd_pulse(model: PulseModel = DEFAULT_PULSE, spec: SamplingSpec = DEFAULT_SAMPLING) -> np.ndarray:
    """Sample the damped-oscillation pulse.

    Returns ``spec.n_samples`` samples at ``spec.rate_hz`` starting at
    t=0. The sample rate must exceed twice the carrier frequency so the
    oscillation is represented.
    """
    if spec.rate_hz <= 2.0 * model.carrier_hz:
        raise ValueError(
            f"rate_hz={spec.rate_hz} must exceed twice the carrier {model.carrier_hz}"
        )
    t = np.arange(spec.n_samples) / spec.rate_hz
    # From _EXP_ZERO time constants on an exponential is exactly 0.0, and
    # exp is several times slower on that underflowing range, so each
    # exponential is evaluated only before it and the pulse is 0 after.
    live = t.searchsorted(_EXP_ZERO * model.decay_s)
    rising = t.searchsorted(_EXP_ZERO * model.rise_s)
    t = t[:live]
    envelope = np.exp(-t / model.decay_s)
    envelope[:rising] -= np.exp(-t[:rising] / model.rise_s)
    pulse = np.zeros(spec.n_samples)
    pulse[:live] = model.amplitude * envelope * np.cos(2.0 * np.pi * model.carrier_hz * t)
    return pulse


def synthesize_clean(gains, pulse) -> np.ndarray:
    """Clean multichannel snapshot matrix: row k is gains[k] * pulse.

    The result is rank 1 by construction (outer product).
    """
    g = np.asarray(gains, dtype=float)
    s = np.asarray(pulse, dtype=float)
    if g.ndim != 1 or s.ndim != 1:
        raise ValueError("gains and pulse must be 1-D")
    return np.outer(g, s)


def add_awgn(x, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise at a given SNR in dB.

    One noise variance is used for all channels and samples:
    sigma^2 = P / 10^(snr_db/10) with P the mean square of all entries
    of the clean input. Low-gain channels therefore sink below the noise
    first as the SNR drops.
    """
    clean = np.asarray(x, dtype=float)
    power = float(np.mean(clean**2))
    if power == 0.0:
        raise ValueError("input has zero power; SNR is undefined")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    # rng.normal(0, sigma) is 0 + sigma * z over the same draws, so one
    # buffer gives the same bits without a second N x T temporary.
    noisy = rng.standard_normal(clean.shape)
    noisy *= sigma
    noisy += clean
    return noisy
