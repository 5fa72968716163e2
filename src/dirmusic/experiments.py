"""Monte Carlo accuracy studies: SNR, manifold error, and element count.

Each trial draws a direction uniformly from [1, 360] degrees,
synthesizes the multichannel pulse through the (optionally perturbed)
gain manifold, adds noise at the configured SNR, and reduces the record
to its sample covariance, which the estimator that ``estimate_doa``
runs, :func:`~dirmusic.estimator.estimate_from_covariance`, estimates
on the nominal manifold; a single trial is a batch of one. A master
seed is split into independent per-trial seeds, so runs are
reproducible and trials could be executed in any order or in parallel.

Every setting of a sweep reuses the master seed, and a trial draws its
direction, then its gain error (only when the error is nonzero), then
its noise; none of these draws depends on the SNR or on the size of a
nonzero error. So the settings that share the array layout and either
have zero error or all have nonzero error draw the same variates, and a
sweep runs them as one group: each trial builds one noisy record, for
its noisiest setting, and the others' covariances follow from it to
rounding. Estimates match :func:`run_batch` on each setting alone unless
a spectrum peak is within rounding of a tie (0 of 72,000 acceptance ones).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import angular_error, default_grid, estimate_from_covariance, sample_covariance
from ._checks import _integer, _number
from .manifold import ArrayConfig, manifold_matrix, perturb, reject_blind, steering_vector
from .pattern import DEFAULT_PATTERN, GaussianMixturePattern
from .signal import (
    DEFAULT_PULSE,
    DEFAULT_SAMPLING,
    PulseModel,
    SamplingSpec,
    add_awgn,
    pd_pulse,
    synthesize_clean,
)

__all__ = [
    "DEFAULT_SEED",
    "TrialConfig",
    "TrialBatch",
    "SummaryStats",
    "SweepRow",
    "SweepReport",
    "run_trial",
    "run_batch",
    "run_snr_sweep",
    "run_manifold_error_sweep",
    "run_element_sweep",
    "summarize",
]

#: Default master seed; documented so published runs are reproducible.
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class TrialConfig:
    """Settings shared by every trial of a batch.

    ``offsets_deg`` overrides the uniform layout when set (e.g. the
    four-element 60-degree subset). ``manifold_error`` is the half width
    of the uniform per-element gain error applied when synthesizing.
    """

    n_elements: int = 6
    snr_db: float = 10.0
    manifold_error: float = 0.0
    n_trials: int = 3600
    grid_step_deg: float = 1.0
    seed: int = DEFAULT_SEED
    success_threshold_deg: float = 2.0
    offsets_deg: tuple[float, ...] | None = None
    pattern: GaussianMixturePattern = DEFAULT_PATTERN
    pulse: PulseModel = DEFAULT_PULSE
    sampling: SamplingSpec = DEFAULT_SAMPLING
    # Opt-in reconstruction of the published counting protocol: draw
    # whole-degree directions and count |error| == threshold as success.
    # The default (continuous directions, strict comparison) is the
    # cleaner statistical protocol; see the README for how the two
    # relate to the reference accuracy tables.
    integer_directions: bool = False
    inclusive_success: bool = False

    def __post_init__(self):
        for name in ("n_elements", "n_trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("snr_db", "manifold_error", "success_threshold_deg", "grid_step_deg"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not 0.0 < self.grid_step_deg <= 360.0:
            raise ValueError(f"grid_step_deg must be in (0, 360], got {self.grid_step_deg}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.success_threshold_deg <= 0.0:
            raise ValueError(
                f"success_threshold_deg must be > 0, got {self.success_threshold_deg}"
            )
        if self.manifold_error < 0.0:
            raise ValueError(f"manifold_error must be >= 0, got {self.manifold_error}")
        array = self.array()  # also validates the layout
        if self.offsets_deg is not None:  # as the array's floats, in a hashable tuple
            object.__setattr__(self, "offsets_deg", array.offsets_deg)
        if array.n_elements != self.n_elements:
            raise ValueError(
                f"offsets_deg has {array.n_elements} entries but n_elements is {self.n_elements}"
            )

    def array(self) -> ArrayConfig:
        if self.offsets_deg is not None:
            return ArrayConfig(self.offsets_deg)
        return ArrayConfig.uniform(self.n_elements)


@dataclass(frozen=True)
class TrialBatch:
    """Outcomes of simulated direction-finding runs, one array entry per
    trial: angles and errors in degrees, and a boolean success flag.
    Batches are equal when every array holds the same values."""

    theta_true_deg: np.ndarray
    theta_hat_deg: np.ndarray
    error_deg: np.ndarray
    success: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, TrialBatch):
            return NotImplemented
        pairs = zip(vars(self).values(), vars(other).values())
        return all(np.array_equal(a, b) for a, b in pairs)


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate error statistics; variance is the population variance."""

    n: int
    accuracy: float
    mean: float
    variance: float
    std: float
    min: float
    max: float


# Callers may keep the rows of many sweeps (perfbench's mc_study keeps
# every pass's), so a row holds only the figures they pool, in slots.
@dataclass(frozen=True, slots=True)
class SweepRow:
    """One setting of a sweep with the figures that runs are pooled by.
    ``summarize`` of the setting's batch gives every other statistic."""

    setting: float
    accuracy: float
    mean_err: float
    std_err: float
    n_trials: int


@dataclass(frozen=True)
class SweepReport:
    """Results of a parameter sweep: per setting, one row of aggregated
    statistics and the :class:`TrialBatch` it was computed from."""

    rows: tuple[SweepRow, ...]
    batches: tuple[TrialBatch, ...]


def _setting_gains(nominal, cfgs, rng) -> np.ndarray:
    """One trial's gains, a row per setting of a group. A group of nonzero
    widths draws one set of uniforms, which every row takes, only scaled,
    so the noise draw starts after them; a group of zero widths draws none."""
    if not any(setting.manifold_error for setting in cfgs):
        return np.array([nominal] * len(cfgs))
    return perturb(nominal, np.array([[setting.manifold_error] for setting in cfgs]), rng)


def _lift(x) -> np.ndarray:
    """``x`` scaled up by a power of two to a peak in [0.5, 1) when it peaks
    below 2**-128, else ``x`` itself. The noise is set relative to the
    record, so a lifted pulse or gain vector changes no estimate, but the
    record's power and covariance would otherwise underflow to zero. The
    built-in pattern and pulse peak far above the bound, so their records
    keep every bit."""
    exponent = np.frexp(np.abs(x).max())[1]
    return np.ldexp(x, -exponent) if exponent < -128 else x


def _expand(covariances, gains, ref, noise_power, projection, pulse_power) -> None:
    """Turn ``covariances``, each R_r of the noisiest setting ``ref``, into
    every setting's covariance, given ``projection`` p = X_r s / T.

    X_s = h s^T + a X_r with a = sigma_s / sigma_r <= 1 and h = g_s - a g_r,
    so R_s = mean(s^2) h h^T + a (h p^T + p h^T) + a^2 R_r: O(N^2), no term
    outgrows R_s, R_s is symmetric bit for bit as R_r is, and R_r stays.
    """
    a = np.sqrt(noise_power / noise_power[ref])[:, None, None]
    h = gains - a[:, 0] * gains[ref]
    hp, rank1 = h[:, :, None] * projection, h[:, :, None] * h[:, None, :]
    covariances *= a * a
    covariances += pulse_power * rank1 + a * (hp + np.swapaxes(hp, 1, 2))


def _run_trials(cfgs, thetas, rngs, pulse) -> list[TrialBatch]:
    """Simulate one trial per direction in ``thetas`` under each setting
    in ``cfgs``; trial j draws from ``rngs[j]``. Returns one batch per setting.

    The settings must share one stream (:func:`_stream_key`). The grid,
    array, manifold and steering vectors are built once, and a direction
    where every element is blind fails here, before the first trial
    (:func:`~dirmusic.manifold.reject_blind`). A tiny pulse or gain
    vector is lifted (:func:`_lift`). Each trial draws
    its gain error (only when nonzero) and then its noise once for all the
    settings, builds the noisy record of its noisiest setting (largest
    |g|^2 / 10^(snr/10)) and reduces it to its covariance and projection
    on the pulse (:func:`_expand` gives the others), so at most two
    (N, T) records, clean and noisy, are alive. One call of
    :func:`estimate_from_covariance` estimates the trial's stack of
    covariances on the nominal manifold (synthesis uses the perturbed
    gains), and only its angles are kept. Errors and success flags are
    then taken for all settings at once.
    """
    cfg = cfgs[0]
    grid = default_grid(cfg.grid_step_deg)
    array = cfg.array()
    manifold = manifold_matrix(cfg.pattern, array, grid)
    theta_true = np.asarray(thetas, dtype=float)
    steering = steering_vector(cfg.pattern, array, theta_true)
    reject_blind(cfg.pattern, array, grid, manifold.T)
    reject_blind(cfg.pattern, array, theta_true, steering)
    snr_db = np.array([setting.snr_db for setting in cfgs])
    # noise power per unit gain power, <= 1 so a wide span cannot overflow
    noise_scale = 10.0 ** ((snr_db.min() - snr_db) / 10.0)
    pulse = _lift(pulse)
    pulse_power = np.mean(pulse**2)

    n = array.n_elements
    theta_hat = np.empty((len(cfgs), len(rngs)))
    covariances = np.empty((len(cfgs), n, n))
    for j, rng in enumerate(rngs):
        gains = _lift(_setting_gains(steering[j], cfgs, rng))
        noise_power = np.einsum("sn,sn->s", gains, gains) * noise_scale
        ref = int(np.argmax(noise_power))  # the noisiest setting
        clean = synthesize_clean(gains[ref], pulse)
        noisy = add_awgn(clean, cfgs[ref].snr_db, rng)
        covariances[:] = sample_covariance(noisy)
        if len(cfgs) > 1:
            _expand(covariances, gains, ref, noise_power, noisy @ pulse / pulse.size, pulse_power)
        del noisy  # freed before the next trial builds its clean record
        theta_hat[:, j] = estimate_from_covariance(covariances, manifold, grid).angle_deg

    error = angular_error(theta_hat, theta_true)
    compare = np.less_equal if cfg.inclusive_success else np.less
    success = compare(np.abs(error), cfg.success_threshold_deg)
    return [TrialBatch(theta_true, *fields) for fields in zip(theta_hat, error, success)]


def run_trial(cfg: TrialConfig, theta_true_deg: float, rng: np.random.Generator) -> TrialBatch:
    """Simulate one direction-finding run from a given direction, as a
    batch of one; ``rng`` supplies the gain error and the noise."""
    return _run_trials([cfg], [theta_true_deg], [rng], pd_pulse(cfg.pulse, cfg.sampling))[0]


def _run_group(cfgs, pulse) -> list[TrialBatch]:
    """Run ``n_trials`` trials under each setting of a group that shares
    one stream, with directions drawn from U[1, 360]."""
    cfg = cfgs[0]
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials)
    rngs = [np.random.default_rng(child) for child in children]
    if cfg.integer_directions:
        thetas = [float(rng.integers(1, 361)) for rng in rngs]
    else:
        thetas = [rng.uniform(1.0, 360.0) for rng in rngs]
    return _run_trials(cfgs, thetas, rngs, pulse)


def run_batch(cfg: TrialConfig) -> TrialBatch:
    """Run ``cfg.n_trials`` trials with directions drawn from U[1, 360].

    The master seed is split into one child seed per trial; trial j is
    fully determined by (cfg, j): its generator draws the direction
    first, then whatever :func:`run_trial` draws.
    """
    return _run_group([cfg], pd_pulse(cfg.pulse, cfg.sampling))[0]


def summarize(batch: TrialBatch) -> SummaryStats:
    """Aggregate statistics of a :class:`TrialBatch`.

    Accuracy is the mean of the per-trial success flags, so it honors
    the configured success comparison.
    """
    err = batch.error_deg
    if err.size == 0:
        raise ValueError("cannot summarize an empty batch")
    return SummaryStats(
        n=int(err.size),
        accuracy=float(np.mean(batch.success)),
        mean=float(err.mean()),
        variance=float(err.var()),
        std=float(err.std()),
        min=float(err.min()),
        max=float(err.max()),
    )


def _stream_key(cfg: TrialConfig) -> TrialConfig:
    """Settings with equal keys draw the same variates in every trial:
    they may differ only in SNR and in the size of a nonzero gain error."""
    return replace(cfg, snr_db=0.0, manifold_error=float(cfg.manifold_error > 0.0))


def _sweep(name: str, cfgs: list[TrialConfig]) -> SweepReport:
    """Run every setting, one group per stream, and report them in order."""
    if not cfgs:
        raise ValueError(f"a {name} sweep needs at least one setting")
    groups: dict = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_stream_key(cfg), []).append(i)
    pulse = pd_pulse(cfgs[0].pulse, cfgs[0].sampling)
    batches = [None] * len(cfgs)
    for indices in groups.values():
        for i, batch in zip(indices, _run_group([cfgs[i] for i in indices], pulse)):
            batches[i] = batch
    rows = []
    for cfg, batch in zip(cfgs, batches):
        stats = summarize(batch)
        rows.append(
            SweepRow(
                setting=float(getattr(cfg, name)),
                accuracy=stats.accuracy,
                mean_err=stats.mean,
                std_err=stats.std,
                n_trials=stats.n,
            )
        )
    return SweepReport(rows=tuple(rows), batches=tuple(batches))


def run_snr_sweep(cfg: TrialConfig, snr_db_list) -> SweepReport:
    """Accuracy versus SNR. Every setting reuses the seed and the gain
    error, so all of them draw the same variates: each trial draws its
    noise once for the whole sweep. Each setting matches :func:`run_batch`
    on that setting alone, as the module docstring says."""
    return _sweep("snr_db", [replace(cfg, snr_db=v) for v in snr_db_list])


def run_manifold_error_sweep(cfg: TrialConfig, half_width_list) -> SweepReport:
    """Accuracy versus uniform gain-error half width at fixed SNR.

    Every nonzero width takes the same N uniforms, only scaled, so the
    settings with a nonzero width draw the same variates, and a zero
    width, which draws no uniforms, shares with other zero widths only.
    Each setting matches :func:`run_batch` on that setting alone, as the
    module docstring says."""
    return _sweep("manifold_error", [replace(cfg, manifold_error=v) for v in half_width_list])


def run_element_sweep(cfg: TrialConfig, n_elements_list) -> SweepReport:
    """Accuracy versus element count; the uniform layout is re-derived
    for every count (explicit offsets are dropped). The element count
    sets the shape of the noise draw, so different counts share no draws."""
    return _sweep(
        "n_elements", [replace(cfg, n_elements=v, offsets_deg=None) for v in n_elements_list]
    )
