"""Monte Carlo accuracy studies: SNR, manifold error, and element count.

Each trial draws a direction uniformly from [1, 360] degrees,
synthesizes the multichannel pulse through the (optionally perturbed)
gain manifold, adds noise at the configured SNR, and reduces the record
to its sample covariance. The directions of a whole batch are then
estimated together with the nominal manifold; a single trial is a batch
of one. A master seed is split into independent per-trial seeds, so
runs are reproducible and trials could be executed in any order or in
parallel.

Every setting of a sweep reuses the master seed, and a trial draws its
direction, then its gain error (only when the error is nonzero), then
its noise; none of these draws depends on the SNR or on the size of a
nonzero error. So the settings that share the array layout and either
have zero error or all have nonzero error draw the same variates, and a
sweep runs them as one group: each trial draws its noise once, and only
the scaling, covariance and eigendecomposition are repeated for every
setting. Every result is bit-identical to :func:`run_batch` on that
setting alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import (
    angular_error,
    default_grid,
    eig_sym,
    noise_subspace,
    sample_covariance,
    spatial_spectrum,
)
from ._checks import _integer, _number
from .manifold import ArrayConfig, manifold_matrix, perturb, steering_vector
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

# Trials per spectrum scan: the scan holds a (block, N - 1, grid) array,
# about 6.6 MB at 10 elements on the 1-degree grid, whatever the batch.
_SCAN_BLOCK = 256


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


class _SharedStream:
    """A trial's generator as each setting of a group sees it.

    Every setting gets the same variates. Before each gain-error draw
    the generator goes back to the state that the first one started
    from; the width of the error only scales the uniforms. The (N, T)
    normals are drawn once and handed to every setting, as a copy for all
    but the last, because ``add_awgn`` scales its buffer in place.
    """

    def __init__(self, rng: np.random.Generator, n_settings: int):
        self._rng = rng
        self._uses_left = n_settings
        self._state = None
        self._normals = None

    def uniform(self, low, high, size):
        if self._state is None:
            self._state = self._rng.bit_generator.state
        else:
            self._rng.bit_generator.state = self._state
        return self._rng.uniform(low, high, size)

    def standard_normal(self, shape):
        if self._normals is None:
            self._normals = self._rng.standard_normal(shape)
        self._uses_left -= 1
        return self._normals if self._uses_left == 0 else self._normals.copy()


def _run_trials(cfgs, thetas, rngs) -> list[TrialBatch]:
    """Simulate one trial per direction in ``thetas`` under each setting
    in ``cfgs``; trial j draws from ``rngs[j]``. Returns one batch per setting.

    The settings must share one stream (:func:`_stream_key`). The grid,
    array, manifold, pulse and steering vectors are built once. Each
    trial then draws from its own generator in a fixed order, the gain
    error (only when the error is nonzero) and then the noise, once for
    all the settings; the clean record is rebuilt only when the error
    changes. Each setting keeps only the noise subspace of its sample
    covariance, so at most three (N, T) records are alive: the noise
    draw, the clean record and the noisy one. The spectrum is then
    scanned over each setting's stack in blocks of ``_SCAN_BLOCK`` trials,
    so the memory it takes does not grow with the batch; synthesis uses
    the (optionally perturbed) gain vector, the scan the nominal manifold.
    """
    cfg = cfgs[0]
    grid = default_grid(cfg.grid_step_deg)
    array = cfg.array()
    manifold = manifold_matrix(cfg.pattern, array, grid)
    pulse_samples = pd_pulse(cfg.pulse, cfg.sampling)
    theta_true = np.asarray(thetas, dtype=float)
    steering = steering_vector(cfg.pattern, array, theta_true)

    n = array.n_elements
    noise = np.empty((len(cfgs), len(rngs), n, n - 1))
    for j, rng in enumerate(rngs):
        stream = rng if len(cfgs) == 1 else _SharedStream(rng, len(cfgs))
        gain_error = None
        for s, setting in enumerate(cfgs):
            if setting.manifold_error != gain_error:
                gain_error = setting.manifold_error
                gains = steering[j]
                if gain_error > 0.0:
                    gains = perturb(gains, gain_error, stream)
                clean = synthesize_clean(gains, pulse_samples)
            covariance = sample_covariance(add_awgn(clean, setting.snr_db, stream))
            # eig_sym would take the whole covariance stack in one call, with
            # equal results; perfbench's tracer test counts one call per trial.
            noise[s, j] = noise_subspace(eig_sym(covariance))

    batches = []
    for s, setting in enumerate(cfgs):
        peaks = np.empty(len(rngs), dtype=np.intp)
        for start in range(0, len(rngs), _SCAN_BLOCK):
            block = slice(start, start + _SCAN_BLOCK)
            # argmax takes the first (smallest) angle on ties
            peaks[block] = np.argmax(spatial_spectrum(noise[s, block], manifold), axis=-1)
        theta_hat = grid[peaks]
        error = angular_error(theta_hat, theta_true)
        compare = np.less_equal if setting.inclusive_success else np.less
        success = compare(np.abs(error), setting.success_threshold_deg)
        batches.append(TrialBatch(theta_true, theta_hat, error, success))
    return batches


def run_trial(cfg: TrialConfig, theta_true_deg: float, rng: np.random.Generator) -> TrialBatch:
    """Simulate one direction-finding run from a given direction, as a
    batch of one; ``rng`` supplies the gain error and the noise."""
    return _run_trials([cfg], [theta_true_deg], [rng])[0]


def _run_group(cfgs) -> list[TrialBatch]:
    """Run ``n_trials`` trials under each setting of a group that shares
    one stream, with directions drawn from U[1, 360]."""
    cfg = cfgs[0]
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials)
    rngs = [np.random.default_rng(child) for child in children]
    if cfg.integer_directions:
        thetas = [float(rng.integers(1, 361)) for rng in rngs]
    else:
        thetas = [rng.uniform(1.0, 360.0) for rng in rngs]
    return _run_trials(cfgs, thetas, rngs)


def run_batch(cfg: TrialConfig) -> TrialBatch:
    """Run ``cfg.n_trials`` trials with directions drawn from U[1, 360].

    The master seed is split into one child seed per trial; trial j is
    fully determined by (cfg, j): its generator draws the direction
    first, then whatever :func:`run_trial` draws.
    """
    return _run_group([cfg])[0]


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
    batches = [None] * len(cfgs)
    for indices in groups.values():
        for i, batch in zip(indices, _run_group([cfgs[i] for i in indices])):
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
    noise once for the whole sweep. Each setting's batch is bit-identical
    to :func:`run_batch` on that setting alone."""
    return _sweep("snr_db", [replace(cfg, snr_db=v) for v in snr_db_list])


def run_manifold_error_sweep(cfg: TrialConfig, half_width_list) -> SweepReport:
    """Accuracy versus uniform gain-error half width at fixed SNR.

    Every nonzero width takes the same N uniforms, only scaled, so the
    settings with a nonzero width draw the same variates, and a zero
    width, which draws no uniforms, shares with other zero widths only.
    Each setting's batch is bit-identical to :func:`run_batch` on that
    setting alone."""
    return _sweep("manifold_error", [replace(cfg, manifold_error=v) for v in half_width_list])


def run_element_sweep(cfg: TrialConfig, n_elements_list) -> SweepReport:
    """Accuracy versus element count; the uniform layout is re-derived
    for every count (explicit offsets are dropped). The element count
    sets the shape of the noise draw, so different counts share no draws."""
    return _sweep(
        "n_elements", [replace(cfg, n_elements=v, offsets_deg=None) for v in n_elements_list]
    )
