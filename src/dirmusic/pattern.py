"""Directional antenna gain patterns modeled as sums of Gaussian lobes.

A single element's azimuth gain is represented as g(theta) = sum_i
a_i * exp(-((theta - b_i) / c_i)^2) with theta in degrees. The module
provides evaluation with angular wrap-around and a bounded least-squares
fitter (scipy's trust-region reflective ``least_squares``) that recovers
the lobe parameters from measured (angle, gain) samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianComponent",
    "GaussianMixturePattern",
    "PatternFit",
    "DEFAULT_PATTERN",
    "wrap_angle",
    "eval_pattern",
    "fit_pattern",
    "gaussian_sum",
    "gaussian_sum_jacobian",
]

# Fit bounds: amplitudes stay physical, widths stay wide enough to keep
# the Jacobian well conditioned.
_MIN_WIDTH_DEG = 1.0
_MAX_CENTER_DEG = 360.0 - 1e-9


def wrap_angle(theta_deg):
    """Reduce an angle in degrees to the canonical interval [0, 360).

    Accepts scalars or arrays. Raises ValueError on non-finite input.
    """
    theta = np.asarray(theta_deg, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("angle must be finite")
    wrapped = np.mod(theta, 360.0)
    # mod can round up to exactly 360.0 for tiny negative inputs
    wrapped = np.where(wrapped >= 360.0, wrapped - 360.0, wrapped)
    if np.ndim(theta_deg) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian lobe a * exp(-((theta - b) / c)^2) of a gain pattern.

    Attributes:
        amplitude: lobe weight a, dimensionless, >= 0.
        center_deg: lobe center b in degrees, in [0, 360).
        width_deg: lobe width c in degrees, > 0.
    """

    amplitude: float
    center_deg: float
    width_deg: float

    def __post_init__(self):
        for name in ("amplitude", "center_deg", "width_deg"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not (np.isfinite(self.center_deg) and 0.0 <= self.center_deg < 360.0):
            raise ValueError(f"center_deg must lie in [0, 360), got {self.center_deg}")
        if not (np.isfinite(self.width_deg) and self.width_deg > 0.0):
            raise ValueError(f"width_deg must be finite and > 0, got {self.width_deg}")


@dataclass(frozen=True)
class GaussianMixturePattern:
    """Azimuth gain pattern as an ordered sum of Gaussian lobes.

    Evaluation wraps the angle into [0, 360) first. The Gaussian sum
    itself is not periodic, so g(0) and g(360 - eps) differ slightly;
    this small seam is an accepted property of the model.
    """

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("pattern needs at least one component")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_params(cls, params) -> "GaussianMixturePattern":
        """Build a pattern from a (k, 3) array of (amplitude, center, width) rows."""
        rows = np.asarray(params, dtype=float).reshape(-1, 3)
        return cls(tuple(GaussianComponent(*row) for row in rows))

    def as_params(self) -> np.ndarray:
        """Return the (k, 3) array of (amplitude, center, width) rows."""
        return np.array(
            [(c.amplitude, c.center_deg, c.width_deg) for c in self.components]
        )


#: Three-lobe fit of the measured directional spiral element at 1.25 GHz,
#: used as the built-in pattern for simulations and as the CLI preset.
DEFAULT_PATTERN = GaussianMixturePattern(
    (
        GaussianComponent(0.5255, 218.1, 51.73),
        GaussianComponent(0.3405, 304.8, 41.0),
        GaussianComponent(0.6251, 156.1, 109.1),
    )
)


def gaussian_sum(angles_deg, params) -> np.ndarray:
    """Evaluate a Gaussian sum at ``angles_deg`` for a flat parameter vector.

    ``params`` holds (a, b, c) triples concatenated. Angles are used as
    given (no wrapping); callers wrap beforehand.
    """
    p = np.asarray(params, dtype=float).reshape(-1, 3)
    x = np.asarray(angles_deg, dtype=float)
    d = x[..., None] - p[:, 1]
    return (p[:, 0] * np.exp(-((d / p[:, 2]) ** 2))).sum(axis=-1)


def gaussian_sum_jacobian(angles_deg, params) -> np.ndarray:
    """Analytic Jacobian of :func:`gaussian_sum` w.r.t. the flat parameters.

    Returns an (n_angles, 3k) matrix with columns ordered like the
    parameter vector (da, db, dc per component).
    """
    p = np.asarray(params, dtype=float).reshape(-1, 3)
    x = np.asarray(angles_deg, dtype=float).ravel()
    a, b, c = p.T
    d = x[:, None] - b
    e = np.exp(-((d / c) ** 2))
    jac = np.empty((x.size, p.size))
    jac[:, 0::3] = e
    jac[:, 1::3] = a * e * 2.0 * d / c**2
    jac[:, 2::3] = a * e * 2.0 * d**2 / c**3
    return jac


def eval_pattern(pattern: GaussianMixturePattern, theta_deg):
    """Evaluate the gain pattern at angles given in degrees.

    The angle is wrapped into [0, 360) first, so the result is invariant
    under adding full turns. Output is nonnegative.
    """
    theta = wrap_angle(theta_deg)
    values = gaussian_sum(theta, pattern.as_params().ravel())
    if np.ndim(theta_deg) == 0:
        return float(values)
    return values


@dataclass(frozen=True)
class PatternFit:
    """Result of :func:`fit_pattern`.

    Attributes:
        pattern: the fitted mixture.
        converged: True when the solver met one of its tolerances; False
            when the evaluation budget ran out first.
        n_iter: number of residual evaluations the solver used.
        residual: final sum of squared residuals.
    """

    pattern: GaussianMixturePattern
    converged: bool
    n_iter: int
    residual: float


def _initial_params(x: np.ndarray, y: np.ndarray, k: int, width_deg: float) -> np.ndarray:
    """Greedy residual-peak seeding.

    Places lobes one at a time at the largest remaining residual sample
    (amplitude from the residual there, default width), so overlapping
    bumps that do not show up as separate local maxima still receive a
    component each.
    """
    resid = y.astype(float).copy()
    rows = []
    for _ in range(k):
        j = int(np.argmax(resid))
        a0 = max(float(resid[j]), 1e-6)
        b0 = float(x[j])
        rows.append((a0, b0, width_deg))
        resid -= a0 * np.exp(-(((x - b0) / width_deg) ** 2))
    return np.asarray(rows, dtype=float).ravel()


def fit_pattern(
    angles_deg,
    gains,
    n_components: int = 3,
    *,
    max_iter: int = 200,
    init_width_deg: float = 60.0,
) -> PatternFit:
    """Fit a Gaussian mixture to measured (angle, gain) samples.

    Minimizes the sum of squared residuals with scipy's trust-region
    reflective least-squares solver and the analytic Jacobian, keeping
    amplitudes >= 0, centers in [0, 360) and widths >= 1 deg.

    Args:
        angles_deg: sample angles in degrees (wrapped internally).
        gains: measured gains, same length, all finite.
        n_components: number of Gaussian lobes to fit.
        max_iter: budget of residual evaluations.
        init_width_deg: width used when seeding lobes.

    Raises:
        ValueError: fewer than 3 * n_components samples, duplicated
            angles after wrapping, or non-finite gains.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    x = wrap_angle(np.asarray(angles_deg, dtype=float).ravel())
    y = np.asarray(gains, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("angles and gains must have the same length")
    if x.size < 3 * n_components:
        raise ValueError(
            f"need at least {3 * n_components} samples to fit "
            f"{n_components} components, got {x.size}"
        )
    if np.unique(x).size != x.size:
        raise ValueError("sample angles must be distinct after wrapping")
    if not np.all(np.isfinite(y)):
        raise ValueError("gains must be finite")
    # Imported here so that the rest of the package loads without scipy.
    from scipy.optimize import least_squares

    lower = np.tile([0.0, 0.0, _MIN_WIDTH_DEG], n_components)
    upper = np.tile([np.inf, _MAX_CENTER_DEG, np.inf], n_components)
    start = np.clip(_initial_params(x, y, n_components, init_width_deg), lower, upper)
    result = least_squares(
        lambda p: gaussian_sum(x, p) - y,
        start,
        jac=lambda p: gaussian_sum_jacobian(x, p),
        bounds=(lower, upper),
        method="trf",
        gtol=1e-12,  # the default 1e-8 stops noise-free fits at ~1e-12 RMSE
        max_nfev=max_iter,
    )
    return PatternFit(
        pattern=GaussianMixturePattern.from_params(result.x.reshape(-1, 3)),
        converged=result.status > 0,
        n_iter=int(result.nfev),
        residual=float(result.fun @ result.fun),
    )
