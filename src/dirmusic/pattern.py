"""Directional antenna gain patterns modeled as sums of Gaussian lobes.

A single element's azimuth gain is represented as g(theta) = sum_i
a_i * exp(-((theta - b_i) / c_i)^2) with theta in degrees. A pattern is
its lobe table: one checked (a_i, b_i, c_i) row per lobe, the same rows
that a pattern CSV holds. The module provides evaluation with angular
wrap-around and a bounded least-squares fitter (scipy's trust-region
reflective ``least_squares``) that recovers the lobe table from measured
(angle, gain) samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _integer, _number

__all__ = [
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
#: Width of every seeded lobe, and the fit's budget of residual evaluations.
_INIT_WIDTH_DEG = 60.0
_MAX_NFEV = 200


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
class GaussianMixturePattern:
    """Azimuth gain pattern as an ordered sum of Gaussian lobes.

    ``lobes`` takes any (k, 3) rows of (amplitude >= 0, center_deg in
    [0, 360), width_deg > 0), at least one amplitude > 0, and holds them
    as float triples in a tuple, so a pattern is hashable;
    ``np.array(pattern.lobes)`` gives the (k, 3) array.

    Evaluation wraps the angle into [0, 360) first. The Gaussian sum
    itself is not periodic, so g(0) and g(360 - eps) differ slightly;
    this small seam is an accepted property of the model.
    """

    lobes: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not isinstance(self.lobes, (tuple, list, np.ndarray)) or len(self.lobes) == 0:
            raise ValueError(f"lobes must be a non-empty list of rows, got {self.lobes!r}")
        lobes = []
        for row in self.lobes:
            if not isinstance(row, (tuple, list, np.ndarray)) or len(row) != 3:
                raise ValueError(f"a lobe must be (amplitude, center_deg, width_deg), got {row!r}")
            a, b, c = map(_number, ("amplitude", "center_deg", "width_deg"), row)
            if a < 0.0:
                raise ValueError(f"amplitude must be >= 0, got {a}")
            if not 0.0 <= b < 360.0:
                raise ValueError(f"center_deg must lie in [0, 360), got {b}")
            if c <= 0.0:
                raise ValueError(f"width_deg must be > 0, got {c}")
            lobes.append((a, b, c))
        if not any(a > 0.0 for a, _, _ in lobes):
            raise ValueError("amplitude must be > 0 in at least one lobe, got all 0")
        object.__setattr__(self, "lobes", tuple(lobes))


#: Three-lobe fit of the measured directional spiral element at 1.25 GHz,
#: used as the built-in pattern for simulations and as the CLI preset.
DEFAULT_PATTERN = GaussianMixturePattern(
    ((0.5255, 218.1, 51.73), (0.3405, 304.8, 41.0), (0.6251, 156.1, 109.1))
)


def gaussian_sum(angles_deg, params) -> np.ndarray:
    """Evaluate a Gaussian sum at ``angles_deg`` for a flat parameter vector.

    ``params`` holds (a, b, c) triples concatenated. Angles are used as
    given (no wrapping); callers wrap beforehand.

    The lobes lie along a leading axis, so the sum adds them one by one
    in parameter order: for up to 7 lobes the order, and the result bit
    for bit, of a sum over a trailing lobe axis, at a fraction of its cost.
    """
    p = np.asarray(params, dtype=float).reshape(-1, 3)
    x = np.asarray(angles_deg, dtype=float)
    a, b, c = p.T.reshape((3, -1) + (1,) * x.ndim)
    d = (x - b) / c
    return (a * np.exp(-(d * d))).sum(axis=0)


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
    values = gaussian_sum(theta, pattern.lobes)
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


def _initial_params(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Greedy residual-peak seeding.

    Places lobes one at a time at the largest remaining residual sample
    (amplitude from the residual there, width ``_INIT_WIDTH_DEG``), so
    overlapping bumps that do not show up as separate local maxima still
    receive a component each.
    """
    resid = y.astype(float).copy()
    rows = []
    for _ in range(k):
        j = int(np.argmax(resid))
        a0 = max(float(resid[j]), 1e-6)
        b0 = float(x[j])
        rows.append((a0, b0, _INIT_WIDTH_DEG))
        resid -= a0 * np.exp(-(((x - b0) / _INIT_WIDTH_DEG) ** 2))
    return np.asarray(rows, dtype=float).ravel()


def fit_pattern(angles_deg, gains, n_components: int) -> PatternFit:
    """Fit a Gaussian mixture to measured (angle, gain) samples.

    Minimizes the sum of squared residuals with scipy's trust-region
    reflective least-squares solver and the analytic Jacobian, keeping
    amplitudes >= 0, centers in [0, 360) and widths >= 1 deg.

    Args:
        angles_deg: sample angles in degrees (wrapped internally).
        gains: measured gains, same length, all finite.
        n_components: number of Gaussian lobes to fit.

    Raises:
        ValueError: n_components not an integer >= 1, fewer than
            3 * n_components samples, duplicated angles after wrapping,
            or non-finite gains.
    """
    if _integer("n_components", n_components) < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
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
    start = np.clip(_initial_params(x, y, n_components), lower, upper)
    result = least_squares(
        lambda p: gaussian_sum(x, p) - y,
        start,
        jac=lambda p: gaussian_sum_jacobian(x, p),
        bounds=(lower, upper),
        method="trf",
        gtol=1e-12,  # the default 1e-8 stops noise-free fits at ~1e-12 RMSE
        max_nfev=_MAX_NFEV,
    )
    return PatternFit(
        pattern=GaussianMixturePattern(result.x.reshape(-1, 3)),
        converged=result.status > 0,
        n_iter=int(result.nfev),
        residual=float(result.fun @ result.fun),
    )
