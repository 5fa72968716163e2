"""Subspace direction finding on the gain manifold.

The estimation pipeline: sample covariance of the snapshot matrix,
symmetric eigendecomposition, noise subspace from the small eigenvalues,
then a spatial spectrum P(theta) = 1 / ||En^T g(theta)||^2 whose peak is
the direction estimate. All arithmetic is real valued; the data are
baseband voltage samples and the manifold carries gains, not phases.
The eigendecomposition, noise subspace and spectrum stages, and
:func:`estimate_from_covariance` that chains them, also accept a stack
of covariances, with the same result per matrix. There is one source,
so the noise subspace is always N - 1 dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _number
from .manifold import ArrayConfig, manifold_matrix, reject_blind
from .pattern import GaussianMixturePattern

__all__ = [
    "EigenPair",
    "DoaEstimate",
    "default_grid",
    "sample_covariance",
    "eig_sym",
    "noise_subspace",
    "spatial_spectrum",
    "estimate_from_covariance",
    "estimate_doa",
    "angular_error",
]

# Floor for the spectrum denominator; keeps P finite when a steering
# vector is (numerically) orthogonal to the noise subspace.
_SPECTRUM_FLOOR = 1e-30

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``vectors[..., :, j]`` pairs with ``values[..., j]``; leading axes,
    if any, index a stack of matrices. Column signs are as LAPACK
    returns them: nothing downstream reads them, since the spectrum
    squares every projection.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class DoaEstimate:
    """Peak of the spatial spectrum.

    ``angle_deg`` is a member of the search grid; ties are broken toward
    the smallest angle. ``spectrum`` holds the values over the grid.
    From a stack of covariances (..., N, N), the angle and peak are
    arrays of shape (...) and the spectrum has shape (..., G).
    """

    angle_deg: float | np.ndarray
    peak_value: float | np.ndarray
    spectrum: np.ndarray


def default_grid(step_deg: float = 1.0) -> np.ndarray:
    """Azimuth search grid [0, 360) with the given step in degrees."""
    if not 0.0 < _number("step_deg", step_deg) <= 360.0:
        raise ValueError(f"step_deg must be in (0, 360], got {step_deg}")
    return np.arange(0.0, 360.0, step_deg)


def sample_covariance(x) -> np.ndarray:
    """Sample covariance R = X X^T / T of an (N, T) snapshot matrix.

    The expectation in the model is replaced by the average over the T
    snapshots. The result is symmetrized exactly to guard against BLAS
    rounding asymmetry.
    """
    snap = np.asarray(x, dtype=float)
    if snap.ndim != 2:
        raise ValueError("snapshot matrix must be 2-D")
    n_samples = snap.shape[1]
    if n_samples < 2:
        raise ValueError(f"need at least 2 snapshots, got {n_samples}")
    cov = snap @ snap.T / n_samples
    return (cov + cov.T) / 2.0


def eig_sym(r) -> EigenPair:
    """Eigendecomposition of a symmetric matrix, sorted descending.

    ``r`` is one (N, N) matrix or a stack of shape (..., N, N).
    Delegates to LAPACK via numpy.linalg.eigh and reverses the order;
    column signs are left as LAPACK returns them. Raises when any
    matrix is asymmetric beyond rounding tolerance of its own scale.
    """
    mat = np.asarray(r, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError("input must be a square matrix or a stack of them")
    # An all-zero matrix has zero asymmetry, so a zero scale never raises.
    scale = np.abs(mat).max(axis=(-2, -1))
    asymmetry = np.abs(mat - np.swapaxes(mat, -1, -2)).max(axis=(-2, -1))
    if (asymmetry > _SYMMETRY_RTOL * scale).any():
        raise ValueError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(mat)
    return EigenPair(values=values[..., ::-1].copy(), vectors=vectors[..., ::-1])


def noise_subspace(pair: EigenPair) -> np.ndarray:
    """Eigenvectors of the N - 1 smallest eigenvalues as columns.

    These are columns 2..N of the sorted decomposition; for the single
    source, the steering vector of the true direction is orthogonal to
    all of them in the noiseless case. A single element gives an empty
    subspace, shape (1, 0). A stacked pair gives a stack of shape
    (..., N, N - 1).
    """
    return pair.vectors[..., 1:]


def spatial_spectrum(noise_vectors: np.ndarray, manifold: np.ndarray) -> np.ndarray:
    """Spectrum P(theta) = 1 / ||En^T g(theta)||^2, one value per manifold column.

    ``manifold`` holds the nominal (unperturbed) steering vectors, one
    column per grid angle. ``noise_vectors`` is one (N, K) subspace or
    a stack of shape (..., N, K); the values then have shape (..., G).
    Every value is finite and positive; an empty noise subspace gives a
    flat spectrum at 1 / floor.
    """
    projection = np.swapaxes(noise_vectors, -1, -2) @ manifold
    np.square(projection, out=projection)  # in place: a stack's projection is the largest array
    denom = np.maximum(projection.sum(axis=-2), _SPECTRUM_FLOOR)
    return 1.0 / denom


def estimate_from_covariance(r, manifold: np.ndarray, grid: np.ndarray) -> DoaEstimate:
    """Estimate from one (N, N) covariance or a stack (..., N, N): each
    matrix gives what a call on it alone gives. ``manifold`` holds the
    nominal steering vectors of the ``grid`` angles, one column each."""
    spectrum = spatial_spectrum(noise_subspace(eig_sym(r)), manifold)
    # argmax takes the first (smallest) angle on ties
    angle, peak = grid[spectrum.argmax(axis=-1)], spectrum.max(axis=-1)
    if spectrum.ndim == 1:
        angle, peak = float(angle), float(peak)
    return DoaEstimate(angle_deg=angle, peak_value=peak, spectrum=spectrum)


def estimate_doa(
    x, pattern: GaussianMixturePattern, array: ArrayConfig, grid_deg=None
) -> DoaEstimate:
    """Full pipeline: covariance, eigendecomposition, spectrum, argmax.

    ``x`` is the (N, T) snapshot matrix with rows in element order. The
    default grid is 1 degree over [0, 360). The peak location is
    invariant under positive scaling of x. With one element the
    spectrum is flat and the estimate is the first grid angle: it
    carries no information, by design.
    """
    grid = default_grid() if grid_deg is None else np.asarray(grid_deg, dtype=float).ravel()
    manifold = manifold_matrix(pattern, array, grid)
    reject_blind(pattern, array, grid, manifold.T)
    return estimate_from_covariance(sample_covariance(x), manifold, grid)


def angular_error(estimate_deg, true_deg):
    """Signed circular difference estimate - truth, mapped to (-180, 180], elementwise."""
    est = np.asarray(estimate_deg, dtype=float)
    true = np.asarray(true_deg, dtype=float)
    if not (np.isfinite(est).all() and np.isfinite(true).all()):
        raise ValueError("angles must be finite")
    err = np.remainder(est - true, 360.0)
    err = np.where(err > 180.0, err - 360.0, err)
    return float(err) if err.ndim == 0 else err

