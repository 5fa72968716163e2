"""Subspace direction finding on the gain manifold.

The estimation pipeline: sample covariance of the snapshot matrix,
symmetric eigendecomposition, noise subspace from the small eigenvalues,
then a spatial spectrum P(theta) = 1 / ||En^T g(theta)||^2 whose peak is
the direction estimate. All arithmetic is real valued; the data are
baseband voltage samples and the manifold carries gains, not phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import ArrayConfig, manifold_matrix
from .pattern import GaussianMixturePattern

__all__ = [
    "EigenPair",
    "SpatialSpectrum",
    "DoaEstimate",
    "default_grid",
    "sample_covariance",
    "eig_sym",
    "noise_subspace",
    "spatial_spectrum",
    "estimate_doa",
    "angular_error",
    "ambiguity_scan",
]

# Floor for the spectrum denominator; keeps P finite when a steering
# vector is (numerically) orthogonal to the noise subspace.
_SPECTRUM_FLOOR = 1e-30

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``vectors[:, j]`` pairs with ``values[j]``. The sign of each column
    is fixed so its first entry with magnitude above 1e-12 is positive,
    making the decomposition deterministic.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SpatialSpectrum:
    """Spectrum values over a grid of azimuths, all finite and positive."""

    grid_deg: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class DoaEstimate:
    """Peak of the spatial spectrum.

    ``angle_deg`` is a member of the search grid; ties are broken toward
    the smallest angle.
    """

    angle_deg: float
    peak_value: float
    spectrum: SpatialSpectrum


def default_grid(step_deg: float = 1.0) -> np.ndarray:
    """Azimuth search grid [0, 360) with the given step in degrees."""
    if not (0.0 < step_deg <= 360.0):
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

    Delegates to LAPACK via numpy.linalg.eigh, then reverses the order
    and applies the deterministic sign convention. Raises on inputs that
    are asymmetric beyond rounding tolerance.
    """
    mat = np.asarray(r, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("input must be a square matrix")
    scale = float(np.max(np.abs(mat))) or 1.0
    if float(np.max(np.abs(mat - mat.T))) > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(mat)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    # A unit column always has an entry above 1e-12, so argmax finds it.
    lead = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return EigenPair(values=values, vectors=vectors * signs)


def noise_subspace(pair: EigenPair, n_sources: int = 1) -> np.ndarray:
    """Eigenvectors of the N - n_sources smallest eigenvalues as columns.

    With one source, these are columns 2..N of the sorted decomposition;
    the steering vector of the true direction is orthogonal to all of
    them in the noiseless case. With ``n_sources == N`` (a single
    element) the subspace is empty, shape (N, 0).
    """
    n = pair.values.size
    if not 1 <= n_sources <= n:
        raise ValueError(f"n_sources must be in [1, {n}], got {n_sources}")
    return pair.vectors[:, n_sources:]


def spatial_spectrum(noise_vectors: np.ndarray, manifold: np.ndarray, grid_deg) -> SpatialSpectrum:
    """Spectrum P(theta) = 1 / ||En^T g(theta)||^2 over a grid.

    ``manifold`` holds the nominal (unperturbed) steering vectors, one
    column per grid angle. An empty noise subspace gives a flat spectrum
    at 1 / floor.
    """
    grid = np.asarray(grid_deg, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("grid must not be empty")
    if manifold.shape[1] != grid.size:
        raise ValueError(
            f"manifold has {manifold.shape[1]} columns but the grid has {grid.size} angles"
        )
    projection = noise_vectors.T @ manifold
    denom = np.maximum((projection**2).sum(axis=0), _SPECTRUM_FLOOR)
    return SpatialSpectrum(grid_deg=grid, values=1.0 / denom)


def estimate_doa(
    x,
    pattern: GaussianMixturePattern,
    array: ArrayConfig,
    grid_deg=None,
    *,
    manifold: np.ndarray | None = None,
) -> DoaEstimate:
    """Full pipeline: covariance, eigendecomposition, spectrum, argmax.

    ``x`` is the (N, T) snapshot matrix with rows in element order. The
    default grid is 1 degree over [0, 360). Pass a precomputed
    ``manifold`` for ``grid_deg`` to skip rebuilding it per call. The
    peak location is invariant under positive scaling of x. With one
    element the spectrum is flat and the estimate is the first grid
    angle: it carries no information, by design.
    """
    grid = default_grid() if grid_deg is None else np.asarray(grid_deg, dtype=float)
    if manifold is None:
        manifold = manifold_matrix(pattern, array, grid)
    noise_vectors = noise_subspace(eig_sym(sample_covariance(x)))
    spectrum = spatial_spectrum(noise_vectors, manifold, grid)
    peak = int(np.argmax(spectrum.values))  # argmax takes the first (smallest) angle on ties
    return DoaEstimate(
        angle_deg=float(spectrum.grid_deg[peak]),
        peak_value=float(spectrum.values[peak]),
        spectrum=spectrum,
    )


def angular_error(estimate_deg: float, true_deg: float) -> float:
    """Signed circular difference estimate - truth, mapped to (-180, 180]."""
    if not (np.isfinite(estimate_deg) and np.isfinite(true_deg)):
        raise ValueError("angles must be finite")
    err = (float(estimate_deg) - float(true_deg)) % 360.0
    return err - 360.0 if err > 180.0 else err


def ambiguity_scan(
    pattern: GaussianMixturePattern, array: ArrayConfig, grid_deg=None
) -> np.ndarray:
    """Worst off-peak spectrum value per grid angle on noiseless data.

    For each grid direction i, the noise subspace of exact data from i
    is the orthogonal complement of g_i; entry i of the result is the
    largest spectrum value over all other grid angles j != i. Large
    entries flag directions whose gain vectors are nearly proportional
    to another direction's, i.e. potential ambiguities of the gain-only
    manifold. Diagnostic only; no uniqueness guarantee is implied.
    """
    grid = default_grid() if grid_deg is None else np.asarray(grid_deg, dtype=float)
    m = manifold_matrix(pattern, array, grid)
    norms2 = (m**2).sum(axis=0)
    unit = m / np.sqrt(norms2)
    cos2 = (unit.T @ m) ** 2  # (i, j): squared projection of g_j on unit g_i
    resid = np.maximum(norms2[None, :] - cos2, _SPECTRUM_FLOOR)
    np.fill_diagonal(resid, np.inf)
    return (1.0 / resid).max(axis=1)
