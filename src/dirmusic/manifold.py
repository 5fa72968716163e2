"""Gain-based array manifold for circular arrays of directional elements.

Instead of inter-element phase delays, the steering vector here collects
the per-element antenna gains for a wave arriving from a given azimuth:
element k of a uniform circular array is rotated by 360*k/N degrees, so
it sees the wave at its own pattern angle theta + 360*k/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pattern import GaussianMixturePattern, eval_pattern

__all__ = ["ArrayConfig", "steering_vector", "manifold_matrix", "perturb"]


@dataclass(frozen=True)
class ArrayConfig:
    """Circular array geometry given by per-element boresight offsets.

    Offsets are in degrees, strictly increasing, in [0, 360). Use
    :meth:`uniform` for the standard evenly spaced layout; pass explicit
    offsets for partial layouts (e.g. four elements at 60 deg spacing).
    """

    offsets_deg: tuple[float, ...]

    def __post_init__(self):
        offsets = tuple(float(o) for o in self.offsets_deg)
        if not offsets:
            raise ValueError("array needs at least one element")
        arr = np.asarray(offsets)
        if not np.all(np.isfinite(arr)):
            raise ValueError("offsets must be finite")
        if np.any(arr < 0.0) or np.any(arr >= 360.0):
            raise ValueError("offsets must lie in [0, 360)")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise ValueError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets_deg", offsets)

    @property
    def n_elements(self) -> int:
        return len(self.offsets_deg)

    @classmethod
    def uniform(cls, n_elements: int) -> "ArrayConfig":
        """Uniform circular array: element k offset by 360*k/n degrees."""
        if n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        return cls(tuple(360.0 * k / n_elements for k in range(n_elements)))


def steering_vector(
    pattern: GaussianMixturePattern, array: ArrayConfig, theta_deg: float
) -> np.ndarray:
    """Per-element gains for a wave arriving from ``theta_deg``.

    Entry k equals the element pattern evaluated at theta + offset_k
    (wrapped into [0, 360)). All entries are nonnegative.
    """
    offsets = np.asarray(array.offsets_deg)
    return eval_pattern(pattern, np.asarray(theta_deg, dtype=float) + offsets)


def manifold_matrix(
    pattern: GaussianMixturePattern, array: ArrayConfig, grid_deg
) -> np.ndarray:
    """Steering vectors stacked over a grid of azimuths.

    Returns an (n_elements, len(grid)) matrix whose column j is
    ``steering_vector(pattern, array, grid[j])``. Used to precompute the
    spectrum search once per configuration.
    """
    grid = np.asarray(grid_deg, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("grid must not be empty")
    offsets = np.asarray(array.offsets_deg)
    return eval_pattern(pattern, np.add.outer(offsets, grid))


def perturb(gains, half_width: float, rng: np.random.Generator) -> np.ndarray:
    """Add one uniform U(-half_width, half_width) draw per element.

    Models channel amplitude error: the draw is taken once per call (one
    Monte Carlo trial), not per time sample. Entries may go negative;
    the error can flip the sign of a near-zero reading, so no clamping
    is applied.
    """
    if not np.isfinite(half_width) or half_width < 0.0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    g = np.asarray(gains, dtype=float)
    return g + rng.uniform(-half_width, half_width, size=g.shape)
