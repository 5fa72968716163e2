"""Gain-based array manifold for circular arrays of directional elements.

Instead of inter-element phase delays, the steering vector here collects
the per-element antenna gains for a wave arriving from a given azimuth:
element k of a uniform circular array is rotated by 360*k/N degrees, so
it sees the wave at its own pattern angle theta + 360*k/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _integer, _number
from .pattern import GaussianMixturePattern, eval_pattern

__all__ = ["ArrayConfig", "steering_vector", "manifold_matrix", "perturb", "reject_blind"]

#: Step of the sweep that names the blind sectors of a pattern, degrees.
_SWEEP_STEP_DEG = 0.01


@dataclass(frozen=True)
class ArrayConfig:
    """Circular array geometry given by per-element boresight offsets.

    Offsets are in degrees, strictly increasing, in [0, 360). Use
    :meth:`uniform` for the standard evenly spaced layout; pass explicit
    offsets for partial layouts (e.g. four elements at 60 deg spacing).
    """

    offsets_deg: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.offsets_deg, (tuple, list, np.ndarray)):
            raise ValueError(f"offsets_deg must be a list of numbers, got {self.offsets_deg!r}")
        offsets = tuple(_number("offsets_deg", o) for o in self.offsets_deg)
        if not offsets:
            raise ValueError("offsets_deg must have at least one entry")
        if not all(0.0 <= o < 360.0 for o in offsets):
            raise ValueError(f"offsets_deg must lie in [0, 360), got {offsets}")
        if any(a >= b for a, b in zip(offsets, offsets[1:])):
            raise ValueError(f"offsets_deg must be strictly increasing, got {offsets}")
        object.__setattr__(self, "offsets_deg", offsets)

    @property
    def n_elements(self) -> int:
        return len(self.offsets_deg)

    @classmethod
    def uniform(cls, n_elements: int) -> "ArrayConfig":
        """Uniform circular array: element k offset by 360*k/n degrees."""
        n_elements = _integer("n_elements", n_elements)
        if n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {n_elements}")
        return cls(tuple(360.0 * k / n_elements for k in range(n_elements)))


def steering_vector(
    pattern: GaussianMixturePattern, array: ArrayConfig, theta_deg
) -> np.ndarray:
    """Per-element gains for a wave arriving from ``theta_deg``.

    Entry k equals the element pattern evaluated at theta + offset_k
    (wrapped into [0, 360)). All entries are nonnegative. An array of
    directions of shape S gives gains of shape S + (n_elements,).
    """
    offsets = np.asarray(array.offsets_deg)
    return eval_pattern(pattern, np.asarray(theta_deg, dtype=float)[..., None] + offsets)


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


def perturb(gains, half_width, rng: np.random.Generator) -> np.ndarray:
    """Add one uniform U(-half_width, half_width) draw per element.

    Models channel amplitude error: the draw is taken once per call (one
    Monte Carlo trial), not per time sample. Entries may go negative;
    the error can flip the sign of a near-zero reading, so no clamping
    is applied. An array of widths, such as an (S, 1) column, shares one
    draw: each entry equals that of a call with its width alone on a
    generator at the same state.
    """
    widths = np.array([_number("half_width", w) for w in np.ravel(half_width)])
    if (widths < 0.0).any():
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    widths = widths.reshape(np.shape(half_width))
    g = np.asarray(gains, dtype=float)
    # the arithmetic of rng.uniform(-w, w), bit for bit, for every width at once
    return g + (2.0 * widths * rng.random(g.shape) - widths)


def reject_blind(pattern: GaussianMixturePattern, array: ArrayConfig, angles_deg, gains) -> None:
    """Raise ValueError when some direction gives every element zero gain.

    ``gains`` holds the steering vectors of the ``angles_deg`` directions,
    one row each. At a blind direction a record has no power to set an
    SNR against, and a zero manifold column takes the peak of every
    spectrum (1 / floor), so neither a trial nor an estimate can use it.
    The message names the blind sectors of a sweep at ``_SWEEP_STEP_DEG``,
    or the first blind direction given if the sweep steps over them.
    """
    lit = np.asarray(gains).any(axis=-1)
    if lit.all():
        return
    angles = np.arange(0.0, 360.0, _SWEEP_STEP_DEG)
    blind = ~steering_vector(pattern, array, angles).any(axis=-1)
    starts = np.flatnonzero(blind & ~np.roll(blind, 1))
    ends = np.flatnonzero(blind & ~np.roll(blind, -1))
    if starts.size and ends[0] < starts[0]:  # the first sector wraps through 0
        ends = np.roll(ends, -1)
    sectors = [f"{angles[a]:.2f}-{angles[b]:.2f}" for a, b in zip(starts, ends)]
    where = ", ".join(sectors) or f"{np.asarray(angles_deg)[~lit][0]:g}"
    raise ValueError(
        f"pattern gives every element zero gain at {where} deg, where no direction can be estimated"
    )
