"""The two value checks behind every configuration class and argument.

Each raises ValueError naming the field, so bad input fails where it
enters; range checks stay with the owner of the field.
"""

import math

import numpy as np


def _integer(name: str, value) -> int:
    """``value`` as an int, if it is an integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a float, if it is a finite number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value}")
    return number
