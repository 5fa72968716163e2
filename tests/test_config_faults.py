"""One fault table for every configuration value.

Each class field and function argument below takes a bool, a numeric
string, a float where an integer belongs, NaN, infinity, an integer
beyond the float range where a number belongs and an out-of-range
value; each must raise ValueError naming the field when the object is
built or the function is called.
"""

import math
import re

import numpy as np
import pytest

from dirmusic.estimator import default_grid
from dirmusic.experiments import TrialConfig
from dirmusic.manifold import ArrayConfig, perturb
from dirmusic.pattern import GaussianMixturePattern, fit_pattern
from dirmusic.pipeline import FilterSpec, Recording, detect_pulse
from dirmusic.signal import PulseModel, SamplingSpec

_RECORD = Recording(rate_hz=10e9, channels=np.ones((1, 16)))
_ANGLES = np.arange(0.0, 360.0, 10.0)


def _lobe(column):
    """A one-lobe pattern whose row holds ``value`` in ``column``."""

    def build(value):
        row = [1.0, 10.0, 5.0]
        row[column] = value
        return GaussianMixturePattern([row])

    return build


# (owner, where the value goes, field named, integer field?, an out-of-range value or None)
_TARGETS = [
    ("TrialConfig", lambda v: TrialConfig(n_elements=v), "n_elements", True, 0),
    ("TrialConfig", lambda v: TrialConfig(snr_db=v), "snr_db", False, None),
    ("TrialConfig", lambda v: TrialConfig(manifold_error=v), "manifold_error", False, -0.1),
    ("TrialConfig", lambda v: TrialConfig(n_trials=v), "n_trials", True, 0),
    ("TrialConfig", lambda v: TrialConfig(grid_step_deg=v), "grid_step_deg", False, 0.0),
    ("TrialConfig", lambda v: TrialConfig(seed=v), "seed", True, -1),
    ("TrialConfig", lambda v: TrialConfig(success_threshold_deg=v), "success_threshold_deg",
     False, 0.0),
    ("ArrayConfig", lambda v: ArrayConfig((v,)), "offsets_deg", False, 360.0),
    ("ArrayConfig.uniform", ArrayConfig.uniform, "n_elements", True, 0),
    ("FilterSpec", lambda v: FilterSpec(low_hz=v), "low_hz", False, 0.0),
    ("FilterSpec", lambda v: FilterSpec(high_hz=v), "high_hz", False, 0.5e9),
    ("FilterSpec", lambda v: FilterSpec(n_taps=v), "n_taps", True, 100),
    ("PulseModel", lambda v: PulseModel(amplitude=v), "amplitude", False, 0.0),
    ("PulseModel", lambda v: PulseModel(decay_s=v), "decay_s", False, 0.1e-9),
    ("PulseModel", lambda v: PulseModel(rise_s=v), "rise_s", False, 0.0),
    ("PulseModel", lambda v: PulseModel(carrier_hz=v), "carrier_hz", False, 0.0),
    ("SamplingSpec", lambda v: SamplingSpec(rate_hz=v), "rate_hz", False, 0.0),
    ("SamplingSpec", lambda v: SamplingSpec(n_samples=v), "n_samples", True, 1),
    ("GaussianMixturePattern", _lobe(0), "amplitude", False, -0.1),
    ("GaussianMixturePattern", _lobe(1), "center_deg", False, 360.0),
    ("GaussianMixturePattern", _lobe(2), "width_deg", False, 0.0),
    ("default_grid", default_grid, "step_deg", False, 0.0),
    ("perturb", lambda v: perturb(np.ones(3), v, np.random.default_rng(0)), "half_width",
     False, -0.1),
    ("detect_pulse", lambda v: detect_pulse(_RECORD, v), "k_sigma", False, 0.0),
    ("fit_pattern", lambda v: fit_pattern(_ANGLES, np.ones(_ANGLES.size), v), "n_components",
     True, 0),
]


def _cases():
    for owner, call, field, integer, out_of_range in _TARGETS:
        kind = f"{field} must be an integer" if integer else f"{field} must be a number"
        faults = [("bool", True, kind), ("string", "3", kind)]
        if integer:
            faults += [("float", 2.5, kind), ("nan", math.nan, kind), ("inf", math.inf, kind)]
        else:
            finite = f"{field} must be finite"
            faults += [("nan", math.nan, finite), ("inf", math.inf, finite),
                       ("huge_int", 10**400, finite)]
        if out_of_range is not None:
            faults.append(("out_of_range", out_of_range, field))
        for label, value, message in faults:
            yield pytest.param(call, value, message, id=f"{owner}.{field}-{label}")


@pytest.mark.parametrize("call, value, message", _cases())
def test_bad_value_raises_value_error_naming_the_field(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)
