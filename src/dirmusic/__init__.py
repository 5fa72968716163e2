"""Direction finding from signal strength with directional antenna arrays.

The subspace search of classic MUSIC is kept, but the steering vectors
carry per-element antenna gains instead of phase delays, so wideband
pulses can be located with small arrays and modest sample rates.
"""

from .estimator import (
    DoaEstimate,
    EigenPair,
    angular_error,
    default_grid,
    eig_sym,
    estimate_doa,
    estimate_from_covariance,
    noise_subspace,
    sample_covariance,
    spatial_spectrum,
)
from .experiments import (
    DEFAULT_SEED,
    SummaryStats,
    SweepReport,
    SweepRow,
    TrialBatch,
    TrialConfig,
    run_batch,
    run_element_sweep,
    run_manifold_error_sweep,
    run_snr_sweep,
    run_trial,
    summarize,
)
from .manifold import ArrayConfig, manifold_matrix, perturb, steering_vector
from .pattern import (
    DEFAULT_PATTERN,
    GaussianMixturePattern,
    PatternFit,
    eval_pattern,
    fit_pattern,
    wrap_angle,
)
from .pipeline import (
    DEFAULT_K_SIGMA,
    FilterSpec,
    NoPulseFoundError,
    PipelineResult,
    PulseWindow,
    Recording,
    bandpass,
    detect_pulse,
    normalize_bipolar,
    process_recording,
)
from .signal import (
    DEFAULT_PULSE,
    DEFAULT_SAMPLING,
    PulseModel,
    SamplingSpec,
    add_awgn,
    pd_pulse,
    synthesize_clean,
)

__version__ = "0.1.0"
