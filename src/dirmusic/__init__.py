"""Direction finding from signal strength with directional antenna arrays.

The subspace search of classic MUSIC is kept, but the steering vectors
carry per-element antenna gains instead of phase delays, so wideband
pulses can be located with small arrays and modest sample rates.

Each public name is imported from its layer module (``dirmusic.pattern``,
``dirmusic.manifold``, ``dirmusic.signal``, ``dirmusic.estimator``,
``dirmusic.experiments``, ``dirmusic.pipeline``, ``dirmusic.io``,
``dirmusic.cli``); the package itself binds only ``__version__``.
"""

__version__ = "0.1.0"
