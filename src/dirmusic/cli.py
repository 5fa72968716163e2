"""Command line front end.

Subcommands: fit-pattern, manifold, simulate, sweep-snr, sweep-error,
sweep-elements, estimate. Every run is deterministic given its inputs,
configuration, and seed.

Exit codes: 0 success, 2 usage, 3 I/O error, 4 parse/validation error,
5 no pulse found in a recording.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import io as dio
from .estimator import default_grid
from .experiments import (
    DEFAULT_SEED,
    TrialConfig,
    run_batch,
    run_element_sweep,
    run_manifold_error_sweep,
    run_snr_sweep,
    summarize,
)
from .manifold import manifold_matrix
from .pattern import DEFAULT_PATTERN, fit_pattern
from .pipeline import FilterSpec, NoPulseFoundError, process_recording

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_NO_PULSE = 5


class UsageError(Exception):
    pass


#: Keys a config file may carry; any other key is rejected.
CONFIG_KEYS = frozenset({
    "schema_version", "elements", "offsets", "snr_db", "snr_db_fixed", "epsilon",
    "epsilon_fixed", "elements_list", "trials", "seed", "grid_step", "threshold",
    "band_low_hz", "band_high_hz", "taps",
})


def _load_config(path) -> dict:
    with open(path) as handle:
        try:
            cfg = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    version = cfg.get("schema_version", dio.SCHEMA_VERSION)
    if version != dio.SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version {version!r} (expected {dio.SCHEMA_VERSION})"
        )
    return cfg


def _pick(args_value, config: dict, key: str, default):
    """CLI flag wins over config file wins over default."""
    if args_value is not None:
        return args_value
    if key in config and config[key] is not None:
        return config[key]
    return default


def _parse_offsets(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"invalid offsets list {text!r}") from exc


def _load_pattern(source: str):
    if source == "builtin":
        return DEFAULT_PATTERN
    return dio.read_pattern_csv(source)


def _layout_config(args, config: dict) -> TrialConfig:
    """Array layout, search grid and pattern; every other field keeps its default.

    This is all that ``manifold`` and ``estimate``, which run no trials, read.
    """
    offsets = _pick(args.offsets, config, "offsets", None)
    if isinstance(offsets, str):
        offsets = _parse_offsets(offsets)
    elif offsets is not None:
        offsets = tuple(float(o) for o in offsets)
    n_elements = _pick(args.elements, config, "elements", 6)
    if offsets is not None and args.elements is None and "elements" not in config:
        n_elements = len(offsets)
    return TrialConfig(
        n_elements=n_elements,
        grid_step_deg=float(_pick(args.grid_step, config, "grid_step", 1.0)),
        offsets_deg=offsets,
        pattern=_load_pattern(args.pattern),
    )


def _trial_config(args, config: dict, epsilon_default: float = 0.0) -> TrialConfig:
    return replace(
        _layout_config(args, config),
        snr_db=float(_pick(getattr(args, "snr_db_fixed", None), config, "snr_db_fixed", 10.0)),
        manifold_error=float(
            _pick(getattr(args, "epsilon_fixed", None), config, "epsilon_fixed", epsilon_default)
        ),
        n_trials=_pick(args.trials, config, "trials", 3600),
        seed=_pick(args.seed, config, "seed", DEFAULT_SEED),
        success_threshold_deg=float(_pick(args.threshold_deg, config, "threshold", 2.0)),
    )


def _config_payload(cfg: TrialConfig) -> dict:
    """The run configuration as written into summary and sweep JSON."""
    return {
        "n_elements": cfg.n_elements,
        "snr_db": cfg.snr_db,
        "manifold_error": cfg.manifold_error,
        "n_trials": cfg.n_trials,
        "grid_step_deg": cfg.grid_step_deg,
        "seed": cfg.seed,
        "threshold_deg": cfg.success_threshold_deg,
    }


def cmd_fit_pattern(args) -> int:
    if args.components < 1:
        raise UsageError("--components must be >= 1")
    angles, gains = dio.read_pattern_samples_csv(args.samples)
    fit = fit_pattern(angles, gains, args.components)
    dio.write_pattern_csv(args.out, fit.pattern)
    report = {
        "converged": fit.converged,
        "n_iter": fit.n_iter,
        "residual_sum_sq": fit.residual,
        "rmse": float(np.sqrt(fit.residual / len(angles))),
        "out": str(args.out),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_manifold(args) -> int:
    config = _load_config(args.config) if args.config else {}
    cfg = _layout_config(args, config)
    array = cfg.array()
    grid = default_grid(cfg.grid_step_deg)
    matrix = manifold_matrix(cfg.pattern, array, grid)

    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(["angle_deg"] + [f"g{k + 1}" for k in range(array.n_elements)])
        for j, angle in enumerate(grid):
            writer.writerow([repr(float(angle))] + [repr(float(v)) for v in matrix[:, j]])

    if args.out:
        with dio._atomic_open(args.out) as handle:
            write(handle)
    else:
        write(sys.stdout)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config) if args.config else {}
    cfg = _trial_config(args, config)
    batch = run_batch(cfg)
    stats = summarize(batch)
    dio.write_trials_csv(f"{args.out}_trials.csv", batch)
    dio.write_json(
        f"{args.out}_summary.json",
        {
            "schema_version": dio.SCHEMA_VERSION,
            **_config_payload(cfg),
            "accuracy": stats.accuracy,
            "mean_err": stats.mean,
            "variance_err": stats.variance,
            "std_err": stats.std,
            "min_err": stats.min,
            "max_err": stats.max,
        },
    )
    print(
        f"{stats.n} trials: accuracy={stats.accuracy:.4f} "
        f"mean={stats.mean:+.4f} std={stats.std:.4f}"
    )
    return EXIT_OK


def _run_sweep(args, key: str, runner, flag: str, epsilon_default: float = 0.0) -> int:
    config = _load_config(args.config) if args.config else {}
    values = _pick(getattr(args, key), config, key, None)
    if not values:
        raise UsageError(f"no sweep values given (use --{flag} or the config file)")
    cfg = _trial_config(args, config, epsilon_default)
    report = runner(cfg, list(values))
    dio.write_sweep_csv(f"{args.out}.csv", report)
    # The swept field is set per row, so the base value would mislead.
    meta = {k: v for k, v in _config_payload(cfg).items() if k != report.setting_name}
    dio.write_sweep_json(f"{args.out}.json", report, meta)
    for row in report.rows:
        print(
            f"{report.setting_name}={row.setting:g}: accuracy={row.accuracy:.4f} "
            f"mean={row.mean_err:+.4f} std={row.std_err:.4f} n={row.n_trials}"
        )
    return EXIT_OK


def cmd_sweep_snr(args) -> int:
    return _run_sweep(args, "snr_db", run_snr_sweep, "snr-db")


def cmd_sweep_error(args) -> int:
    return _run_sweep(args, "epsilon", run_manifold_error_sweep, "epsilon")


def cmd_sweep_elements(args) -> int:
    # The published protocol for this sweep fixes the manifold error at
    # 0.05; --epsilon and the epsilon_fixed config key override it.
    return _run_sweep(
        args, "elements_list", run_element_sweep, "elements-list", epsilon_default=0.05
    )


def cmd_estimate(args) -> int:
    config = _load_config(args.config) if args.config else {}
    cfg = _layout_config(args, config)
    rec = dio.read_waveform_csv(args.recording)
    spec = FilterSpec(
        low_hz=float(_pick(args.band_low_hz, config, "band_low_hz", 1.0e9)),
        high_hz=float(_pick(args.band_high_hz, config, "band_high_hz", 2.0e9)),
        n_taps=_pick(args.taps, config, "taps", 101),
    )
    array = cfg.array()
    result = process_recording(
        rec, spec, cfg.pattern, array, default_grid(cfg.grid_step_deg), k_sigma=args.k_sigma
    )
    payload = {
        "schema_version": dio.SCHEMA_VERSION,
        "theta_hat_deg": result.estimate.angle_deg,
        "peak_value": result.estimate.peak_value,
        "window_start_s": result.window.start / rec.rate_hz,
        "window_end_s": result.window.stop / rec.rate_hz,
        "detection_channel": result.window.channel + 1,
        "filter_band_hz": [spec.low_hz, spec.high_hz],
        "n_taps": spec.n_taps,
        "grid_step_deg": cfg.grid_step_deg,
        "n_elements": array.n_elements,
        "offsets_deg": list(array.offsets_deg),
        "pattern": cfg.pattern.as_params().tolist(),
        "k_sigma": args.k_sigma,
        "snapshots_used": result.window.stop - result.window.start,
    }
    if args.out:
        dio.write_json(args.out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _add_layout_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--grid-step", type=float, default=None, help="search grid step, degrees")
    parser.add_argument("--elements", type=int, default=None, help="element count (uniform layout)")
    parser.add_argument("--offsets", default=None, help="explicit offsets, comma separated degrees")
    parser.add_argument(
        "--pattern", default="builtin", help="'builtin' or path to a pattern CSV"
    )


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    _add_layout_flags(parser)
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--trials", type=int, default=None, help="trials per setting")
    parser.add_argument("--threshold-deg", type=float, default=None, help="success threshold, degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirmusic",
        description="Signal-strength MUSIC direction finding: simulation and processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-pattern", help="fit a Gaussian-lobe pattern to samples")
    p.add_argument("samples", help="CSV with columns angle_deg,gain")
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--out", required=True, help="output pattern CSV")
    p.set_defaults(func=cmd_fit_pattern)

    p = sub.add_parser("manifold", help="dump steering vectors over the search grid")
    _add_layout_flags(p)
    p.add_argument("--out", default=None, help="output CSV (stdout when omitted)")
    p.set_defaults(func=cmd_manifold)

    p = sub.add_parser("simulate", help="run one batch of Monte Carlo trials")
    _add_trial_flags(p)
    p.add_argument("--snr-db", dest="snr_db_fixed", type=float, default=None)
    p.add_argument(
        "--epsilon", dest="epsilon_fixed", type=float, default=None,
        help="manifold error half width",
    )
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-snr", help="accuracy versus SNR")
    _add_trial_flags(p)
    p.add_argument("--snr-db", dest="snr_db", type=float, nargs="*", default=None)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_sweep_snr)

    p = sub.add_parser("sweep-error", help="accuracy versus manifold error")
    _add_trial_flags(p)
    p.add_argument("--epsilon", type=float, nargs="*", default=None)
    p.add_argument(
        "--snr-db", dest="snr_db_fixed", type=float, default=None, help="fixed SNR for the sweep"
    )
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_sweep_error)

    p = sub.add_parser("sweep-elements", help="accuracy versus element count")
    _add_trial_flags(p)
    p.add_argument("--elements-list", dest="elements_list", type=int, nargs="*", default=None)
    p.add_argument(
        "--epsilon", dest="epsilon_fixed", type=float, default=None, help="fixed manifold error"
    )
    p.add_argument(
        "--snr-db", dest="snr_db_fixed", type=float, default=None, help="fixed SNR for the sweep"
    )
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_sweep_elements)

    p = sub.add_parser("estimate", help="process a recorded waveform CSV")
    _add_layout_flags(p)
    p.add_argument("recording", help="waveform CSV (time_s,ch1..chN)")
    p.add_argument("--band-low-hz", type=float, default=None)
    p.add_argument("--band-high-hz", type=float, default=None)
    p.add_argument("--taps", type=int, default=None)
    p.add_argument("--k-sigma", type=float, default=5.0, help="detection threshold multiplier")
    p.add_argument("--out", default=None, help="result JSON path")
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoPulseFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PULSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
