"""Command line front end.

Subcommands: fit-pattern, manifold, simulate, sweep-snr, sweep-error,
sweep-elements, estimate. Every run is deterministic given its inputs,
configuration, and seed.

Each setting has one name, its config-file key, which is also the dest of
its flag. Every JSON output records its run in a ``config`` block of those
keys, so ``--config`` given an output runs it again.

Exit codes: 0 success, 2 usage, 3 I/O error, 4 parse/validation error,
5 no pulse found in a recording.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import io as dio
from ._checks import _integer
from .estimator import default_grid
from .experiments import (
    TrialConfig,
    run_batch,
    run_element_sweep,
    run_manifold_error_sweep,
    run_snr_sweep,
    summarize,
)
from .manifold import ArrayConfig, manifold_matrix
from .pattern import GaussianMixturePattern, fit_pattern
from .pipeline import DEFAULT_K_SIGMA, FilterSpec, NoPulseFoundError, process_recording

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_NO_PULSE = 5


class UsageError(Exception):
    pass


#: Config key -> the dataclass field it sets, by the runs that read it (a
#: run ignores the other keys). A flag that sets a field has its key as dest.
_LAYOUT = {"elements": "n_elements", "offsets": "offsets_deg", "grid_step": "grid_step_deg"}
_TRIAL = {**_LAYOUT, "snr_db_fixed": "snr_db", "epsilon_fixed": "manifold_error",
          "trials": "n_trials", "seed": "seed", "threshold": "success_threshold_deg"}
_FILTER = {"band_low_hz": "low_hz", "band_high_hz": "high_hz", "taps": "n_taps"}
#: Sweep list key -> (runner, the scalar keys whose value the list replaces,
#: TrialConfig defaults of the subcommand). The published element sweep
#: fixes the manifold error at 0.05; a flag or the epsilon_fixed key overrides it.
_SWEEPS = {
    "snr_db": (run_snr_sweep, ("snr_db_fixed",), {}),
    "epsilon": (run_manifold_error_sweep, ("epsilon_fixed",), {}),
    "elements_list": (run_element_sweep, ("elements", "offsets"), {"manifold_error": 0.05}),
}
#: Keys a config file may carry; any other key is rejected. ``pattern``
#: holds lobe rows, and ``k_sigma`` is read by estimate only.
CONFIG_KEYS = frozenset({"schema_version", *_TRIAL, *_FILTER, *_SWEEPS, "pattern", "k_sigma"})


def _load_config(path) -> dict:
    """The keys of a config file, or of the ``config`` block of a JSON output."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    cfg = data.get("config", data) if isinstance(data, dict) else data
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    # Version 1 files hold a subset of today's keys, so they load as they are.
    version = _integer("schema_version", data.get("schema_version", dio.SCHEMA_VERSION))
    if not 1 <= version <= dio.SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version must be 1 to {dio.SCHEMA_VERSION}, got {version}")
    return cfg


def _given(args, config: dict, key: str):
    """The flag's value, else the config key's; None when neither gives one."""
    value = getattr(args, key, None)
    return config.get(key) if value is None else value


def _fields(args, config: dict, table: dict) -> dict:
    """The fields of ``table`` that a flag or config key gives. Every other
    field keeps the default of its dataclass, which checks every value."""
    given = {field: _given(args, config, key) for key, field in table.items()}
    return {field: value for field, value in given.items() if value is not None}


def _parse_offsets(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"invalid offsets list {text!r}") from exc


def _trial_config(args, config: dict, table=_TRIAL, **defaults) -> TrialConfig:
    """The run configuration from ``table``'s keys and the pattern; ``defaults``
    replace TrialConfig's for one subcommand. Offsets without a count set it.
    The ``--pattern`` flag names a CSV file (or ``builtin``); the ``pattern``
    key holds the lobe rows."""
    values = {**defaults, **_fields(args, config, table)}
    if args.offsets is not None:
        values["offsets_deg"] = _parse_offsets(args.offsets)
    if "offsets_deg" in values and "n_elements" not in values:
        values["n_elements"] = ArrayConfig(values["offsets_deg"]).n_elements
    if args.pattern not in (None, "builtin"):
        values["pattern"] = dio.read_pattern_csv(args.pattern)
    elif args.pattern is None and config.get("pattern") is not None:
        values["pattern"] = GaussianMixturePattern(config["pattern"])
    return TrialConfig(**values)


def _config_block(table: dict, cfg: TrialConfig, spec: FilterSpec | None = None, **extra) -> dict:
    """The ``config`` block of a JSON output: each key of ``table`` with the
    value its field resolved to in ``cfg`` or ``spec``, the explicit offsets
    of the layout, the pattern's lobe rows, and ``extra``."""
    fields = {**vars(cfg), **(vars(spec) if spec else {}), "offsets_deg": cfg.array().offsets_deg}
    return {
        **{key: fields[field] for key, field in table.items()},
        "pattern": cfg.pattern.lobes,
        **extra,
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
    cfg = _trial_config(args, config, _LAYOUT)
    array = cfg.array()
    grid = default_grid(cfg.grid_step_deg)
    matrix = manifold_matrix(cfg.pattern, array, grid)

    header = ["angle_deg"] + [f"g{k + 1}" for k in range(array.n_elements)]
    rows = np.column_stack([grid, matrix.T]).tolist()
    if args.out:
        dio.write_table(args.out, header, rows)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
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
            "config": _config_block(_TRIAL, cfg),
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


def cmd_sweep(args) -> int:
    """The sweep whose list key is ``args.sweep``."""
    key = args.sweep
    runner, replaced, defaults = _SWEEPS[key]
    config = _load_config(args.config) if args.config else {}
    values = _given(args, config, key)
    if values is not None and not isinstance(values, list):
        raise ValueError(f"{key} must be a list of values, got {values!r}")
    if not values:
        flag = "--" + key.replace("_", "-")
        raise UsageError(f"no sweep values given (use {flag} or the config file)")
    cfg = _trial_config(args, config, **defaults)
    report = runner(cfg, values)
    dio.write_sweep_csv(f"{args.out}.csv", report)
    table = {k: field for k, field in _TRIAL.items() if k not in replaced}
    dio.write_sweep_json(f"{args.out}.json", report, _config_block(table, cfg, **{key: values}))
    for row in report.rows:
        print(
            f"{report.setting_name}={row.setting:g}: accuracy={row.accuracy:.4f} "
            f"mean={row.mean_err:+.4f} std={row.std_err:.4f} n={row.n_trials}"
        )
    return EXIT_OK


def cmd_estimate(args) -> int:
    config = _load_config(args.config) if args.config else {}
    spec = FilterSpec(**_fields(args, config, _FILTER))
    cfg = _trial_config(args, config, _LAYOUT)
    k_sigma = _given(args, config, "k_sigma")
    k_sigma = DEFAULT_K_SIGMA if k_sigma is None else k_sigma
    rec = dio.read_waveform_csv(args.recording)
    result = process_recording(
        rec, spec, cfg.pattern, cfg.array(), default_grid(cfg.grid_step_deg), k_sigma=k_sigma
    )
    payload = {
        "schema_version": dio.SCHEMA_VERSION,
        # detect_pulse has checked k_sigma as a number
        "config": _config_block({**_LAYOUT, **_FILTER}, cfg, spec, k_sigma=float(k_sigma)),
        "theta_hat_deg": result.estimate.angle_deg,
        "peak_value": result.estimate.peak_value,
        "window_start_s": result.window.start / rec.rate_hz,
        "window_end_s": result.window.stop / rec.rate_hz,
        "detection_channel": result.window.channel + 1,
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
        "--pattern", default=None,
        help="'builtin' or path to a pattern CSV (default: the pattern key, else builtin)",
    )


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    _add_layout_flags(parser)
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--trials", type=int, default=None, help="trials per setting")
    parser.add_argument(
        "--threshold-deg", dest="threshold", type=float, default=None,
        help="success threshold, degrees",
    )


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
    p.set_defaults(func=cmd_sweep, sweep="snr_db")

    p = sub.add_parser("sweep-error", help="accuracy versus manifold error")
    _add_trial_flags(p)
    p.add_argument("--epsilon", type=float, nargs="*", default=None)
    p.add_argument(
        "--snr-db", dest="snr_db_fixed", type=float, default=None, help="fixed SNR for the sweep"
    )
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_sweep, sweep="epsilon")

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
    p.set_defaults(func=cmd_sweep, sweep="elements_list")

    p = sub.add_parser("estimate", help="process a recorded waveform CSV")
    _add_layout_flags(p)
    p.add_argument("recording", help="waveform CSV (time_s,ch1..chN)")
    p.add_argument("--band-low-hz", type=float, default=None)
    p.add_argument("--band-high-hz", type=float, default=None)
    p.add_argument("--taps", type=int, default=None)
    p.add_argument(
        "--k-sigma", type=float, default=None,
        help=f"detection threshold multiplier (default {DEFAULT_K_SIGMA})",
    )
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
