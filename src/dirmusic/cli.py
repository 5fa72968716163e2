"""Command line front end.

Subcommands: fit-pattern, manifold, simulate, sweep-snr, sweep-error,
sweep-elements, estimate. Every run is deterministic given its inputs,
configuration, and seed.

Each setting has one name, its config-file key. The key table gives each
key its flag (whose dest is the key), and the command table lists the keys
that each subcommand's run reads: the subcommand's flags, the config keys
it reads and the ``config`` block that its JSON output records all come
from that list, so ``--config`` given an output runs it again.

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


#: Config key -> (the dataclass and its field that the key sets, the flag,
#: the flag's type, help). A flag's dest is its key. The sweep list keys and
#: ``k_sigma`` set no field. ``schema_version`` has no flag, and ``pattern``
#: (lobe rows) is set by ``--pattern``, which names a file instead.
_KEYS = {
    "elements": (TrialConfig, "n_elements", "--elements", int, "element count (uniform layout)"),
    "offsets": (TrialConfig, "offsets_deg", "--offsets", str,
                "explicit offsets, comma separated degrees"),
    "grid_step": (TrialConfig, "grid_step_deg", "--grid-step", float, "search grid step, degrees"),
    "snr_db_fixed": (TrialConfig, "snr_db", "--snr-db", float, "SNR, dB"),
    "epsilon_fixed": (TrialConfig, "manifold_error", "--epsilon", float,
                      "manifold error half width"),
    "trials": (TrialConfig, "n_trials", "--trials", int, "trials per setting"),
    "seed": (TrialConfig, "seed", "--seed", int, "master RNG seed"),
    "threshold": (TrialConfig, "success_threshold_deg", "--threshold-deg", float,
                  "success threshold, degrees"),
    "snr_db": (None, None, "--snr-db", float, "SNRs to sweep, dB"),
    "epsilon": (None, None, "--epsilon", float, "manifold error half widths to sweep"),
    "elements_list": (None, None, "--elements-list", int, "element counts to sweep"),
    "band_low_hz": (FilterSpec, "low_hz", "--band-low-hz", float, "bandpass low edge, Hz"),
    "band_high_hz": (FilterSpec, "high_hz", "--band-high-hz", float, "bandpass high edge, Hz"),
    "taps": (FilterSpec, "n_taps", "--taps", int, "FIR length, odd"),
    "k_sigma": (None, None, "--k-sigma", float,
                f"detection threshold multiplier (default {DEFAULT_K_SIGMA})"),
}
#: Keys a config file may carry; any other key is rejected.
CONFIG_KEYS = frozenset({"schema_version", "pattern", *_KEYS})
#: The keys that a layout and a trial run read.
_LAYOUT = ("elements", "offsets", "grid_step")
_TRIAL = (*_LAYOUT, "snr_db_fixed", "epsilon_fixed", "trials", "seed", "threshold")
#: Sweep list key -> (runner, the keys of _TRIAL whose value the list
#: replaces, TrialConfig defaults of the subcommand). The published element
#: sweep fixes the manifold error at 0.05; a flag or the epsilon_fixed key
#: overrides it.
_SWEEPS = {
    "snr_db": (run_snr_sweep, ("snr_db_fixed",), {}),
    "epsilon": (run_manifold_error_sweep, ("epsilon_fixed",), {}),
    "elements_list": (run_element_sweep, ("elements", "offsets"), {"manifold_error": 0.05}),
}


def _swept(key: str) -> tuple:
    """The keys a sweep reads: _TRIAL with its list key in place of the
    keys that the list replaces."""
    return (*(k for k in _TRIAL if k not in _SWEEPS[key][1]), key)


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
    # Earlier versions hold a subset of today's keys, so they load as they are.
    version = _integer("schema_version", data.get("schema_version", dio.SCHEMA_VERSION))
    if not 1 <= version <= dio.SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version must be 1 to {dio.SCHEMA_VERSION}, got {version}")
    return cfg


def _given(args, config: dict, key: str):
    """The flag's value, else the config key's; None when neither gives one."""
    value = getattr(args, key)
    return config.get(key) if value is None else value


def _fields(args, config: dict, owner) -> dict:
    """The fields of the dataclass ``owner`` that a flag or config key of the
    subcommand gives. Every other field keeps its default, and the dataclass
    checks every value."""
    given = {
        _KEYS[key][1]: _given(args, config, key) for key in args.keys if _KEYS[key][0] is owner
    }
    return {field: value for field, value in given.items() if value is not None}


def _parse_offsets(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"invalid offsets list {text!r}") from exc


def _trial_config(args, config: dict, **defaults) -> TrialConfig:
    """The run configuration from the subcommand's keys and the pattern;
    ``defaults`` replace TrialConfig's for one subcommand. Offsets without a
    count set it. The ``--pattern`` flag names a CSV file (or ``builtin``);
    the ``pattern`` key holds the lobe rows."""
    values = {**defaults, **_fields(args, config, TrialConfig)}
    if getattr(args, "offsets", None) is not None:
        values["offsets_deg"] = _parse_offsets(args.offsets)
    if "offsets_deg" in values and "n_elements" not in values:
        values["n_elements"] = ArrayConfig(values["offsets_deg"]).n_elements
    if args.pattern not in (None, "builtin"):
        values["pattern"] = dio.read_pattern_csv(args.pattern)
    elif args.pattern is None and config.get("pattern") is not None:
        values["pattern"] = GaussianMixturePattern(config["pattern"])
    return TrialConfig(**values)


def _config_block(keys, cfg: TrialConfig, spec: FilterSpec | None = None, **extra) -> dict:
    """The ``config`` block of a JSON output: each of ``keys`` with the value
    its field resolved to in ``cfg`` or ``spec`` (the layout as explicit
    offsets), or from ``extra`` for a key that sets no field; and the
    pattern's lobe rows."""
    fields = {**vars(cfg), **(vars(spec) if spec else {}), "offsets_deg": cfg.array().offsets_deg}
    block = {key: extra[key] if _KEYS[key][1] is None else fields[_KEYS[key][1]] for key in keys}
    return {**block, "pattern": cfg.pattern.lobes}


def cmd_fit_pattern(args, _config: dict) -> int:
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


def cmd_manifold(args, config: dict) -> int:
    cfg = _trial_config(args, config)
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


def cmd_simulate(args, config: dict) -> int:
    cfg = _trial_config(args, config)
    batch = run_batch(cfg)
    stats = summarize(batch)
    dio.write_trials_csv(f"{args.out}_trials.csv", batch)
    dio.write_json(
        f"{args.out}_summary.json",
        {
            "schema_version": dio.SCHEMA_VERSION,
            "config": _config_block(args.keys, cfg),
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


def cmd_sweep(args, config: dict) -> int:
    """The sweep whose list key is among the subcommand's keys."""
    (key,) = _SWEEPS.keys() & args.keys
    runner, _, defaults = _SWEEPS[key]
    values = _given(args, config, key)
    if values is not None and not isinstance(values, list):
        raise ValueError(f"{key} must be a list of values, got {values!r}")
    if not values:
        raise UsageError(f"no sweep values given (use {_KEYS[key][2]} or the config file)")
    cfg = _trial_config(args, config, **defaults)
    report = runner(cfg, values)
    dio.write_sweep_csv(f"{args.out}.csv", report)
    block = _config_block(args.keys, cfg, **{key: values})
    dio.write_sweep_json(f"{args.out}.json", key, report, block)
    for row in report.rows:
        print(
            f"{key}={row.setting:g}: accuracy={row.accuracy:.4f} "
            f"mean={row.mean_err:+.4f} std={row.std_err:.4f} n={row.n_trials}"
        )
    return EXIT_OK


def cmd_estimate(args, config: dict) -> int:
    spec = FilterSpec(**_fields(args, config, FilterSpec))
    cfg = _trial_config(args, config)
    k_sigma = _given(args, config, "k_sigma")
    k_sigma = DEFAULT_K_SIGMA if k_sigma is None else k_sigma
    rec = dio.read_waveform_csv(args.recording)
    result = process_recording(
        rec, spec, cfg.pattern, cfg.array(), default_grid(cfg.grid_step_deg), k_sigma=k_sigma
    )
    payload = {
        "schema_version": dio.SCHEMA_VERSION,
        # detect_pulse has checked k_sigma as a number
        "config": _config_block(args.keys, cfg, spec, k_sigma=float(k_sigma)),
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


#: Subcommand -> (handler, help, the keys its run reads, help of ``--out``;
#: None where ``--out`` is a required output prefix).
_COMMANDS = {
    "manifold": (cmd_manifold, "dump steering vectors over the search grid", _LAYOUT,
                 "output CSV (stdout when omitted)"),
    "simulate": (cmd_simulate, "run one batch of Monte Carlo trials", _TRIAL, None),
    "sweep-snr": (cmd_sweep, "accuracy versus SNR", _swept("snr_db"), None),
    "sweep-error": (cmd_sweep, "accuracy versus manifold error", _swept("epsilon"), None),
    "sweep-elements": (cmd_sweep, "accuracy versus element count", _swept("elements_list"), None),
    "estimate": (cmd_estimate, "process a recorded waveform CSV",
                 (*_LAYOUT, "band_low_hz", "band_high_hz", "taps", "k_sigma"), "result JSON path"),
}


def build_parser() -> argparse.ArgumentParser:
    """fit-pattern by hand; every other subcommand from its row of _COMMANDS,
    with one flag per key its run reads (a sweep list flag takes values).
    Flags are not abbreviated, so ``--elements`` cannot stand for
    ``--elements-list``."""
    parser = argparse.ArgumentParser(
        prog="dirmusic",
        description="Signal-strength MUSIC direction finding: simulation and processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-pattern", help="fit a Gaussian-lobe pattern to samples", allow_abbrev=False
    )
    p.add_argument("samples", help="CSV with columns angle_deg,gain")
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--out", required=True, help="output pattern CSV")
    p.set_defaults(func=cmd_fit_pattern)

    for name, (func, summary, keys, out) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file or JSON output (flags override it)")
        p.add_argument(
            "--pattern",
            help="'builtin' or path to a pattern CSV (default: the pattern key, else builtin)",
        )
        for key in keys:
            flag, kind, text = _KEYS[key][2:]
            p.add_argument(flag, dest=key, type=kind, nargs="*" if key in _SWEEPS else None,
                           help=text)
        p.add_argument("--out", required=out is None, help=out or "output prefix")
        p.set_defaults(func=func, keys=keys)
    sub.choices["estimate"].add_argument("recording", help="waveform CSV (time_s,ch1..chN)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
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
