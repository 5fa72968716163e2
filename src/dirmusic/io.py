"""File formats: pattern tables, waveform CSV, sweep reports.

All writers go through a temp-file-plus-rename so interrupted runs never
leave half-written artifacts.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .experiments import SweepReport, TrialReport
from .pattern import GaussianMixturePattern
from .pipeline import Recording

__all__ = [
    "read_pattern_csv",
    "write_pattern_csv",
    "read_pattern_samples_csv",
    "write_pattern_samples_csv",
    "read_waveform_csv",
    "write_waveform_csv",
    "write_sweep_csv",
    "write_sweep_json",
    "write_trials_csv",
    "write_json",
]

SCHEMA_VERSION = 1

_PATTERN_HEADER = ["amplitude", "center_deg", "width_deg"]
_SAMPLES_HEADER = ["angle_deg", "gain"]
_SWEEP_HEADER = ["setting", "accuracy", "mean_err", "std_err", "min_err", "max_err", "n"]
_TRIALS_HEADER = ["theta_true_deg", "theta_hat_deg", "error_deg", "success"]


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_header(actual: list[str], expected: list[str], path) -> None:
    actual = [c.strip() for c in actual]
    if actual != expected:
        for got, want in zip(actual, expected):
            if got != want:
                raise ValueError(
                    f"{path}: unexpected column {got!r}, expected {want!r}"
                )
        raise ValueError(
            f"{path}: expected columns {expected}, got {actual}"
        )


def write_pattern_csv(path, pattern: GaussianMixturePattern) -> None:
    """One row per Gaussian lobe: amplitude, center_deg, width_deg."""
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_PATTERN_HEADER)
    for comp in pattern.components:
        writer.writerow(
            [repr(float(comp.amplitude)), repr(float(comp.center_deg)), repr(float(comp.width_deg))]
        )
    _atomic_write_text(path, buf.getvalue())


def read_pattern_csv(path) -> GaussianMixturePattern:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty pattern file")
        _check_header(header, _PATTERN_HEADER, path)
        rows = [[float(cell) for cell in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: pattern file has no components")
    return GaussianMixturePattern.from_params(rows)


def write_pattern_samples_csv(path, angles_deg, gains) -> None:
    """Measured-pattern samples: angle_deg, gain."""
    angles = np.asarray(angles_deg, dtype=float).ravel()
    values = np.asarray(gains, dtype=float).ravel()
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SAMPLES_HEADER)
    for a, g in zip(angles, values):
        writer.writerow([repr(float(a)), repr(float(g))])
    _atomic_write_text(path, buf.getvalue())


def read_pattern_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty samples file")
        _check_header(header, _SAMPLES_HEADER, path)
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    if not rows:
        raise ValueError(f"{path}: no samples")
    data = np.asarray(rows)
    return data[:, 0], data[:, 1]


def write_waveform_csv(path, rec: Recording) -> None:
    """Waveform CSV: time_s,ch1..chN with a uniform time step 1/rate."""
    buf = _stdio.StringIO()
    csv.writer(buf).writerow(["time_s"] + [f"ch{i + 1}" for i in range(rec.n_channels)])
    times = np.arange(rec.n_samples) / rec.rate_hz
    # "\r\n" ends every line, as csv.writer ends the header.
    np.savetxt(
        buf, np.column_stack([times, rec.channels.T]), fmt="%.12e", delimiter=",", newline="\r\n"
    )
    _atomic_write_text(path, buf.getvalue())


def _bad_row_error(path, n_fields: int) -> ValueError:
    """Name the first malformed row of a waveform body np.loadtxt rejected."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) != n_fields:
                return ValueError(
                    f"{path}: row {reader.line_num} has {len(row)} fields, expected {n_fields}"
                )
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    return ValueError(
                        f"{path}: row {reader.line_num} has a non-numeric cell {cell!r}"
                    )
    return ValueError(f"{path}: unreadable waveform data")


def read_waveform_csv(path) -> Recording:
    """Parse a waveform CSV; the sample rate is inferred from the time column.

    The header is read with ``csv``; the body, one row of ``time_s`` and
    the channel values per line, is parsed by ``np.loadtxt``. Blank
    lines are skipped.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), None)
        if not header:
            raise ValueError(f"{path}: empty waveform file or blank header line")
        header = [c.strip() for c in header]
        if header[0] != "time_s":
            raise ValueError(f"{path}: first column must be 'time_s', got {header[0]!r}")
        for i, name in enumerate(header[1:]):
            if name != f"ch{i + 1}":
                raise ValueError(
                    f"{path}: unexpected column {name!r}, expected 'ch{i + 1}'"
                )
        n_channels = len(header) - 1
        if n_channels < 1:
            raise ValueError(f"{path}: no channel columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty body, rejected below
                data = np.loadtxt(
                    handle, delimiter=",", ndmin=2, comments=None, quotechar='"'
                )
        except ValueError:
            raise _bad_row_error(path, n_channels + 1) from None
    if data.size and data.shape[1] != n_channels + 1:
        raise _bad_row_error(path, n_channels + 1)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    times = data[:, 0]
    steps = np.diff(times)
    if np.any(steps <= 0.0):
        raise ValueError(f"{path}: time_s must be strictly increasing")
    mean_step = float(steps.mean())
    if np.max(np.abs(steps - mean_step)) > 1e-6 * mean_step:
        raise ValueError(f"{path}: time_s must be uniformly spaced")
    return Recording(rate_hz=1.0 / mean_step, channels=data[:, 1:].T)


def _sweep_rows(report: SweepReport) -> list[list]:
    return [
        [
            repr(float(r.setting)),
            repr(float(r.accuracy)),
            repr(float(r.mean_err)),
            repr(float(r.std_err)),
            repr(float(r.min_err)),
            repr(float(r.max_err)),
            int(r.n_trials),
        ]
        for r in report.rows
    ]


def write_sweep_csv(path, report: SweepReport) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SWEEP_HEADER)
    writer.writerows(_sweep_rows(report))
    _atomic_write_text(path, buf.getvalue())


def write_sweep_json(path, report: SweepReport, config_meta: dict | None = None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "setting_name": report.setting_name,
        "rows": [
            {
                "setting": r.setting,
                "accuracy": r.accuracy,
                "mean_err": r.mean_err,
                "std_err": r.std_err,
                "min_err": r.min_err,
                "max_err": r.max_err,
                "n": r.n_trials,
            }
            for r in report.rows
        ],
    }
    if config_meta:
        payload["config"] = config_meta
    write_json(path, payload)


def write_trials_csv(path, trials: list[TrialReport]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_TRIALS_HEADER)
    for t in trials:
        writer.writerow(
            [
                repr(float(t.theta_true_deg)),
                repr(float(t.theta_hat_deg)),
                repr(float(t.error_deg)),
                int(t.success),
            ]
        )
    _atomic_write_text(path, buf.getvalue())


def write_json(path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
