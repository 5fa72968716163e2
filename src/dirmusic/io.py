"""File formats: pattern tables, waveform CSV, sweep reports.

All writers go through a temp-file-plus-rename so interrupted runs never
leave half-written artifacts.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .experiments import SweepReport, TrialBatch, summarize
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
#: Sweep CSV column after ``setting``, which is also the JSON key ->
#: (SummaryStats field, type written).
_SWEEP_FIELDS = {
    "accuracy": ("accuracy", float),
    "mean_err": ("mean", float),
    "std_err": ("std", float),
    "min_err": ("min", float),
    "max_err": ("max", float),
    "n": ("n", int),
}
_SWEEP_HEADER = ["setting", *_SWEEP_FIELDS]
_TRIALS_HEADER = ["theta_true_deg", "theta_hat_deg", "error_deg", "success"]
#: Rows formatted per write by write_waveform_csv.
_WAVEFORM_BLOCK = 1024


class _atomic_open:
    """``with _atomic_open(path) as handle:`` writes text to a temp file
    beside ``path`` and renames it over ``path`` when the block ends.

    The file gets the mode ``open(path, "w")`` would leave: an existing
    ``path`` keeps its own, a new one gets 0o666 less the umask. On any
    exception the temp file is removed and ``path`` is untouched.
    """

    def __init__(self, path):
        self.path = Path(path)

    def __enter__(self):
        try:
            mode = stat.S_IMODE(os.stat(self.path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, self.tmp = tempfile.mkstemp(
            dir=self.path.parent or Path("."), prefix=self.path.name, suffix=".tmp"
        )
        try:
            os.chmod(self.tmp, mode)
            self.handle = os.fdopen(fd, "w", newline="")
        except BaseException:
            os.close(fd)
            os.unlink(self.tmp)
            raise
        return self.handle

    def __exit__(self, exc_type, exc, tb):
        try:
            self.handle.close()
            if exc_type is None:
                os.replace(self.tmp, self.path)
        except BaseException:
            os.unlink(self.tmp)
            raise
        if exc_type is not None:
            os.unlink(self.tmp)


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
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(_PATTERN_HEADER)
        for comp in pattern.components:
            writer.writerow(
                [repr(float(comp.amplitude)), repr(float(comp.center_deg)), repr(float(comp.width_deg))]
            )


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
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(_SAMPLES_HEADER)
        for a, g in zip(angles, values):
            writer.writerow([repr(float(a)), repr(float(g))])


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
    """Waveform CSV: time_s,ch1..chN with a uniform time step 1/rate.

    Every value is written as ``%.12e``, the bytes ``np.savetxt`` writes
    with that format. The body streams to the file in blocks of
    ``_WAVEFORM_BLOCK`` rows, so memory is bounded by one block whatever
    the record length.
    """
    n = rec.n_samples
    # "\r\n" ends every line, as csv.writer ends the header.
    row = ",".join(["%.12e"] * (rec.n_channels + 1)) + "\r\n"
    rows = np.empty((min(_WAVEFORM_BLOCK, n), rec.n_channels + 1))
    with _atomic_open(path) as handle:
        csv.writer(handle).writerow(["time_s"] + [f"ch{i + 1}" for i in range(rec.n_channels)])
        for start in range(0, n, _WAVEFORM_BLOCK):
            stop = min(start + _WAVEFORM_BLOCK, n)
            block = rows[: stop - start]
            np.divide(np.arange(start, stop), rec.rate_hz, out=block[:, 0])
            block[:, 1:] = rec.channels[:, start:stop].T
            handle.write(row * (stop - start) % tuple(block.ravel().tolist()))


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


def _sweep_records(report: SweepReport) -> list[dict]:
    records = []
    for row, batch in zip(report.rows, report.batches, strict=True):
        stats = summarize(batch)
        record = {"setting": float(row.setting)}
        for column, (field, kind) in _SWEEP_FIELDS.items():
            record[column] = kind(getattr(stats, field))
        records.append(record)
    return records


def write_sweep_csv(path, report: SweepReport) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(_SWEEP_HEADER)
        # csv writes a float by its repr, so the text round-trips exactly.
        writer.writerows(record.values() for record in _sweep_records(report))


def write_sweep_json(path, report: SweepReport, config_meta: dict) -> None:
    write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "setting_name": report.setting_name,
            "rows": _sweep_records(report),
            "config": config_meta,
        },
    )


def write_trials_csv(path, batch: TrialBatch) -> None:
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(_TRIALS_HEADER)
        for *angles, ok in zip(
            batch.theta_true_deg, batch.theta_hat_deg, batch.error_deg, batch.success
        ):
            writer.writerow([repr(float(a)) for a in angles] + [int(ok)])


def write_json(path, payload: dict) -> None:
    with _atomic_open(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
