"""File formats: pattern tables, waveform CSV, sweep reports.

Every CSV file is read through one header check and one row parser, so a
malformed row fails naming its file and line, and written through
:func:`write_table` (the waveform body streams on its own). All writers
go through a temp-file-plus-rename so interrupted runs never leave
half-written artifacts.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
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
    "read_waveform_csv",
    "write_waveform_csv",
    "write_sweep_csv",
    "write_sweep_json",
    "write_trials_csv",
    "write_json",
    "write_table",
]

SCHEMA_VERSION = 3

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


@contextlib.contextmanager
def _atomic_open(path):
    """``with _atomic_open(path) as handle:`` writes text to a temp file
    beside ``path`` and renames it over ``path`` when the block ends.

    The file gets the mode ``open(path, "w")`` would leave: an existing
    ``path`` keeps its own, a new one gets 0o666 less the umask. On any
    exception the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        try:
            os.chmod(tmp, mode)
            handle = os.fdopen(fd, "w", newline="")
        except BaseException:
            os.close(fd)  # no handle owns it yet
            raise
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_header(actual, expected: list[str], path) -> None:
    """Raise ValueError naming the first column of ``actual``, a parsed
    header line or None for an empty file, that differs from ``expected``."""
    if not actual:
        raise ValueError(f"{path}: empty file or blank header line")
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


def _parse_rows(reader, n_fields: int, path) -> np.ndarray:
    """The numeric body that ``reader``, a ``csv.reader`` past the header,
    yields, as a float array of shape (rows, n_fields). Blank lines are
    skipped; a row of another width, or with a cell that is not a finite
    number in ``np.loadtxt``'s grammar (no ``_`` digit separators), raises
    ValueError naming the file and the line."""
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != n_fields:
            raise ValueError(
                f"{path}: row {reader.line_num} has {len(row)} fields, expected {n_fields}"
            )
        values = []
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                value = None
            # float() also reads digit separators ("1_0" as 10); np.loadtxt does not.
            if value is None or "_" in cell:
                raise ValueError(f"{path}: row {reader.line_num} has a non-numeric cell {cell!r}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {reader.line_num} has a non-finite cell {cell!r}")
            values.append(value)
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, n_fields)


def _read_table(path, header: list[str]) -> np.ndarray:
    """The body, at least one row, of a numeric CSV file whose header must be ``header``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), header, path)
        rows = _parse_rows(reader, len(header), path)
    if not rows.size:
        raise ValueError(f"{path}: no rows after the header")
    return rows


def write_table(path, header, rows) -> None:
    """Write a CSV file atomically: the ``header`` line, then one line per
    row of ``rows``. A float is written as its repr, so the text reads
    back exactly; every line ends in ``\\r\\n``."""
    with _atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_pattern_csv(path, pattern: GaussianMixturePattern) -> None:
    """One row per Gaussian lobe: amplitude, center_deg, width_deg."""
    write_table(path, _PATTERN_HEADER, pattern.lobes)


def read_pattern_csv(path) -> GaussianMixturePattern:
    return GaussianMixturePattern(_read_table(path, _PATTERN_HEADER))


def read_pattern_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Measured-pattern samples, columns angle_deg and gain."""
    data = _read_table(path, _SAMPLES_HEADER)
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


def read_waveform_csv(path) -> Recording:
    """Parse a waveform CSV; the sample rate is inferred from the time column.

    The header is read with ``csv``; the body, one row of ``time_s`` and
    the channel values per line, is parsed by ``np.loadtxt``. Blank
    lines are skipped. A body ``np.loadtxt`` rejects, or reads with a
    non-finite cell, goes through the row parser of the other CSV files,
    which names the first bad row.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), None)
        # At least one channel: a lone time_s column fails as too short.
        n_fields = max(len(header or ()), 2)
        _check_header(header, ["time_s"] + [f"ch{i}" for i in range(1, n_fields)], path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty body, rejected below
                data = np.loadtxt(
                    handle, delimiter=",", ndmin=2, comments=None, quotechar='"'
                )
        except ValueError:
            data = None
    if data is None or (data.size and data.shape[1] != n_fields) or not np.isfinite(data).all():
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            data = _parse_rows(reader, n_fields, path)
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
    write_table(path, _SWEEP_HEADER, (record.values() for record in _sweep_records(report)))


def write_sweep_json(path, setting_name: str, report: SweepReport, config: dict) -> None:
    write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "setting_name": setting_name,
            "rows": _sweep_records(report),
            "config": config,
        },
    )


def write_trials_csv(path, batch: TrialBatch) -> None:
    write_table(
        path,
        _TRIALS_HEADER,
        (
            [float(a) for a in angles] + [int(ok)]
            for *angles, ok in zip(
                batch.theta_true_deg, batch.theta_hat_deg, batch.error_deg, batch.success
            )
        ),
    )


def write_json(path, payload: dict) -> None:
    with _atomic_open(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
