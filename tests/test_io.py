"""Round-trip and format-validation tests for the file formats."""

import csv
import io
import os
import stat

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirmusic import io as dio
from dirmusic.experiments import SweepReport, SweepRow, TrialBatch, summarize
from dirmusic.pattern import DEFAULT_PATTERN
from dirmusic.pipeline import Recording


class TestPatternFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pattern.csv"
        dio.write_pattern_csv(path, DEFAULT_PATTERN)
        back = dio.read_pattern_csv(path)
        assert_allclose(back.as_params(), DEFAULT_PATTERN.as_params())

    def test_bad_header_names_offending_column(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("amplitude,middle_deg,width_deg\n1.0,10.0,20.0\n")
        with pytest.raises(ValueError, match="middle_deg"):
            dio.read_pattern_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            dio.read_pattern_csv(path)


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        angles = np.arange(0.0, 360.0, 5.0)
        gains = np.linspace(0.0, 1.0, angles.size)
        dio.write_pattern_samples_csv(path, angles, gains)
        a, g = dio.read_pattern_samples_csv(path)
        assert_allclose(a, angles)
        assert_allclose(g, gains)


class TestWaveformFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = Recording(rate_hz=10e9, channels=rng.normal(size=(4, 300)))
        path = tmp_path / "wave.csv"
        dio.write_waveform_csv(path, rec)
        back = dio.read_waveform_csv(path)
        assert back.rate_hz == pytest.approx(rec.rate_hz, rel=1e-9)
        assert_allclose(back.channels, rec.channels, rtol=1e-10, atol=1e-15)

    def test_bad_channel_header(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1,chX\n0.0,1.0,2.0\n1e-10,1.0,2.0\n")
        with pytest.raises(ValueError, match="chX"):
            dio.read_waveform_csv(path)

    def test_missing_time_column(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("t,ch1\n0.0,1.0\n1e-10,1.0\n")
        with pytest.raises(ValueError, match="time_s"):
            dio.read_waveform_csv(path)

    def test_non_uniform_time_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1\n0.0,1.0\n1e-10,1.0\n5e-10,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            dio.read_waveform_csv(path)

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1\n1e-10,1.0\n0.0,1.0\n")
        with pytest.raises(ValueError, match="increasing"):
            dio.read_waveform_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1,ch2\n0.0,1.0,2.0\n1e-10,1.0\n")
        with pytest.raises(ValueError, match="fields"):
            dio.read_waveform_csv(path)

    def test_rows_narrower_than_header_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1,ch2\n0.0,1.0\n1e-10,1.0\n")
        with pytest.raises(ValueError, match="row 2 has 2 fields, expected 3"):
            dio.read_waveform_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1,ch2\n0.0,1.0,2.0\n1e-10,volts,2.0\n")
        with pytest.raises(ValueError, match="row 3 has a non-numeric cell 'volts'"):
            dio.read_waveform_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1\n0.0,1.0\n\n1e-10,2.0\n\n2e-10,3.0\n\n")
        rec = dio.read_waveform_csv(path)
        assert_allclose(rec.channels, [[1.0, 2.0, 3.0]])
        assert rec.rate_hz == pytest.approx(1e10)

    def test_single_data_row_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1,ch2\n0.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="at least 2 samples"):
            dio.read_waveform_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,ch1\n")
        with pytest.raises(ValueError, match="at least 2 samples"):
            dio.read_waveform_csv(path)

    def test_writer_matches_csv_module_bytes(self, tmp_path):
        block = dio._WAVEFORM_BLOCK
        rng = np.random.default_rng(1)
        for n_channels in (1, 4, 6):
            for n_samples in (block - 1, block, block + 1, 2 * block + 3):
                # A strided view into a wider buffer, like the channels bandpass returns.
                wide = rng.normal(size=(n_channels, n_samples + 7)) * 1e-3
                wide[:, 3:7] = [-0.0, 5e-324, 1.7e308, -1.7e308]
                channels = wide[:, 3 : 3 + n_samples]
                assert n_channels == 1 or not channels.flags.c_contiguous
                rec = Recording(rate_hz=10e9, channels=channels)
                buf = io.StringIO()
                writer = csv.writer(buf)
                writer.writerow(["time_s"] + [f"ch{i + 1}" for i in range(n_channels)])
                for j in range(rec.n_samples):
                    writer.writerow(
                        [f"{j / rec.rate_hz:.12e}"] + [f"{v:.12e}" for v in rec.channels[:, j]]
                    )
                path = tmp_path / f"wave_{n_channels}_{n_samples}.csv"
                dio.write_waveform_csv(path, rec)
                assert path.read_bytes() == buf.getvalue().encode(), (n_channels, n_samples)


def _sweep_report(settings_and_errors):
    """A report with one batch per setting from its errors; |error| < 2 succeeds."""
    rows, batches = [], []
    for setting, errors in settings_and_errors:
        err = np.asarray(errors, dtype=float)
        batch = TrialBatch(np.full(err.size, 90.0), 90.0 + err, err, np.abs(err) < 2.0)
        stats = summarize(batch)
        rows.append(SweepRow(setting, stats.accuracy, stats.mean, stats.std, stats.n))
        batches.append(batch)
    return SweepReport(setting_name="snr_db", rows=tuple(rows), batches=tuple(batches))


class TestReportFiles:
    def _report(self):
        return _sweep_report([(10.0, [-1.0, 0.5, 1.0]), (0.0, [-4.0, 0.25, 5.0])])

    def test_sweep_csv_layout(self, tmp_path):
        path = tmp_path / "sweep.csv"
        dio.write_sweep_csv(path, self._report())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "setting,accuracy,mean_err,std_err,min_err,max_err,n"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "10.0"
        # the statistics are those of each setting's batch
        assert lines[2].split(",")[4:] == ["-4.0", "5.0", "3"]

    def test_sweep_json_payload(self, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        dio.write_sweep_json(path, self._report(), {"seed": 1})
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == dio.SCHEMA_VERSION
        assert payload["setting_name"] == "snr_db"
        assert len(payload["rows"]) == 2
        assert payload["config"]["seed"] == 1

    def test_trials_csv(self, tmp_path):
        path = tmp_path / "trials.csv"
        batch = TrialBatch(
            np.array([10.0, 20.0]), np.array([11.0, 25.0]), np.array([1.0, 5.0]),
            np.array([True, False]),
        )
        dio.write_trials_csv(path, batch)
        assert path.read_bytes() == (
            b"theta_true_deg,theta_hat_deg,error_deg,success\r\n"
            b"10.0,11.0,1.0,1\r\n20.0,25.0,5.0,0\r\n"
        )


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(
            lambda path: dio.write_waveform_csv(
                path, Recording(rate_hz=1e9, channels=np.ones((2, 3000)))
            ),
            id="waveform_csv",
        ),
        pytest.param(
            lambda path: dio.write_sweep_json(
                path, _sweep_report([(1.0, [0.0])]), {}
            ),
            id="sweep_json",
        ),
    ],
)
def test_failed_rename_keeps_target_and_removes_temp_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.dat"
    path.write_bytes(b"previous contents")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(dio.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write(path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dat"]


def test_failed_write_keeps_target_and_removes_temp_file(tmp_path):
    path = tmp_path / "trials.csv"
    path.write_bytes(b"previous contents")
    # the first row is written, the second fails
    batch = TrialBatch(
        np.array([10.0, "not a number"], dtype=object), np.zeros(2), np.zeros(2),
        np.ones(2, dtype=bool),
    )
    with pytest.raises(ValueError):
        dio.write_trials_csv(path, batch)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv"]


# A written file gets the mode ``open(path, "w")`` would give it: a new
# file 0o666 less the umask, a rewritten one the mode it already had.
@pytest.mark.parametrize(
    "umask, new_mode",
    [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)],
    ids=["umask022", "umask027", "umask077"],
)
def test_written_file_mode_follows_umask_and_existing_target(tmp_path, umask, new_mode):
    path = tmp_path / "pattern.csv"
    old_umask = os.umask(umask)
    try:
        dio.write_pattern_csv(path, DEFAULT_PATTERN)
        assert stat.S_IMODE(path.stat().st_mode) == new_mode
        os.chmod(path, 0o604)
        dio.write_pattern_csv(path, DEFAULT_PATTERN)
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
