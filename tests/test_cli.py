"""End-to-end tests of the command line interface (exit codes and files)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirmusic
from dirmusic import io as dio
from dirmusic.cli import EXIT_IO, EXIT_NO_PULSE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from dirmusic.estimator import default_grid
from dirmusic.manifold import ArrayConfig, manifold_matrix, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN, GaussianMixturePattern, eval_pattern
from dirmusic.pipeline import Recording
from dirmusic.signal import PulseModel, SamplingSpec, pd_pulse, synthesize_clean


def _write_recording(path, theta=93.0, offsets=(0.0, 60.0, 120.0, 180.0), noise=True):
    rng = np.random.default_rng(5)
    array = ArrayConfig(offsets)
    gains = steering_vector(DEFAULT_PATTERN, array, theta)
    pulse = pd_pulse(PulseModel(), SamplingSpec(10e9, 256))
    channels = np.zeros((array.n_elements, 4096))
    channels[:, 1500:1756] = synthesize_clean(gains, pulse)
    if noise:
        sigma = np.sqrt(np.mean(channels**2) / 10.0)
        channels = channels + rng.normal(0.0, sigma, channels.shape)
    dio.write_waveform_csv(path, Recording(rate_hz=10e9, channels=channels))


class TestFitPattern:
    def test_fit_demo_samples(self, tmp_path):
        samples = tmp_path / "samples.csv"
        angles = np.arange(0.0, 360.0, 2.0)
        dio.write_pattern_samples_csv(samples, angles, eval_pattern(DEFAULT_PATTERN, angles))
        out = tmp_path / "fit.csv"
        code = main(["fit-pattern", str(samples), "--components", "3", "--out", str(out)])
        assert code == EXIT_OK
        fitted = dio.read_pattern_csv(out)
        got = eval_pattern(fitted, angles)
        want = eval_pattern(DEFAULT_PATTERN, angles)
        assert np.sqrt(np.mean((got - want) ** 2)) <= 1e-4 * want.max()

    def test_zero_components_is_usage_error(self, tmp_path):
        samples = tmp_path / "samples.csv"
        dio.write_pattern_samples_csv(samples, [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        code = main(["fit-pattern", str(samples), "--components", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["fit-pattern", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO
        assert "nope.csv" in capsys.readouterr().err


class TestManifoldDump:
    def test_writes_grid_csv(self, tmp_path):
        out = tmp_path / "manifold.csv"
        code = main(["manifold", "--elements", "6", "--grid-step", "90", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,g1,g2,g3,g4,g5,g6"
        assert len(lines) == 5  # header + 4 grid angles

    def test_ignores_trial_config_keys(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "trials": 0, "threshold": -1.0}))
        out = tmp_path / "manifold.csv"
        code = main(["manifold", "--config", str(config), "--grid-step", "90", "--out", str(out)])
        assert code == EXIT_OK

    def test_out_file_and_stdout_hold_the_csv_module_bytes(self, tmp_path, capsys):
        out = tmp_path / "manifold.csv"
        args = ["manifold", "--elements", "4", "--grid-step", "45"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        grid = default_grid(45.0)
        matrix = manifold_matrix(DEFAULT_PATTERN, ArrayConfig.uniform(4), grid)
        lines = ["angle_deg,g1,g2,g3,g4"] + [
            ",".join(repr(float(v)) for v in (angle, *matrix[:, j])) for j, angle in enumerate(grid)
        ]
        expected = "".join(line + "\r\n" for line in lines)
        assert out.read_bytes() == expected.encode()
        assert printed == expected


@pytest.mark.parametrize("command", [["manifold"], ["estimate", "wave.csv"]])
@pytest.mark.parametrize("flag", ["--trials", "--seed", "--threshold-deg"])
def test_trial_flags_rejected_where_no_trial_runs(command, flag):
    assert main(command + [flag, "1"]) == EXIT_USAGE


def test_cli_import_loads_no_scipy():
    src = str(Path(dirmusic.__file__).parent.parent)
    probe = "import sys, dirmusic.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


class TestSimulate:
    def test_writes_trials_and_summary_deterministically(self, tmp_path):
        args = [
            "simulate", "--trials", "12", "--snr-db", "10", "--seed", "7",
            "--out", str(tmp_path / "run"),
        ]
        assert main(args) == EXIT_OK
        trials_a = (tmp_path / "run_trials.csv").read_bytes()
        summary_a = (tmp_path / "run_summary.json").read_bytes()
        assert main(args) == EXIT_OK
        assert (tmp_path / "run_trials.csv").read_bytes() == trials_a
        assert (tmp_path / "run_summary.json").read_bytes() == summary_a
        payload = json.loads(summary_a)
        assert payload["n_trials"] == 12
        assert 0.0 <= payload["accuracy"] <= 1.0


class TestSweeps:
    def test_snr_sweep_files(self, tmp_path):
        code = main(
            ["sweep-snr", "--snr-db", "10", "--trials", "8", "--out", str(tmp_path / "snr")]
        )
        assert code == EXIT_OK
        assert (tmp_path / "snr.csv").exists()
        payload = json.loads((tmp_path / "snr.json").read_text())
        assert payload["rows"][0]["n"] == 8

    def test_empty_snr_list_is_usage_error(self, tmp_path):
        code = main(["sweep-snr", "--snr-db", "--trials", "8", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_config_file_supplies_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema_version": 1, "elements": 4, "snr_db": [10.0], "trials": 6, "seed": 3,
        }))
        code = main(["sweep-snr", "--config", str(config), "--out", str(tmp_path / "cfg")])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "cfg.json").read_text())
        assert payload["config"]["n_elements"] == 4
        assert payload["config"]["seed"] == 3

    def test_bad_schema_version_is_parse_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 99}))
        code = main(["sweep-snr", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == EXIT_PARSE

    def test_unknown_config_key_is_parse_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "elments": 4, "snr_db": [10.0]}))
        code = main(["sweep-snr", "--config", str(config), "--trials", "2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_PARSE
        assert "elments" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--snr-db", "snr_db"),
            ("--epsilon", "manifold_error"),
            ("--threshold-deg", "success_threshold_deg"),
        ],
    )
    def test_non_finite_value_is_parse_error_naming_field(self, tmp_path, capsys, flag, field):
        out = tmp_path / "run"
        code = main(["simulate", "--trials", "2", flag, "nan", "--out", str(out)])
        assert code == EXIT_PARSE
        assert field in capsys.readouterr().err
        assert not (tmp_path / "run_summary.json").exists()

    @pytest.mark.parametrize(
        "command, values, field",
        [
            (["simulate"], {"seed": 1.9, "trials": 2.7}, "n_trials"),
            (["simulate"], {"seed": 1.9}, "seed"),
            (["simulate"], {"seed": True}, "seed"),
            (["simulate"], {"trials": True}, "n_trials"),
            (["sweep-elements"], {"elements_list": [2.9]}, "n_elements"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"], {"taps": 101.5}, "n_taps"),
        ],
        ids=["float_seed_and_trials", "float_seed", "bool_seed", "bool_trials",
             "float_element_count", "float_taps"],
    )
    def test_non_integer_config_value_is_parse_error(
        self, tmp_path, capsys, monkeypatch, command, values, field
    ):
        monkeypatch.chdir(tmp_path)
        _write_recording(tmp_path / "wave.csv")
        (tmp_path / "config.json").write_text(json.dumps({"schema_version": 1, **values}))
        code = main(command + ["--config", "config.json", "--out", "out"])
        assert code == EXIT_PARSE
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "wave.csv"]

    @pytest.mark.parametrize(
        "command, values, field",
        [
            (["simulate"], {"snr_db_fixed": True}, "snr_db"),
            (["simulate"], {"threshold": "3"}, "success_threshold_deg"),
            (["simulate"], {"epsilon_fixed": "0.05"}, "manifold_error"),
            (["sweep-snr"], {"snr_db": [True, "5"]}, "snr_db"),
            (["sweep-error"], {"epsilon": [0.05, "0.1"]}, "manifold_error"),
            (["manifold"], {"grid_step": True}, "grid_step_deg"),
        ],
        ids=["bool_snr", "string_threshold", "string_epsilon", "bool_and_string_snr_list",
             "string_in_epsilon_list", "bool_grid_step"],
    )
    def test_non_number_config_value_is_parse_error(
        self, tmp_path, capsys, monkeypatch, command, values, field
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({"schema_version": 1, **values}))
        code = main(command + ["--config", "config.json", "--out", "out"])
        assert code == EXIT_PARSE
        assert f"{field} must be a number" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_sweep_values_must_be_a_list(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "snr_db": 5}))
        code = main(["sweep-snr", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == EXIT_PARSE
        assert "snr_db must be a list" in capsys.readouterr().err

    def test_integer_config_values_write_the_same_bytes_as_floats(self, tmp_path):
        written = []
        for tag, values in (
            ("int", {"snr_db_fixed": 5, "epsilon_fixed": 0, "threshold": 2, "grid_step": 1}),
            ("float", {"snr_db_fixed": 5.0, "epsilon_fixed": 0.0, "threshold": 2.0,
                       "grid_step": 1.0}),
        ):
            config = tmp_path / f"{tag}.json"
            config.write_text(json.dumps({"schema_version": 1, "trials": 3, **values}))
            out = tmp_path / tag
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
            written.append([(tmp_path / f"{tag}{suffix}").read_bytes()
                            for suffix in ("_trials.csv", "_summary.json")])
        assert written[0] == written[1]

    def test_element_sweep_fixed_epsilon_precedence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "epsilon_fixed": 0.1}))
        base = ["sweep-elements", "--config", str(config), "--elements-list", "2", "--trials", "2"]
        assert main(base + ["--out", str(tmp_path / "cfg")]) == EXIT_OK
        meta = json.loads((tmp_path / "cfg.json").read_text())["config"]
        assert meta["manifold_error"] == 0.1
        assert meta["n_trials"] == 2
        assert main(base + ["--epsilon", "0.07", "--out", str(tmp_path / "flag")]) == EXIT_OK
        meta = json.loads((tmp_path / "flag.json").read_text())["config"]
        assert meta["manifold_error"] == 0.07

    @pytest.mark.parametrize(
        "argv, swept, settings",
        [
            (["sweep-elements", "--elements-list", "2", "4"], "n_elements", [2, 4]),
            (["sweep-snr", "--snr-db", "10", "0"], "snr_db", [10.0, 0.0]),
            (["sweep-error", "--epsilon", "0.05"], "manifold_error", [0.05]),
        ],
    )
    def test_sweep_config_omits_swept_field(self, tmp_path, argv, swept, settings):
        assert main(argv + ["--trials", "2", "--out", str(tmp_path / "s")]) == EXIT_OK
        payload = json.loads((tmp_path / "s.json").read_text())
        assert swept not in payload["config"]
        assert payload["config"]["n_trials"] == 2
        assert [row["setting"] for row in payload["rows"]] == settings

    def test_element_sweep_runs(self, tmp_path):
        code = main(
            ["sweep-elements", "--elements-list", "2", "4", "--trials", "6",
             "--out", str(tmp_path / "el")]
        )
        assert code == EXIT_OK

    def test_error_sweep_runs(self, tmp_path):
        code = main(
            ["sweep-error", "--epsilon", "0.05", "--trials", "6", "--out", str(tmp_path / "eps")]
        )
        assert code == EXIT_OK


class TestEstimate:
    def test_recovers_direction_from_fixture(self, tmp_path):
        wave = tmp_path / "wave.csv"
        _write_recording(wave)
        out = tmp_path / "result.json"
        code = main([
            "estimate", str(wave), "--offsets", "0,60,120,180",
            "--taps", "1001", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        err = abs(payload["theta_hat_deg"] - 93.0)
        assert min(err, 360.0 - err) <= 2.0
        assert payload["n_elements"] == 4
        span = (payload["window_end_s"] - payload["window_start_s"]) * 10e9
        assert payload["snapshots_used"] == pytest.approx(span)

    def test_malformed_csv_is_parse_error(self, tmp_path, capsys):
        wave = tmp_path / "bad.csv"
        wave.write_text("time_s,ch1,bogus\n0.0,1.0,2.0\n1e-10,1.0,2.0\n")
        code = main(["estimate", str(wave), "--elements", "2"])
        assert code == EXIT_PARSE
        assert "bogus" in capsys.readouterr().err

    def test_element_count_mismatch_is_parse_error(self, tmp_path):
        wave = tmp_path / "wave.csv"
        _write_recording(wave)
        code = main(["estimate", str(wave), "--elements", "6"])
        assert code == EXIT_PARSE

    @staticmethod
    def _write_noise(path):
        rng = np.random.default_rng(0)
        dio.write_waveform_csv(
            path, Recording(rate_hz=10e9, channels=rng.normal(size=(4, 4096)))
        )

    def test_no_pulse_exit_code(self, tmp_path):
        wave = tmp_path / "noise.csv"
        self._write_noise(wave)
        code = main(["estimate", str(wave), "--offsets", "0,60,120,180", "--taps", "1001"])
        assert code == EXIT_NO_PULSE

    @pytest.mark.parametrize("k_sigma", ["nan", "inf", "0", "-1"])
    def test_invalid_k_sigma_is_parse_error(self, tmp_path, capsys, k_sigma):
        # pure noise: a threshold that never fires would report a direction
        wave = tmp_path / "noise.csv"
        self._write_noise(wave)
        code = main(["estimate", str(wave), "--offsets", "0,60,120,180", "--k-sigma", k_sigma])
        assert code == EXIT_PARSE
        assert "k_sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layout, offsets",
        [
            (["--offsets", "0,60,120,180"], [0.0, 60.0, 120.0, 180.0]),
            (["--elements", "4"], [0.0, 90.0, 180.0, 270.0]),
        ],
    )
    def test_records_taps_and_offsets(self, tmp_path, layout, offsets):
        wave = tmp_path / "wave.csv"
        _write_recording(wave)
        out = tmp_path / "result.json"
        code = main(["estimate", str(wave), *layout, "--taps", "501", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["n_taps"] == 501
        assert payload["offsets_deg"] == offsets

    def test_records_pattern_and_k_sigma_enough_to_rerun(self, tmp_path):
        wave = tmp_path / "wave.csv"
        _write_recording(wave)
        params = DEFAULT_PATTERN.as_params()
        params[:, 2] *= 1.1
        pattern = tmp_path / "pattern.csv"
        dio.write_pattern_csv(pattern, GaussianMixturePattern.from_params(params))
        out = tmp_path / "first.json"
        code = main([
            "estimate", str(wave), "--offsets", "0,60,120,180", "--pattern", str(pattern),
            "--k-sigma", "4.5", "--taps", "501", "--out", str(out),
        ])
        assert code == EXIT_OK
        first = json.loads(out.read_text())
        assert first["k_sigma"] == 4.5
        assert first["pattern"] == params.tolist()
        # re-run from nothing but the recorded values
        replay = tmp_path / "replay.csv"
        dio.write_pattern_csv(replay, GaussianMixturePattern.from_params(first["pattern"]))
        code = main([
            "estimate", str(wave), "--pattern", str(replay),
            "--offsets", ",".join(repr(o) for o in first["offsets_deg"]),
            "--band-low-hz", repr(first["filter_band_hz"][0]),
            "--band-high-hz", repr(first["filter_band_hz"][1]),
            "--taps", str(first["n_taps"]), "--grid-step", repr(first["grid_step_deg"]),
            "--k-sigma", repr(first["k_sigma"]), "--out", str(tmp_path / "second.json"),
        ])
        assert code == EXIT_OK
        assert json.loads((tmp_path / "second.json").read_text()) == first

    def test_default_pattern_is_recorded(self, tmp_path):
        wave = tmp_path / "wave.csv"
        _write_recording(wave)
        out = tmp_path / "result.json"
        assert main(["estimate", str(wave), "--elements", "4", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["pattern"] == DEFAULT_PATTERN.as_params().tolist()
        assert payload["k_sigma"] == 5.0

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE
