"""End-to-end tests of the command line interface (exit codes and files)."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirmusic
from dirmusic import experiments
from dirmusic import io as dio
from dirmusic.cli import (
    EXIT_IO,
    EXIT_NO_PULSE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    build_parser,
    main,
)
from dirmusic.estimator import default_grid
from dirmusic.experiments import TrialConfig
from dirmusic.manifold import ArrayConfig, manifold_matrix, steering_vector
from dirmusic.pattern import DEFAULT_PATTERN, GaussianMixturePattern, eval_pattern
from dirmusic.pipeline import DEFAULT_K_SIGMA, FilterSpec, Recording
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
        dio.write_table(
            samples, ["angle_deg", "gain"], zip(angles, eval_pattern(DEFAULT_PATTERN, angles))
        )
        out = tmp_path / "fit.csv"
        code = main(["fit-pattern", str(samples), "--components", "3", "--out", str(out)])
        assert code == EXIT_OK
        fitted = dio.read_pattern_csv(out)
        got = eval_pattern(fitted, angles)
        want = eval_pattern(DEFAULT_PATTERN, angles)
        assert np.sqrt(np.mean((got - want) ** 2)) <= 1e-4 * want.max()

    def test_zero_components_is_usage_error(self, tmp_path):
        samples = tmp_path / "samples.csv"
        dio.write_table(samples, ["angle_deg", "gain"], [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        code = main(["fit-pattern", str(samples), "--components", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["fit-pattern", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO
        assert "nope.csv" in capsys.readouterr().err


# Each input file has one malformed row; the run must name the file and
# the line, exit 4 and write nothing.
_PATTERN = "amplitude,center_deg,width_deg\n"
_SAMPLES = "angle_deg,gain\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["manifold", "--pattern"], _PATTERN + "1,2,3,4\n" * 3, "row 2 has 4 fields, expected 3"),
        (["manifold", "--pattern"], _PATTERN + "0.5,218.1\n", "row 2 has 2 fields, expected 3"),
        (["manifold", "--pattern"], _PATTERN + "0.5,abc,51\n", "row 2 has a non-numeric cell 'abc'"),
        (["fit-pattern"], _SAMPLES + "0,1\n5\n", "row 3 has 1 fields, expected 2"),
        (["fit-pattern"], _SAMPLES + "0,1,7\n" * 4, "row 2 has 3 fields, expected 2"),
    ],
    ids=["pattern_four_fields", "pattern_two_fields", "pattern_non_numeric",
         "samples_one_field", "samples_three_fields"],
)
def test_malformed_csv_row_is_parse_error_naming_file_and_line(
    tmp_path, capsys, command, text, message
):
    source = tmp_path / "input.csv"
    source.write_text(text)
    out = tmp_path / "out.csv"
    extra = ["--components", "1"] if command == ["fit-pattern"] else ["--grid-step", "90"]
    assert main(command + [str(source), *extra, "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {source}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.csv"]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--trials", "2"], ["estimate", "wave.csv", "--offsets", "0,60,120,180"]],
    ids=["simulate", "estimate"],
)
def test_all_zero_pattern_is_parse_error_naming_amplitude(tmp_path, capsys, monkeypatch, command):
    # zero gain everywhere: simulate would find no power to scale noise to,
    # and estimate would report the flat spectrum's first angle
    monkeypatch.chdir(tmp_path)
    _write_recording(tmp_path / "wave.csv")
    Path("zero.csv").write_text(_PATTERN + "0.0,218.1,51.73\n")
    assert main([*command, "--pattern", "zero.csv", "--out", "out"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "amplitude" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wave.csv", "zero.csv"]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--trials", "400"], ["sweep-snr", "--trials", "400", "--snr-db", "10", "0"],
     ["estimate", "wave.csv"]],
    ids=["simulate", "sweep_snr", "estimate"],
)
def test_blind_sector_is_parse_error_naming_it(tmp_path, capsys, monkeypatch, command):
    # a 1 degree lobe leaves six sectors where all six elements see zero
    # gain: no trial may start, and no estimate may peak at a zero column
    monkeypatch.chdir(tmp_path)
    _write_recording(tmp_path / "wave.csv", offsets=tuple(60.0 * k for k in range(6)))
    Path("narrow.csv").write_text(_PATTERN + "1.0,100.0,1.0\n")

    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(experiments, "add_awgn", no_trial)
    assert main([*command, "--pattern", "narrow.csv", "--out", "out"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "pattern" in captured.err and "7.30-12.70, 67.30-72.70" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["narrow.csv", "wave.csv"]


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


# A subcommand has a flag only for a key its run reads: a run that draws no
# trials has no trial flags, and an element sweep, which uses the uniform
# layout of each count, has no layout flags.
_NO_SUCH_KEY = [
    *([*command, flag, "1"] for command in (["manifold"], ["estimate", "wave.csv"])
      for flag in ("--trials", "--seed", "--threshold-deg")),
    ["sweep-elements", "--elements-list", "2", "--out", "el", "--elements", "3"],
    ["sweep-elements", "--elements-list", "2", "--out", "el", "--offsets", "0,60"],
]


@pytest.mark.parametrize("argv", _NO_SUCH_KEY, ids=[argv[0] + argv[-2] for argv in _NO_SUCH_KEY])
def test_flag_rejected_where_the_run_reads_no_such_key(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_unset_values_take_the_dataclass_defaults(tmp_path):
    assert main(["simulate", "--trials", "2", "--out", str(tmp_path / "run")]) == EXIT_OK
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    cfg = TrialConfig(n_trials=2)
    layout = {
        "elements": cfg.n_elements,
        "offsets": list(cfg.array().offsets_deg),
        "grid_step": cfg.grid_step_deg,
        "pattern": [list(lobe) for lobe in DEFAULT_PATTERN.lobes],
    }
    assert summary["config"] == {
        **layout, "snr_db_fixed": cfg.snr_db, "epsilon_fixed": cfg.manifold_error,
        "trials": 2, "seed": cfg.seed, "threshold": cfg.success_threshold_deg,
    }

    _write_recording(tmp_path / "wave.csv")
    out = tmp_path / "result.json"
    code = main(["estimate", str(tmp_path / "wave.csv"), "--offsets", "0,60,120,180",
                 "--out", str(out)])
    assert code == EXIT_OK
    spec = FilterSpec()
    assert json.loads(out.read_text())["config"] == {
        **layout, "elements": 4, "offsets": [0.0, 60.0, 120.0, 180.0],
        "band_low_hz": spec.low_hz, "band_high_hz": spec.high_hz, "taps": spec.n_taps,
        "k_sigma": DEFAULT_K_SIGMA,
    }

    # the published element-sweep protocol fixes the manifold error at 0.05
    code = main(["sweep-elements", "--elements-list", "2", "--trials", "2",
                 "--out", str(tmp_path / "el")])
    assert code == EXIT_OK
    assert json.loads((tmp_path / "el.json").read_text())["config"]["epsilon_fixed"] == 0.05


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
        assert payload["config"]["trials"] == 12
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
        assert payload["config"]["elements"] == 4
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
            (["simulate"], {"schema_version": True}, "schema_version"),
            (["simulate"], {"schema_version": 1.0}, "schema_version"),
        ],
        ids=["float_seed_and_trials", "float_seed", "bool_seed", "bool_trials",
             "float_element_count", "float_taps", "bool_schema_version",
             "float_schema_version"],
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
            (["simulate"], {"offsets": [0, "60", 120, 180]}, "offsets_deg"),
        ],
        ids=["bool_snr", "string_threshold", "string_epsilon", "bool_and_string_snr_list",
             "string_in_epsilon_list", "bool_grid_step", "string_in_offsets"],
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

    @pytest.mark.parametrize(
        "command, values, message",
        [
            (["estimate", "wave.csv"], {"offsets": 5}, "offsets_deg must be a list of numbers"),
            (["manifold"], {"offsets": {"a": 1}}, "offsets_deg must be a list of numbers"),
            (["estimate", "wave.csv"], {"offsets": [[1], 60, 120, 180]},
             "offsets_deg must be a number"),
            (["estimate", "wave.csv"], {"offsets": [True, 60, 120, 180]},
             "offsets_deg must be a number"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"], {"band_low_hz": [1]},
             "low_hz must be a number"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"], {"band_low_hz": True},
             "low_hz must be a number"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"], {"band_low_hz": "abc"},
             "low_hz must be a number"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"], {"band_high_hz": "2e9"},
             "high_hz must be a number"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"], {"k_sigma": "5"},
             "k_sigma must be a number"),
            (["manifold"], {"pattern": "p.csv"}, "lobes must be a non-empty list of rows"),
            (["estimate", "wave.csv", "--offsets", "0,60,120,180"],
             {"pattern": [[0.5, 360.0, 50.0]]}, "center_deg must lie in [0, 360)"),
        ],
        ids=["scalar_offsets", "dict_offsets", "list_in_offsets", "bool_in_offsets",
             "list_band_low", "bool_band_low", "string_band_low", "string_band_high",
             "string_k_sigma", "string_pattern", "out_of_range_pattern_row"],
    )
    def test_bad_layout_or_filter_config_value_is_parse_error(
        self, tmp_path, capsys, monkeypatch, command, values, message
    ):
        monkeypatch.chdir(tmp_path)
        _write_recording(tmp_path / "wave.csv")
        (tmp_path / "config.json").write_text(json.dumps({"schema_version": 1, **values}))
        code = main(command + ["--config", "config.json", "--out", "out"])
        assert code == EXIT_PARSE
        printed = capsys.readouterr()
        assert message in printed.err
        assert printed.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "wave.csv"]

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
        assert meta["epsilon_fixed"] == 0.1
        assert meta["trials"] == 2
        assert main(base + ["--epsilon", "0.07", "--out", str(tmp_path / "flag")]) == EXIT_OK
        meta = json.loads((tmp_path / "flag.json").read_text())["config"]
        assert meta["epsilon_fixed"] == 0.07

    @pytest.mark.parametrize(
        "argv, key, replaced, settings",
        [
            (["sweep-elements", "--elements-list", "2", "4"], "elements_list",
             {"elements", "offsets"}, [2, 4]),
            (["sweep-snr", "--snr-db", "10", "0"], "snr_db", {"snr_db_fixed"}, [10.0, 0.0]),
            (["sweep-error", "--epsilon", "0.05"], "epsilon", {"epsilon_fixed"}, [0.05]),
        ],
        ids=["sweep-elements", "sweep-snr", "sweep-error"],
    )
    def test_sweep_config_omits_swept_field(self, tmp_path, argv, key, replaced, settings):
        assert main(argv + ["--trials", "2", "--out", str(tmp_path / "s")]) == EXIT_OK
        payload = json.loads((tmp_path / "s.json").read_text())
        assert payload["setting_name"] == key
        assert payload["config"][key] == settings
        assert not replaced & set(payload["config"])
        assert payload["config"]["trials"] == 2
        assert [row["setting"] for row in payload["rows"]] == settings

    def test_simulate_and_sweeps_record_the_layout_as_estimate_does(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lobes = [[0.5, 200.0, 50.0], [0.7, 150.0, 100.0]]
        dio.write_pattern_csv("p.csv", GaussianMixturePattern(lobes))
        _write_recording(tmp_path / "wave.csv")
        layout = ["--offsets", "0,60,120,180", "--pattern", "p.csv"]
        runs = ["--trials", "2"] + layout
        assert main(["simulate", *runs, "--out", "run"]) == EXIT_OK
        assert main(["sweep-snr", *runs, "--snr-db", "10", "--out", "snr"]) == EXIT_OK
        assert main(["sweep-error", *runs, "--epsilon", "0.05", "--out", "eps"]) == EXIT_OK
        el = ["sweep-elements", "--trials", "2", "--pattern", "p.csv", "--elements-list", "2"]
        assert main([*el, "--out", "el"]) == EXIT_OK
        assert main(["estimate", "wave.csv", *layout, "--out", "est.json"]) == EXIT_OK
        expected = {"elements": 4, "offsets": [0.0, 60.0, 120.0, 180.0], "pattern": lobes}
        for output in ("run_summary.json", "snr.json", "eps.json", "est.json"):
            recorded = json.loads(Path(output).read_text())["config"]
            assert {key: recorded.get(key) for key in expected} == expected
        # an element sweep re-derives the layout per row, so it records only the pattern
        recorded = json.loads(Path("el.json").read_text())["config"]
        assert recorded["pattern"] == lobes
        assert not {"elements", "offsets"} & set(recorded)

    @pytest.mark.parametrize(
        "argv, replaced",
        [
            (["sweep-elements", "--elements-list", "2", "4"], {"elements": 3, "offsets": [0, 60]}),
            (["sweep-snr", "--snr-db", "10"], {"snr_db_fixed": "abc"}),
        ],
        ids=["sweep-elements", "sweep-snr"],
    )
    def test_sweep_ignores_the_keys_its_list_replaces(self, tmp_path, monkeypatch, argv, replaced):
        monkeypatch.chdir(tmp_path)
        Path("with.json").write_text(json.dumps({"trials": 2, **replaced}))
        Path("without.json").write_text(json.dumps({"trials": 2}))
        for tag in ("with", "without"):
            assert main([*argv, "--config", f"{tag}.json", "--out", tag]) == EXIT_OK
        for suffix in (".csv", ".json"):
            assert Path("with" + suffix).read_bytes() == Path("without" + suffix).read_bytes()

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


# Each run, given its own JSON output as its only configuration, must write
# the same files: the output's config block records every setting it read.
_TRIAL_FLAGS = ["--trials", "4", "--seed", "11", "--threshold-deg", "3"]


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["simulate", "--offsets", "0,60,120,180", "--snr-db", "0", "--epsilon", "0.05",
          "--grid-step", "2", *_TRIAL_FLAGS], ["_trials.csv", "_summary.json"]),
        (["sweep-snr", "--snr-db", "10", "-5", "--elements", "4", *_TRIAL_FLAGS],
         [".csv", ".json"]),
        (["sweep-snr", "--snr-db", "10", "-5", "--epsilon", "0.05", *_TRIAL_FLAGS],
         [".csv", ".json"]),
        (["sweep-error", "--epsilon", "0", "0.1", "--snr-db", "-5", "--offsets", "0,60,120,180",
          *_TRIAL_FLAGS], [".csv", ".json"]),
        (["sweep-elements", "--elements-list", "2", "4", "--epsilon", "0.1", *_TRIAL_FLAGS],
         [".csv", ".json"]),
        (["estimate", "wave.csv", "--offsets", "0,60,120,180", "--taps", "501",
          "--k-sigma", "4.5"], [""]),
    ],
    ids=["simulate", "sweep-snr", "sweep-snr-epsilon", "sweep-error", "sweep-elements",
         "estimate"],
)
def test_own_json_output_as_config_writes_the_same_files(
    tmp_path, capsys, monkeypatch, argv, outputs
):
    monkeypatch.chdir(tmp_path)
    _write_recording(tmp_path / "wave.csv")
    params = np.array(DEFAULT_PATTERN.lobes)
    params[:, 2] *= 1.1
    dio.write_pattern_csv("pattern.csv", GaussianMixturePattern(params))
    assert main([*argv, "--pattern", "pattern.csv", "--out", "first"]) == EXIT_OK
    first_out = capsys.readouterr().out
    Path("pattern.csv").unlink()  # the rerun reads nothing but the recorded values
    config = "first" + outputs[-1]
    positional = argv[:2] if argv[0] == "estimate" else argv[:1]
    assert main([*positional, "--config", config, "--out", "second"]) == EXIT_OK
    assert capsys.readouterr().out == first_out
    for suffix in outputs:
        assert Path("second" + suffix).read_bytes() == Path("first" + suffix).read_bytes()
    assert json.loads(Path(config).read_text())["config"]["pattern"] == params.tolist()


# Each subcommand that writes JSON has a flag for exactly the keys that its
# output's config block records, and records every key it has a flag for.
@pytest.mark.parametrize(
    "argv, output",
    [
        (["simulate", "--trials", "2"], "s_summary.json"),
        (["sweep-snr", "--snr-db", "10", "--trials", "2"], "s.json"),
        (["sweep-error", "--epsilon", "0.05", "--trials", "2"], "s.json"),
        (["sweep-elements", "--elements-list", "2", "--trials", "2"], "s.json"),
        (["estimate", "wave.csv", "--offsets", "0,60,120,180"], "s"),
    ],
    ids=["simulate", "sweep-snr", "sweep-error", "sweep-elements", "estimate"],
)
def test_flags_are_the_keys_the_output_records(tmp_path, monkeypatch, argv, output):
    monkeypatch.chdir(tmp_path)
    _write_recording(tmp_path / "wave.csv")
    assert main([*argv, "--out", "s"]) == EXIT_OK
    recorded = json.loads(Path(output).read_text())["config"]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in sub.choices[argv[0]]._actions} - {"help"}
    assert dests - {"config", "pattern", "out", "recording"} == set(recorded) - {"pattern"}


class TestEstimate:
    def test_integer_band_and_offsets_write_the_same_bytes_as_floats(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        _write_recording(tmp_path / "wave.csv")
        written = []
        for tag, values in (
            ("int", {"band_low_hz": 1000000000, "band_high_hz": 2000000000,
                     "offsets": [0, 60, 120, 180]}),
            ("float", {"band_low_hz": 1.0e9, "band_high_hz": 2.0e9,
                       "offsets": [0.0, 60.0, 120.0, 180.0]}),
        ):
            Path(f"{tag}.json").write_text(json.dumps({"schema_version": 1, **values}))
            code = main(["estimate", "wave.csv", "--config", f"{tag}.json", "--out", tag])
            assert code == EXIT_OK
            written.append((capsys.readouterr().out, Path(tag).read_bytes()))
        assert written[0] == written[1]
        recorded = json.loads(written[0][1])["config"]
        assert [recorded["band_low_hz"], recorded["band_high_hz"]] == [1.0e9, 2.0e9]

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
        assert payload["config"]["elements"] == 4
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
        recorded = json.loads(out.read_text())["config"]
        assert recorded["taps"] == 501
        assert recorded["offsets"] == offsets

    def test_default_pattern_is_recorded(self, tmp_path):
        wave = tmp_path / "wave.csv"
        _write_recording(wave)
        out = tmp_path / "result.json"
        assert main(["estimate", str(wave), "--elements", "4", "--out", str(out)]) == EXIT_OK
        recorded = json.loads(out.read_text())["config"]
        assert recorded["pattern"] == [list(lobe) for lobe in DEFAULT_PATTERN.lobes]
        assert recorded["k_sigma"] == 5.0

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE
