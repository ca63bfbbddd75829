import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convsep
from convsep.cli import CONFIG_FIELDS, main
from convsep.metrics import SeparationReport, moving_rms
from convsep.signal import SignalMetadata, TimeSeries, read_raw, write_raw
from convsep.spectral import load_filter_bank

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(path, **overrides):
    config = {
        "seed": 5,
        "out_dir": str(path.parent / "out"),
        "scenario": {"kind": "respiratory", "duration_s": 6.0},
        "stft": {"filter_length": 16},
        "iva": {"step_size": 0.005, "max_iterations": 30},
        "preprocess": {"dc_cutoff_hz": 15.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return config


class TestSimulateCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("mixed.raw", "mixed.json", "sources.raw", "kernels.raw", "config_echo.json"):
            assert (out / name).exists(), name
        header = json.loads((out / "mixed.json").read_text())
        assert header["channels"] == 4
        assert header["sample_interval_s"] == pytest.approx(0.976e-3)
        for q in range(4):
            assert (out / f"image_src{q + 1}.raw").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "mixed.raw").read_bytes()
        b = (tmp_path / "b" / "mixed.raw").read_bytes()
        assert a == b

    def test_seed_override_changes_signal(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "mixed.raw").read_bytes()
        b = (tmp_path / "b" / "mixed.raw").read_bytes()
        assert a != b

    def test_invalid_filter_length_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, stft={"filter_length": 48})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"stft": {"filter_lenght": 16}}, "filter_lenght"),
            ({"iva": {"step_sise": 0.5}}, "step_sise"),
            ({"preprocess": {"dc_cutof_hz": 15.0}}, "dc_cutof_hz"),
            ({"postprocess": {}}, "postprocess"),
            ({"stft": {"window": "zeropad"}}, "window"),
            ({"stft": {"hop": 16}}, "hop"),
            ({"preprocess": {"eigenvalue_floor": 1e-10}}, "eigenvalue_floor"),
            ({"preprocess": {"sphering": "false"}}, "sphering"),
            ({"scenario": {"seed": 3}}, "scenario.seed"),
            ({"scenario": {"n_sensors": 4}}, "scenario.n_sensors"),
            # settings that are constants now, at the values older echoes wrote
            ({"scenario": {"kernel_length": 16}}, "scenario.kernel_length"),
            ({"scenario": {"sample_interval_s": 0.976e-3}}, "scenario.sample_interval_s"),
            ({"scenario": {"breath_period_s": 4.0}}, "scenario.breath_period_s"),
            ({"scenario": {"ecg_bpm": 70.0}}, "scenario.ecg_bpm"),
            ({"scenario": {"emg_gain": 1.0}}, "scenario.emg_gain"),
            ({"scenario": {"ecg_gain": 1000.0}}, "scenario.ecg_gain"),
            ({"scenario": {"noise_gain": 0.1}}, "scenario.noise_gain"),
            ({"scenario": {"conduction_velocity_m_s": 4.0}}, "scenario.conduction_velocity_m_s"),
            ({"iva": {"norm_guard": None}}, "iva.norm_guard"),
            # keys no run varied, at the values older echoes wrote
            ({"scenario": {"n_sources": 4}}, "scenario.n_sources"),
            ({"scenario": {"source_kinds": ["emg", "emg"]}}, "scenario.source_kinds"),
            ({"scenario": {"firing_rates_hz": [13.0, 21.0]}}, "scenario.firing_rates_hz"),
            ({"scenario": {"source_depths_m": [0.01, 0.01]}}, "scenario.source_depths_m"),
            ({"scenario": {"sensor_spacing_m": 0.015}}, "scenario.sensor_spacing_m"),
            ({"scenario": {"lateral_attenuation": 1.5}}, "scenario.lateral_attenuation"),
            ({"scenario": {"end_of_fiber_amp": 0.3}}, "scenario.end_of_fiber_amp"),
            ({"scenario": {"kernel_gain_jitter": 0.0}}, "scenario.kernel_gain_jitter"),
            ({"scenario": {"mixing": "convolutive"}}, "scenario.mixing"),
            ({"iva": {"convergence_tol": 1e-6}}, "iva.convergence_tol"),
            ({"preprocess": {"sphering": True}}, "preprocess.sphering"),
        ],
    )
    def test_bad_config_key_exits_2(self, tmp_path, capsys, overrides, key):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"seed": "x"}, "seed"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"scenario": 3}, "scenario"),
            ({"out_dir": 3}, "out_dir"),
            ({"stft": {"filter_length": 64.9}}, "filter_length"),
            ({"iva": {"max_iterations": 2.5}}, "max_iterations"),
            ({"iva": {"max_iterations": True}}, "max_iterations"),
            ({"iva": {"step_size": True}}, "step_size"),
            ({"preprocess": {"dc_cutoff_hz": True}}, "dc_cutoff_hz"),
            ({"scenario": {"kind": ["x"]}}, "scenario.kind"),
            ({"seed": -1}, "seed"),
            ({"preprocess": {"dc_cutoff_hz": float("inf")}}, "dc_cutoff_hz"),
            ({"scenario": {"kind": "bogus"}}, "scenario.kind"),
            (
                {"scenario": {"kind": "diagonal", "duration_s": 2.0}, "preprocess": {"dc_cutoff_hz": 600.0}},
                "preprocess.dc_cutoff_hz",
            ),
            (
                {"scenario": {"kind": "diagonal", "duration_s": 2.0}, "stft": {"filter_length": 1024}},
                "stft.filter_length",
            ),
            # JSON integers too large for a float
            ({"scenario": {"duration_s": 10**400}}, "scenario.duration_s"),
            ({"preprocess": {"dc_cutoff_hz": 10**400}}, "preprocess.dc_cutoff_hz"),
            ({"iva": {"step_size": 10**400}}, "iva.step_size"),
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, overrides, key):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convsep: error:") and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_long_config_number_is_named_and_cut(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"duration_s": 10**400})
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "scenario.duration_s" in err and len(err) < 200

    def test_readme_full_config_runs(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        block = text.split("A full config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        config = json.loads(block)
        assert set(config) == {"seed", "out_dir", *CONFIG_FIELDS}
        assert {section: set(config[section]) for section in CONFIG_FIELDS} == {
            section: set(fields) for section, fields in CONFIG_FIELDS.items()
        }
        config["out_dir"] = str(tmp_path / "out")
        config["scenario"]["duration_s"] = 2.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--seed", "-5"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_two_frame_limit_is_the_separations(self, tmp_path):
        # 48 samples hold exactly two 32-point frames one filter length (16) apart
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 48 * 0.976e-3})
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "out" / "mixed.json").read_text())["samples"] == 48
        assert main(["separate", "--config", str(cfg)]) == 0
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 47 * 0.976e-3})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "short")]) == 2
        assert not (tmp_path / "short").exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seed=5.0, stft={"filter_length": 16.0})
        assert main(["simulate", "--config", str(cfg)]) == 0
        echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
        assert echo["seed"] == 5 and echo["stft"]["filter_length"] == 16


# Every config key; adding, renaming or removing one must be deliberate.
CONFIG_KEYS = {
    "scenario": {"kind", "duration_s"},
    "stft": {"filter_length"},
    "iva": {"step_size", "max_iterations"},
    "preprocess": {"dc_cutoff_hz"},
}


def test_config_key_set_is_pinned(tmp_path):
    assert {section: set(fields) for section, fields in CONFIG_FIELDS.items()} == CONFIG_KEYS
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["simulate", "--config", str(cfg)]) == 0
    echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
    assert set(echo) == {"seed", "out_dir", *CONFIG_KEYS}
    assert {section: set(echo[section]) for section in CONFIG_KEYS} == CONFIG_KEYS


RUN_REPORT_KEYS = {
    "sphering": {"matrix", "eigenvalues"},
    "iva": {
        "iterations", "converged", "initial_mean_update_norm", "final_mean_update_norm",
        "iva_bank_discarded_lag_energy",
    },
    "refinement": {"output", "accepted", "steps", "contrast_before", "contrast_after"},
}


def test_run_report_key_set_is_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert set(report) == set(RUN_REPORT_KEYS)
    assert {section: set(report[section]) for section in RUN_REPORT_KEYS} == RUN_REPORT_KEYS


@pytest.mark.parametrize(
    "command, message", [("separate", "no input signal"), ("evaluate", "no separation artifacts")]
)
def test_missing_inputs_leave_no_out_dir(tmp_path, capsys, command, message):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "nothere")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "nothere").exists()


class TestSeparateCommand:
    def test_missing_input_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["separate", "--config", str(cfg)]) == 2

    def test_header_interval_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        recording = TimeSeries(np.ones((1, 64)), SignalMetadata(1e-3, ("a",)))
        write_raw(recording, out / "mixed.raw", out / "mixed.json")
        header = json.loads((out / "mixed.json").read_text())
        (out / "mixed.json").write_text(json.dumps({**header, "sample_interval_s": 10**400}))
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["separate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convsep: error:") and "mixed.json" in err

    def test_header_declaring_no_channels_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        recording = TimeSeries(np.ones((1, 64)), SignalMetadata(1e-3, ("a",)))
        write_raw(recording, out / "mixed.raw", out / "mixed.json")
        header = json.loads((out / "mixed.json").read_text())
        (out / "mixed.json").write_text(json.dumps({**header, "channels": 0}))
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["separate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convsep: error:") and "mixed.json" in err

    def test_header_with_a_long_count_exits_2_on_one_short_line(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        recording = TimeSeries(np.ones((1, 64)), SignalMetadata(1e-3, ("a",)))
        write_raw(recording, out / "mixed.raw", out / "mixed.json")
        header = json.loads((out / "mixed.json").read_text())
        (out / "mixed.json").write_text(json.dumps({**header, "channels": 10**400}))
        write_config(tmp_path / "cfg.json", out_dir="out")
        assert main(["separate", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convsep: error:") and err.count("\n") == 1 and len(err) < 200
        assert "mixed.json" in err and "channels=1000" in err

    def test_filter_length_flag_reaches_bank(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["separate", "--config", str(cfg), "--filter-length", "1"]) == 0
        bank = load_filter_bank(tmp_path / "out" / "filterbank.raw", tmp_path / "out" / "filterbank.json")
        assert bank.filter_length == 1
        header = json.loads((tmp_path / "out" / "filterbank.json").read_text())
        assert header == {"P": 2, "L": 1}

    def test_identity_scenario_bank_close_to_identity(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            scenario={"kind": "diagonal", "duration_s": 30.0},
            stft={"filter_length": 8},
            iva={"step_size": 0.005, "max_iterations": 60},
            preprocess={"dc_cutoff_hz": None},
        )
        assert main(["pipeline", "--config", str(cfg)]) == 0
        bank = load_filter_bank(tmp_path / "out" / "filterbank.raw", tmp_path / "out" / "filterbank.json")
        identity = np.zeros((2, 2, 8))
        identity[0, 0, 0] = identity[1, 1, 0] = 1.0
        rel = np.linalg.norm(bank.coeffs - identity) / np.linalg.norm(identity)
        assert rel < 0.1

    def test_convergence_csv_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        main(["pipeline", "--config", str(cfg)])
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iteration,mean_update_norm,max_update_norm"
        assert len(lines) == 31  # 30 iterations + header

    def test_recording_without_ground_truth_gets_envelopes(self, tmp_path, capsys):
        # a recording from outside the simulator: a mixture and nothing else
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(3)
        recording = np.array([[1.0, 0.5], [0.3, 1.0]]) @ rng.laplace(size=(2, 4096))
        meta = SignalMetadata(1e-3, ("left", "right"))
        write_raw(TimeSeries(recording, meta), out / "mixed.raw", out / "mixed.json")
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        assert main(["separate", "--config", str(cfg)]) == 0
        header = json.loads((out / "separated.json").read_text())
        assert header["labels"] == ["out1", "out2"]
        separated = read_raw(out / "separated.raw", out / "separated.json")
        env_lines = (out / "envelopes.csv").read_bytes().split(b"\r\n")
        assert env_lines[0] == b"time_s,env_out1,env_out2"
        got = np.array([[float(v) for v in line.split(b",")] for line in env_lines[1:-1]])
        np.testing.assert_allclose(got[:, 1:], moving_rms(separated).T, rtol=5e-9, atol=0)
        # scoring needs the simulator's images: evaluate names the first and writes nothing
        snapshot = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "image_src1.raw" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == snapshot


class TestNumericalFailure:
    def test_divergence_exits_3(self, tmp_path, capsys):
        # a too-large step on the sphered 1000x-ECG mixture blows up fast
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, iva={"step_size": 0.5, "max_iterations": 50}, preprocess={"dc_cutoff_hz": None}
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["separate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "iteration" in err


@pytest.fixture(scope="module")
def separated_diagonal(tmp_path_factory):
    """out_dir of a simulate + separate run on a 4 s diagonal scenario."""
    cfg = tmp_path_factory.mktemp("separated") / "cfg.json"
    write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["separate", "--config", str(cfg)]) == 0
    return cfg.parent / "out"


def with_sphering(report, **entries):
    return json.dumps({**report, "sphering": {**report["sphering"], **entries}})


# corrupt run_report.json -> its text, from the valid report
CORRUPT_RUN_REPORTS = {
    "missing-key": lambda report: json.dumps({"sphering": {}}),
    "not-json": lambda report: "nope",
    "ragged-matrix": lambda report: with_sphering(
        report, matrix=[row[: i + 1] for i, row in enumerate(report["sphering"]["matrix"])]
    ),
    "string-matrix": lambda report: with_sphering(report, matrix="ab"),
    "not-an-object": lambda report: "[1, 2]",
}


class TestEvaluateCommand:
    def test_report_written_and_valid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # the scorer's own fields, and nothing copied from run_report.json
        assert set(report) == {field.name for field in dataclasses.fields(SeparationReport)}
        assert report["convergence"] is None
        assert sorted(report["assignment"]) == [0, 1, 2, 3]
        assert len(report["sir_db"]) == 4
        out = tmp_path / "out"
        separated = read_raw(out / "separated.raw", out / "separated.json")
        env_lines = (out / "envelopes.csv").read_bytes().split(b"\r\n")
        assert env_lines[0] == b"time_s,env_out1,env_out2,env_out3,env_out4"
        assert env_lines[-1] == b""
        assert len(env_lines) - 1 == separated.n_samples + 1
        got = np.array([[float(v) for v in line.split(b",")] for line in env_lines[1:-1]])
        np.testing.assert_allclose(got[:, 1:], moving_rms(separated).T, rtol=5e-9, atol=0)

    def test_missing_ground_truth_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["evaluate", "--config", str(cfg)]) == 2

    def test_missing_image_exits_2(self, tmp_path, capsys, separated_diagonal):
        # a missing input is named before anything is written
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        out = tmp_path / "out"
        shutil.copytree(separated_diagonal, out)
        (out / "image_src2.raw").unlink()
        envelopes = (out / "envelopes.csv").read_bytes()
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "image_src2.raw" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert (out / "envelopes.csv").read_bytes() == envelopes

    @pytest.mark.parametrize("damage", ["truncated", "deleted"])
    def test_scores_without_separated_signal(self, tmp_path, separated_diagonal, damage):
        # scoring reads the bank, the run report and the images, never separated.*
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        untouched, out = tmp_path / "untouched", tmp_path / "out"
        shutil.copytree(separated_diagonal, untouched)
        assert main(["evaluate", "--config", str(cfg), "--out", str(untouched)]) == 0
        shutil.copytree(separated_diagonal, out)
        if damage == "truncated":
            with open(out / "separated.raw", "r+b") as fh:
                fh.truncate(1000)
        else:
            (out / "separated.raw").unlink()
            (out / "separated.json").unlink()
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert (out / "report.json").read_bytes() == (untouched / "report.json").read_bytes()

    def test_scores_from_the_sphering_section_alone(self, tmp_path, separated_diagonal):
        # the scorer reads nothing of the separation stage's own record
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        full, out = tmp_path / "full", tmp_path / "out"
        shutil.copytree(separated_diagonal, full)
        assert main(["evaluate", "--config", str(cfg), "--out", str(full)]) == 0
        shutil.copytree(separated_diagonal, out)
        report = json.loads((out / "run_report.json").read_text())
        (out / "run_report.json").write_text(json.dumps({"sphering": report["sphering"]}))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert (out / "report.json").read_bytes() == (full / "report.json").read_bytes()

    def test_non_finite_bank_names_the_file(self, tmp_path, capsys, separated_diagonal):
        out = tmp_path / "out"
        shutil.copytree(separated_diagonal, out)
        with open(out / "filterbank.raw", "r+b") as fh:
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "filterbank.raw" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_bank_header_with_a_long_count_exits_2_on_one_short_line(
        self, tmp_path, monkeypatch, capsys, separated_diagonal
    ):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(separated_diagonal, tmp_path / "out")
        (tmp_path / "out" / "filterbank.json").write_text(json.dumps({"P": 10**400, "L": 16}))
        scenario = {"kind": "diagonal", "duration_s": 4.0}
        write_config(tmp_path / "cfg.json", out_dir="out", scenario=scenario)
        assert main(["evaluate", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convsep: error:") and err.count("\n") == 1 and len(err) < 200
        assert "filterbank.json" in err and "P=1000" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("corruption", sorted(CORRUPT_RUN_REPORTS))
    def test_corrupt_run_report_exits_2(self, tmp_path, capsys, separated_diagonal, corruption):
        out = tmp_path / "out"
        shutil.copytree(separated_diagonal, out)
        report_path = out / "run_report.json"
        report = json.loads(report_path.read_text())
        report_path.write_text(CORRUPT_RUN_REPORTS[corruption](report))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "run_report.json" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestReproducibility:
    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["pipeline", "--config", str(out / "config_echo.json")]) == 0
        for name, payload in snapshot.items():
            assert (out / name).read_bytes() == payload, f"{name} changed on rerun"
        assert len(list(out.iterdir())) == len(snapshot)

    def test_rerun_writes_each_artifact_to_a_new_file(self, tmp_path):
        # each rewritten artifact is unlinked, then written afresh; the hard
        # links keep the old inodes alive, so their numbers cannot be reused
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["pipeline", "--config", str(cfg)]) == 0
        out, old = tmp_path / "out", tmp_path / "old"
        old.mkdir()
        for path in out.iterdir():
            os.link(path, old / path.name)
        echo = str(out / "config_echo.json")
        assert main(["separate", "--config", echo]) == 0
        assert main(["evaluate", "--config", echo]) == 0
        rewritten = {
            path.name for path in out.iterdir()
            if path.stat().st_ino != (old / path.name).stat().st_ino
        }
        assert rewritten == {
            "separated.raw", "separated.json", "filterbank.raw", "filterbank.json",
            "convergence.csv", "run_report.json", "report.json", "envelopes.csv",
            "config_echo.json",
        }
        for path in out.iterdir():
            assert path.read_bytes() == (old / path.name).read_bytes(), f"{path.name} changed"


class TestEchoGuard:
    @pytest.mark.parametrize(
        "command, scenario, flags, ours, theirs",
        [
            ("evaluate", {}, ["--seed", "9"], "seed is 9", "seed 5"),
            ("separate", {}, ["--seed", "9"], "seed is 9", "seed 5"),
            ("separate", {"duration_s": 5.0}, [], "'duration_s': 5.0", "'duration_s': 4.0"),
            ("evaluate", {"kind": "delayed_pair"}, [], "'kind': 'delayed_pair'", "'kind': 'diagonal'"),
        ],
    )
    def test_other_seed_or_scenario_exits_2_and_writes_nothing(
        self, tmp_path, capsys, command, scenario, flags, ours, theirs
    ):
        # the inputs in out_dir came from the echo's seed and scenario;
        # running on them under others would rewrite the echo to settings
        # that no longer reproduce them
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0}, iva={"max_iterations": 20})
        assert main(["pipeline", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        snapshot = {path.name: path.read_bytes() for path in out.iterdir()}
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0, **scenario})
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert ours in err and theirs in err and "config_echo.json" in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == snapshot
        assert main([command, "--config", str(out / "config_echo.json")]) == 0


class TestStartup:
    def test_import_loads_no_scipy(self):
        # the CLI is started once per run, so every module it imports is paid on every run
        src = Path(convsep.__file__).resolve().parents[1]
        code = (
            "import convsep.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert done.stdout.strip() == "[]"
