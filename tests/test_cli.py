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
from convsep.spectral import load_filter_bank


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
            ({"scenario": {"source_kinds": 3}}, "scenario.source_kinds"),
            ({"scenario": {"kind": ["x"]}}, "scenario.kind"),
            ({"scenario": {"kernel_length": 16.5}}, "scenario.kernel_length"),
            ({"scenario": {"emg_gain": "x"}}, "scenario.emg_gain"),
            ({"scenario": {"ecg_bpm": True}}, "scenario.ecg_bpm"),
            ({"scenario": {"breath_period_s": 0}}, "breath_period_s"),
            ({"scenario": {"ecg_bpm": 0}}, "ecg_bpm"),
            ({"scenario": {"conduction_velocity_m_s": 0.5}}, "conduction_velocity_m_s"),
            ({"iva": {"convergence_tol": float("nan")}}, "convergence_tol"),
            ({"seed": -1}, "seed"),
            ({"scenario": {"emg_gain": float("nan")}}, "emg_gain"),
            ({"scenario": {"sensor_spacing_m": -0.015}}, "sensor_spacing_m"),
            ({"iva": {"norm_guard": float("inf")}}, "norm_guard"),
            ({"iva": {"convergence_tol": float("inf")}}, "convergence_tol"),
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
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, overrides, key):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_list_valued_scenario_reruns_from_echo(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            scenario={
                "duration_s": 6,
                "source_kinds": ["emg", "emg_expiratory", "ecg", "noise"],
                "firing_rates_hz": [12, 20.5, 0, 0],
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg)]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["scenario"]["duration_s"] == 6.0
        assert echo["scenario"]["firing_rates_hz"] == [12.0, 20.5, 0.0, 0.0]
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["simulate", "--config", str(out / "config_echo.json")]) == 0
        for name, payload in snapshot.items():
            assert (out / name).read_bytes() == payload, f"{name} changed on rerun"


# Every config key; adding, renaming or removing one must be deliberate.
CONFIG_KEYS = {
    "scenario": {
        "kind", "n_sources", "kernel_length", "duration_s", "sample_interval_s",
        "source_kinds", "firing_rates_hz", "source_depths_m", "breath_period_s", "ecg_bpm",
        "emg_gain", "ecg_gain", "noise_gain", "conduction_velocity_m_s", "sensor_spacing_m",
        "lateral_attenuation", "end_of_fiber_amp", "kernel_gain_jitter", "mixing",
    },
    "stft": {"filter_length"},
    "iva": {"step_size", "max_iterations", "convergence_tol", "norm_guard"},
    "preprocess": {"dc_cutoff_hz", "sphering"},
}


def test_config_key_set_is_pinned(tmp_path):
    assert {section: set(fields) for section, fields in CONFIG_FIELDS.items()} == CONFIG_KEYS
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["simulate", "--config", str(cfg)]) == 0
    echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
    assert set(echo) == {"seed", "out_dir", *CONFIG_KEYS}
    assert {section: set(echo[section]) for section in CONFIG_KEYS} == CONFIG_KEYS


class TestSeparateCommand:
    def test_missing_input_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["separate", "--config", str(cfg)]) == 2

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


class TestNumericalFailure:
    def test_divergence_exits_3(self, tmp_path, capsys):
        # no sphering + a too-large step on the 1000x mixture blows up fast
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            iva={"step_size": 0.5, "max_iterations": 50},
            preprocess={"sphering": False, "dc_cutoff_hz": None},
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
        assert sorted(report["assignment"]) == [0, 1, 2, 3]
        assert len(report["sir_db"]) == 4
        env_lines = (tmp_path / "out" / "envelopes.csv").read_text().splitlines()
        assert env_lines[0] == "time_s,env_out1,env_out2,env_out3,env_out4"

    def test_missing_ground_truth_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["evaluate", "--config", str(cfg)]) == 2

    def test_missing_image_exits_2(self, tmp_path, capsys, separated_diagonal):
        out = tmp_path / "out"
        shutil.copytree(separated_diagonal, out)
        (out / "image_src2.raw").unlink()
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scenario={"kind": "diagonal", "duration_s": 4.0})
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "image_src2.raw" in capsys.readouterr().err
        assert not (out / "report.json").exists()

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
