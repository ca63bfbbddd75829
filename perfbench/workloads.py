"""The benchmark's three jobs, driven only through convsep's public
functions and its CLI entry point.

Every call into convsep goes through a module attribute looked up at call
time (``demix.demix_pipeline``, ``metrics.evaluate_separation``, ...), so
the tracer can wrap those attributes without touching the package.

The caller must put the repository's ``src`` directory on ``sys.path``
and fix the BLAS thread count before importing this module.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from convsep import cli, demix, metrics, simulate
from convsep.demix import PipelineConfig
from convsep.iva import IvaConfig

from check import Outcome, digest, snapshot, snapshot_diff

# Same settings as the acceptance suite's BENCH_CFG and PAIR_CFG
# (tests/test_acceptance.py); the benchmark must time the job the suite gates.
FLAGSHIP_CFG = PipelineConfig(
    filter_length=64,
    dc_cutoff_hz=15.0,
    iva=IvaConfig(step_size=0.003, max_iterations=400),
)
PAIR_CFG = PipelineConfig(
    filter_length=64,
    dc_cutoff_hz=15.0,
    iva=IvaConfig(step_size=0.02, max_iterations=400),
)
FLAGSHIP_DURATION_S = 60.0
# Tens of iterations, so the CLI's I/O, CSV and evaluation layers are a
# large share of the job rather than a rounding error next to IVA.
CLI_ITERATIONS = 40


@dataclass
class Inputs:
    """A job's inputs; iterations, when set, overrides the IVA budget."""

    payload: object
    iterations: int | None = None


def _with_iterations(cfg: PipelineConfig, iterations: int | None) -> PipelineConfig:
    if iterations is None:
        return cfg
    return dataclasses.replace(cfg, iva=dataclasses.replace(cfg.iva, max_iterations=iterations))


def _report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


def emg_ecg_gains(kinds, report: dict) -> tuple[float, float | None]:
    """Mean SIR improvement over the EMG outputs, and the ECG output's
    improvement (None when the scenario has no ECG)."""
    emg, ecg = [], None
    for out, src in enumerate(report["assignment"]):
        gain = float(report["sir_improvement_db"][out])
        if kinds[src].startswith("emg"):
            emg.append(gain)
        elif kinds[src] == "ecg":
            ecg = gain
    return float(np.mean(emg)), ecg


# --- flagship: respiratory scenario, demix_pipeline + evaluate_separation ---

def flagship_inputs(seed: int, workdir: Path) -> Inputs:
    scenario = simulate.respiratory_scenario(seed=seed, duration_s=FLAGSHIP_DURATION_S)
    return Inputs((scenario, simulate.build_scenario(scenario)))


def flagship_run(inputs: Inputs):
    _, sim = inputs.payload
    cfg = _with_iterations(FLAGSHIP_CFG, inputs.iterations)
    result = demix.demix_pipeline(sim.mixed, cfg)
    report = metrics.evaluate_separation(
        result.bank, result.sphering, sim.images, dc_cutoff_hz=cfg.dc_cutoff_hz, trace=result.trace
    )
    return result, report


def flagship_outcome(inputs: Inputs, produced) -> Outcome:
    scenario, _ = inputs.payload
    result, report = produced
    report = report.to_dict()
    emg, ecg = emg_ecg_gains(scenario.source_kinds, report)
    return Outcome(
        fingerprint=digest(_report_bytes(report), result.bank.coeffs.tobytes()),
        arrays=[result.separated.data, result.bank.coeffs],
        quality={"emg_sir_gain_db": emg, "ecg_sir_gain_db": ecg},
    )


# --- pair-l1-l64: criterion 2's instantaneous-vs-convolutive comparison ---

def pair_inputs(seed: int, workdir: Path) -> Inputs:
    return Inputs(simulate.delayed_pair_scenario(seed=seed))


def pair_run(inputs: Inputs):
    return metrics.compare_instantaneous(inputs.payload, _with_iterations(PAIR_CFG, inputs.iterations))


def pair_outcome(inputs: Inputs, produced) -> Outcome:
    inst, conv = (report.to_dict() for report in produced)
    emg, _ = emg_ecg_gains(inputs.payload.source_kinds, conv)
    gap = float(np.mean(conv["sir_db"]) - np.mean(inst["sir_db"]))
    return Outcome(
        fingerprint=digest(_report_bytes(inst), _report_bytes(conv)),
        arrays=[np.asarray(r["sir_db"] + r["sdr_db"]) for r in (inst, conv)],
        quality={"emg_sir_gain_db": emg, "sir_gap_db": gap},
    )


# --- cli-roundtrip: `convsep pipeline`, then separate + evaluate from the echo ---

def cli_inputs(seed: int, workdir: Path) -> Inputs:
    out_dir = workdir / "out"
    config = {
        "seed": seed,
        "out_dir": str(out_dir),
        "scenario": {"kind": "respiratory", "duration_s": FLAGSHIP_DURATION_S},
        "stft": {"filter_length": FLAGSHIP_CFG.filter_length},
        "iva": {"step_size": FLAGSHIP_CFG.iva.step_size, "max_iterations": CLI_ITERATIONS},
        "preprocess": {"dc_cutoff_hz": FLAGSHIP_CFG.dc_cutoff_hz},
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return Inputs((config_path, out_dir))


def cli_run(inputs: Inputs):
    config_path, out_dir = inputs.payload
    shutil.rmtree(out_dir, ignore_errors=True)
    budget = [] if inputs.iterations is None else ["--iterations", str(inputs.iterations)]
    return cli.main(["pipeline", "--config", str(config_path), *budget])


def cli_outcome(inputs: Inputs, produced) -> Outcome:
    """Reruns separate + evaluate from config_echo.json: every byte must match."""
    _, out_dir = inputs.payload
    problems = [] if produced == 0 else [f"convsep pipeline exited with {produced}"]
    first = snapshot(out_dir)
    echo = str(out_dir / "config_echo.json")
    for command in ("separate", "evaluate"):
        code = cli.main([command, "--config", echo])
        if code != 0:
            problems.append(f"rerun of {command} from the echo exited with {code}")
    changed = snapshot_diff(first, snapshot(out_dir))
    if changed:
        problems.append(f"artifacts changed on rerun from the echo: {changed}")
    report = json.loads(first["report.json"])
    emg, ecg = emg_ecg_gains(simulate.respiratory_scenario().source_kinds, report)
    return Outcome(
        fingerprint=digest(*(name.encode() + data for name, data in first.items())),
        arrays=[
            np.frombuffer(first["separated.raw"], dtype="<f4"),
            np.frombuffer(first["filterbank.raw"], dtype="<f8"),
        ],
        quality={"emg_sir_gain_db": emg, "ecg_sir_gain_db": ecg},
        problems=problems,
        out_dir_bytes=sum(len(data) for data in first.values()),
    )


@dataclass(frozen=True)
class Workload:
    """make_inputs is set-up; run is the timed job; outcome is the untimed check."""

    make_inputs: object
    run: object
    outcome: object


WORKLOADS = {
    "flagship": Workload(flagship_inputs, flagship_run, flagship_outcome),
    "pair-l1-l64": Workload(pair_inputs, pair_run, pair_outcome),
    "cli-roundtrip": Workload(cli_inputs, cli_run, cli_outcome),
}
