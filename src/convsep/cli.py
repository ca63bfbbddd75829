"""Command-line entry point: simulate, separate, evaluate, pipeline.

Every run writes a fully resolved config echo next to its outputs;
re-running any subcommand from that echo at the same BLAS thread count
reproduces the artifacts byte-for-byte. Exit codes: 0 success,
2 usage/config/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .demix import PipelineConfig, demix_pipeline
from .errors import (
    ConvsepError,
    FormatError,
    NumericalDivergenceError,
    ParameterError,
    UndefinedSirError,
)
from .iva import IvaConfig, write_trace_csv
from .metrics import evaluate_separation, trace_summary, write_envelopes_csv
from .signal import (
    SignalMetadata,
    TimeSeries,
    _json_float,
    _json_int,
    _json_list,
    _json_str,
    read_json,
    read_raw,
    write_json,
    write_raw,
)
from .simulate import (
    SAMPLE_INTERVAL_S,
    SimScenario,
    build_scenario,
    delayed_pair_scenario,
    diagonal_scenario,
    instantaneous_pair_scenario,
    respiratory_scenario,
)
from .spectral import load_filter_bank, save_filter_bank
from .sphering import SpheringTransform

__all__ = ["main"]

SCENARIO_PRESETS = {
    "respiratory": respiratory_scenario,
    "delayed_pair": delayed_pair_scenario,
    "instantaneous_pair": instantaneous_pair_scenario,
    "diagonal": diagonal_scenario,
}


def _scenario_kind(value) -> str:
    if _json_str(value) not in SCENARIO_PRESETS:
        raise ValueError(f"expected one of {sorted(SCENARIO_PRESETS)}, got {value!r}")
    return value


# section -> {key: coercion}: the keys a run varies. "scenario" picks the
# preset its "kind" names and sets its length, "iva" fills IvaConfig, the
# others PipelineConfig; a key missing here is rejected, and a key missing
# from the config takes the dataclass (or preset) default.
CONFIG_FIELDS = {
    "scenario": {"kind": _scenario_kind, "duration_s": _json_float},
    "stft": {"filter_length": _json_int},
    "iva": {"step_size": _json_float, "max_iterations": _json_int},
    "preprocess": {"dc_cutoff_hz": lambda value: None if value is None else _json_float(value)},
}
_TOP_LEVEL_KEYS = {"seed", "out_dir", *CONFIG_FIELDS}


def _coerce(key: str, coerce, value):
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad value for {key}: {exc}") from exc


def _section_values(config: dict, section: str) -> dict:
    values = config.get(section, {})
    if not isinstance(values, dict):
        raise ParameterError(f"config section {section!r} must be a JSON object")
    fields = CONFIG_FIELDS[section]
    resolved = {}
    for key, value in values.items():
        if key not in fields:
            raise ParameterError(
                f"unknown config key {section}.{key}, expected one of {sorted(fields)}"
            )
        resolved[key] = _coerce(f"{section}.{key}", fields[key], value)
    return resolved


def _resolve(config: dict, args) -> tuple[Path, SimScenario, PipelineConfig, dict]:
    """Merge config file and CLI overrides into fully explicit settings."""
    unknown = sorted(set(config) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ParameterError(
            f"unknown config key {unknown[0]}, expected one of {sorted(_TOP_LEVEL_KEYS)}"
        )
    seed = _coerce("seed", _json_int, config.get("seed", 0))
    if args.seed is not None:
        seed = args.seed
    out_dir = _coerce("out_dir", _json_str, config.get("out_dir", "convsep_out"))
    out_dir = Path(args.out if args.out is not None else out_dir)

    sections = {section: _section_values(config, section) for section in CONFIG_FIELDS}
    for section, key, value in (
        ("stft", "filter_length", args.filter_length),
        ("iva", "step_size", args.step_size),
        ("iva", "max_iterations", args.iterations),
    ):
        if value is not None:
            sections[section][key] = value
    kind = sections["scenario"].pop("kind", "respiratory")
    scenario = SCENARIO_PRESETS[kind](seed=seed, **sections["scenario"])
    iva_cfg = IvaConfig(**sections["iva"])
    pipeline_cfg = PipelineConfig(**sections["stft"], **sections["preprocess"], iva=iva_cfg)
    # the highpass's and the separation's limits on the simulated signal
    nyquist = 0.5 / SAMPLE_INTERVAL_S
    if not (pipeline_cfg.dc_cutoff_hz or 0.0) < nyquist:
        raise ParameterError(f"preprocess.dc_cutoff_hz must be below Nyquist, {nyquist} Hz")
    two_frames = 3 * pipeline_cfg.filter_length
    if scenario.n_samples < two_frames:
        raise ParameterError(
            f"stft.filter_length needs {two_frames} samples for two frames, got {scenario.n_samples}"
        )

    sources = dict(scenario=scenario, stft=pipeline_cfg, iva=iva_cfg, preprocess=pipeline_cfg)
    echo = {"seed": seed, "out_dir": str(out_dir)}
    for section, fields in CONFIG_FIELDS.items():
        echo[section] = {key: getattr(sources[section], key) for key in fields if key != "kind"}
    echo["scenario"]["kind"] = kind
    return out_dir, scenario, pipeline_cfg, echo


def cmd_simulate(out_dir: Path, scenario: SimScenario) -> None:
    sim = build_scenario(scenario)
    write_raw(sim.mixed, out_dir / "mixed.raw", out_dir / "mixed.json")
    sources_meta = SignalMetadata(SAMPLE_INTERVAL_S, sim.sources.kinds)
    sources_ts = TimeSeries(sim.sources.signals, sources_meta)
    write_raw(sources_ts, out_dir / "sources.raw", out_dir / "sources.json")
    for q, image in enumerate(sim.images):
        write_raw(image, out_dir / f"image_src{q + 1}.raw", out_dir / f"image_src{q + 1}.json")
    kernels = sim.system.kernels
    kernel_ts = TimeSeries(
        kernels.reshape(-1, kernels.shape[2]),
        SignalMetadata(
            SAMPLE_INTERVAL_S,
            tuple(
                f"src{q + 1}->sensor{p + 1}"
                for q in range(kernels.shape[0])
                for p in range(kernels.shape[1])
            ),
        ),
    )
    write_raw(kernel_ts, out_dir / "kernels.raw", out_dir / "kernels.json")


def cmd_separate(out_dir: Path, cfg: PipelineConfig) -> None:
    mixed_path = out_dir / "mixed.raw"
    header_path = out_dir / "mixed.json"
    if not mixed_path.exists() or not header_path.exists():
        raise FormatError(f"no input signal at {mixed_path}; run `convsep simulate` first")
    mixed = read_raw(mixed_path, header_path)
    result = demix_pipeline(mixed, cfg)
    write_raw(result.separated, out_dir / "separated.raw", out_dir / "separated.json")
    save_filter_bank(result.bank, out_dir / "filterbank.raw", out_dir / "filterbank.json")
    write_trace_csv(result.trace, out_dir / "convergence.csv")
    report = {
        "filter_length": cfg.filter_length,
        "sphering": {
            "matrix": result.sphering.matrix.tolist(),
            "eigenvalues": result.sphering.eigenvalues.tolist(),
            "regularization_eps": result.sphering.regularization_eps,
        },
        "iva": trace_summary(result.trace),
        "refinement": result.refinement.to_dict(),
    }
    write_json(report, out_dir / "run_report.json")


def cmd_evaluate(out_dir: Path, scenario: SimScenario, cfg: PipelineConfig) -> None:
    bank_path = out_dir / "filterbank.raw"
    run_report_path = out_dir / "run_report.json"
    if not bank_path.exists() or not run_report_path.exists():
        raise FormatError(f"no separation artifacts in {out_dir}; run `convsep separate` first")
    images = []
    for q in range(scenario.n_sources):
        raw = out_dir / f"image_src{q + 1}.raw"
        header = out_dir / f"image_src{q + 1}.json"
        if not raw.exists() or not header.exists():
            raise FormatError(f"missing ground-truth image {raw}; run `convsep simulate` first")
        images.append(read_raw(raw, header))
    bank = load_filter_bank(bank_path, out_dir / "filterbank.json")
    run_report = read_json(run_report_path, "run report")
    try:
        sph = run_report["sphering"]
        transform = SpheringTransform(
            np.asarray(_json_list(_json_list(_json_float))(sph["matrix"])),
            np.asarray(_json_list(_json_float)(sph["eigenvalues"])),
            _json_float(sph["regularization_eps"]),
        )
        convergence, refinement = run_report["iva"], run_report["refinement"]
        if not isinstance(convergence, dict) or not isinstance(refinement, dict):
            raise ValueError("iva and refinement must be JSON objects")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot read run report {run_report_path}: {exc}") from exc
    report = evaluate_separation(bank, transform, images, dc_cutoff_hz=cfg.dc_cutoff_hz)
    payload = report.to_dict()
    payload["convergence"] = convergence
    payload["refinement"] = refinement
    write_json(payload, out_dir / "report.json")
    separated = read_raw(out_dir / "separated.raw", out_dir / "separated.json")
    write_envelopes_csv(separated, out_dir / "envelopes.csv")


def _run(args) -> int:
    config = {} if args.config is None else read_json(args.config, "config")
    out_dir, scenario, cfg, echo = _resolve(config, args)
    # separate and evaluate read their inputs from out_dir, so only simulate makes it
    if args.command in ("simulate", "pipeline"):
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd_simulate(out_dir, scenario)
    if args.command in ("separate", "pipeline"):
        cmd_separate(out_dir, cfg)
    if args.command in ("evaluate", "pipeline"):
        cmd_evaluate(out_dir, scenario, cfg)
    write_json(echo, out_dir / "config_echo.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsep",
        description="Convolutive blind source separation of synthetic respiratory EMG.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "generate a mixture with ground truth"),
        ("separate", "fit sphering + demixing filters and separate"),
        ("evaluate", "score a separation against ground truth"),
        ("pipeline", "simulate, separate, and evaluate in one run"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--filter-length", type=int, help="demixing filter length L (power of two)"
        )
        p.add_argument("--step-size", type=float, help="separation step size")
        p.add_argument("--iterations", type=int, help="maximum separation iterations")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (NumericalDivergenceError, UndefinedSirError) as exc:
        print(f"convsep: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConvsepError, OSError) as exc:
        print(f"convsep: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
