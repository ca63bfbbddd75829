"""Ground-truth separation quality: permutation-aligned SIR/SDR and the
instantaneous-vs-convolutive comparison.

All metrics work on per-source sensor images from the simulator, passed
through the same preprocessing and demixing as the mixture; by linearity
the per-output contributions sum to the pipeline output.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .demix import PipelineConfig, PipelineResult, apply_mimo_fir, demix_pipeline
from .errors import ParameterError, UndefinedSirError
from .iva import ConvergenceTrace
from .signal import TimeSeries, highpass_dc_removal
from .simulate import SimScenario, Simulation, build_scenario
from .spectral import DemixFilterBank
from .sphering import SpheringTransform, apply_sphering

__all__ = [
    "DB_CAP",
    "MAX_ASSIGNMENT_CHANNELS",
    "SeparationReport",
    "project_images",
    "sir",
    "sdr",
    "input_sir",
    "evaluate_separation",
    "compare_instantaneous",
    "physical_path_length",
    "moving_rms",
    "trace_summary",
    "write_envelopes_csv",
]

DB_CAP = 100.0
MAX_ASSIGNMENT_CHANNELS = 6
# Samples formatted per write in write_envelopes_csv. A block's Python floats
# and strings stay well under moving_rms's temporaries, so the writer's peak
# memory is that of moving_rms; formatting the whole file at once more than
# doubles it.
_CSV_BLOCK_SAMPLES = 1024


def _db_ratio(num: float, den: float) -> float:
    """10 log10(num/den), capped to +-DB_CAP, with zero handling."""
    if num <= 0.0 and den <= 0.0:
        raise UndefinedSirError("both signal and interference power are zero")
    if num <= 0.0:
        return -DB_CAP
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * math.log10(num / den), -DB_CAP, DB_CAP))


def _own_vs_rest_db(power: np.ndarray) -> list[list[float]]:
    """ratios[s][c]: capped dB ratio of source s's power in column c to the
    other sources' power in that column; power is (sources, columns)."""
    ratios = []
    for src in range(power.shape[0]):
        row = []
        for col in range(power.shape[1]):
            own = float(power[src, col])
            row.append(_db_ratio(own, float(power[:, col].sum() - own)))
        ratios.append(row)
    return ratios


@dataclass(frozen=True)
class SeparationReport:
    """Permutation assignment plus per-output quality figures in dB."""

    assignment: tuple[int, ...]
    sir_db: tuple[float, ...]
    sdr_db: tuple[float, ...]
    sir_improvement_db: tuple[float, ...]
    input_sir_db: tuple[float, ...]
    convergence: dict | None = None

    def __post_init__(self):
        n = len(self.assignment)
        if sorted(self.assignment) != list(range(n)):
            raise ParameterError(f"assignment {self.assignment} is not a permutation")
        for name in ("sir_db", "sdr_db", "sir_improvement_db", "input_sir_db"):
            vals = getattr(self, name)
            if len(vals) != n:
                raise ParameterError(f"{name} must have {n} entries")
            object.__setattr__(self, name, tuple(float(v) for v in vals))
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def project_images(
    bank: DemixFilterBank, sphering: SpheringTransform, images: list
) -> np.ndarray:
    """Pass each source's sensor image through the fitted sphering and FIR
    bank; the images must already carry the pipeline's highpass, if any.

    Returns contributions[q, j] = what source q contributes to output j;
    their sum over q equals the pipeline output by linearity.
    """
    if not images:
        raise ParameterError("need at least one source image")
    contributions = np.empty((len(images), bank.n_channels, images[0].n_samples))
    for q, img in enumerate(images):
        if img.n_channels != bank.n_channels:
            raise ParameterError(
                f"image has {img.n_channels} channels, bank expects {bank.n_channels}"
            )
        contributions[q] = apply_mimo_fir(bank, apply_sphering(sphering, img)).data
    return contributions


def sir(contributions: np.ndarray, transient: int = 0) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Best output-to-source assignment and per-output SIR in dB.

    The assignment is an exhaustive search over all permutations (channel
    count capped at 6) maximizing the total capped SIR; power excludes the
    first `transient` samples.
    """
    contributions = np.asarray(contributions, dtype=np.float64)
    if contributions.ndim != 3 or contributions.shape[0] != contributions.shape[1]:
        raise ParameterError(f"contributions must be (sources, outputs, samples), got {contributions.shape}")
    n_src = contributions.shape[0]
    if n_src > MAX_ASSIGNMENT_CHANNELS:
        raise ParameterError(f"assignment search supports at most {MAX_ASSIGNMENT_CHANNELS} channels")
    tail = contributions[:, :, transient:]
    power = np.vecdot(tail, tail)  # (source, output), no squared copy
    if float(power.sum()) == 0.0:
        raise UndefinedSirError("all contributions are zero")
    ratios = _own_vs_rest_db(power)
    best = None
    for perm in itertools.permutations(range(n_src)):
        sirs = [ratios[perm[out]][out] for out in range(n_src)]
        total = sum(sirs)
        if best is None or total > best[0]:
            best = (total, perm, sirs)
    _, perm, sirs = best
    return tuple(perm), tuple(sirs)


def sdr(
    contributions: np.ndarray,
    images: list,
    assignment: tuple[int, ...],
    transient: int = 0,
) -> tuple[float, ...]:
    """Scale-optimal SDR per output against the assigned source's sensor
    image at its strongest sensor."""
    contributions = np.asarray(contributions, dtype=np.float64)
    outputs = contributions.sum(axis=0)  # (outputs, samples)
    values = []
    for out, src in enumerate(assignment):
        img = images[src].data[:, transient:]
        ref = img[int(np.argmax(np.sum(img**2, axis=1)))]
        y = outputs[out, transient:]
        ref_power = float(ref @ ref)
        if ref_power == 0.0:
            values.append(-DB_CAP)
            continue
        alpha = float(y @ ref) / ref_power
        target = alpha * ref
        residual = y - target
        values.append(_db_ratio(float(target @ target), float(residual @ residual)))
    return tuple(values)


def input_sir(images: list, transient: int = 0) -> tuple[float, ...]:
    """Per source, the SIR at its best unprocessed sensor."""
    power = np.stack([np.sum(img.data[:, transient:] ** 2, axis=1) for img in images])
    return tuple(max(row) for row in _own_vs_rest_db(power))


def trace_summary(trace: ConvergenceTrace | None) -> dict | None:
    """JSON-ready summary of the frequency-domain stage. The discarded
    energy describes that stage's bank, before the time-domain refinement
    replaced it, hence its iva_bank_ prefix."""
    if trace is None:
        return None
    return {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "initial_mean_update_norm": trace.mean_update_norm[0] if trace.mean_update_norm else None,
        "final_mean_update_norm": trace.mean_update_norm[-1] if trace.mean_update_norm else None,
        "iva_bank_discarded_lag_energy": trace.discarded_lag_energy,
    }


def evaluate_separation(
    bank: DemixFilterBank,
    sphering: SpheringTransform,
    images: list,
    dc_cutoff_hz: float | None = None,
    transient: int | None = None,
    trace: ConvergenceTrace | None = None,
) -> SeparationReport:
    """Full report: assignment, SIR, SDR, and improvement over the best
    unprocessed sensor, skipping the filter transient."""
    if transient is None:
        transient = bank.filter_length
    if dc_cutoff_hz is not None:
        images = [highpass_dc_removal(img, dc_cutoff_hz) for img in images]
    contributions = project_images(bank, sphering, images)
    assignment, sir_db = sir(contributions, transient)
    sdr_db = sdr(contributions, images, assignment, transient)
    in_sir = input_sir(images, transient)
    per_output_input = tuple(in_sir[src] for src in assignment)
    improvement = tuple(o - i for o, i in zip(sir_db, per_output_input))
    return SeparationReport(
        assignment=assignment,
        sir_db=sir_db,
        sdr_db=sdr_db,
        sir_improvement_db=improvement,
        input_sir_db=per_output_input,
        convergence=trace_summary(trace),
    )


def _run_and_evaluate(sim: Simulation, cfg: PipelineConfig) -> SeparationReport:
    result: PipelineResult = demix_pipeline(sim.mixed, cfg)
    return evaluate_separation(
        result.bank,
        result.sphering,
        sim.images,
        dc_cutoff_hz=cfg.dc_cutoff_hz,
        trace=result.trace,
    )


def compare_instantaneous(
    scenario: SimScenario, cfg: PipelineConfig
) -> tuple[SeparationReport, SeparationReport]:
    """Run the identical pipeline twice on one simulated mixture, once with
    an instantaneous demixer (L=1) and once with the configured length."""
    sim = build_scenario(scenario)
    cfg_inst = dc_replace(cfg, filter_length=1)
    return _run_and_evaluate(sim, cfg_inst), _run_and_evaluate(sim, cfg)


def physical_path_length(
    filter_length: int, sample_interval_s: float, velocity_m_s: float
) -> float:
    """Propagation distance spanned by an L-tap filter: v * L * Ta."""
    if filter_length <= 0 or sample_interval_s <= 0 or velocity_m_s <= 0:
        raise ParameterError("all arguments must be positive")
    return velocity_m_s * filter_length * sample_interval_s


def moving_rms(ts: TimeSeries, window_s: float = 0.05) -> np.ndarray:
    """Centered moving-RMS envelope per channel, (channels, samples)."""
    if not window_s > 0:
        raise ParameterError(f"window must be positive, got {window_s}")
    half = max(1, int(round(window_s / ts.meta.sample_interval_s))) // 2
    n = ts.n_samples
    # sums[:, half + k] is the sum of the first k squares for k in [-half, n + half]:
    # zero for k <= 0 and the total for k >= n
    sums = np.zeros((ts.n_channels, n + 2 * half + 1))
    squares = sums[:, half + 1 : half + n + 1]
    np.square(ts.data, out=squares)
    np.cumsum(squares, axis=1, out=squares)
    sums[:, half + n + 1 :] = sums[:, half + n : half + n + 1]
    # sample i averages over [max(i - half, 0), min(i + half + 1, n))
    env = sums[:, 2 * half + 1 :] - sums[:, :n]
    i = np.arange(n)
    env /= np.minimum(i + half + 1, n) - np.maximum(i - half, 0)
    return np.sqrt(env, out=env)


def write_envelopes_csv(ts: TimeSeries, path, window_s: float = 0.05) -> None:
    """CSV of envelope traces: time_s, env_out1, env_out2, ...

    One row per sample, time ``i * sample_interval_s``, every value as the
    shortest round-trip ``repr`` of its float64, CRLF line ends (the bytes
    ``csv.writer`` writes for the same rows)."""
    env = moving_rms(ts, window_s)
    interval = ts.meta.sample_interval_s
    n = ts.n_samples
    row = ",".join(["%r"] * (ts.n_channels + 1)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = ["time_s"] + [f"env_out{p + 1}" for p in range(ts.n_channels)]
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, _CSV_BLOCK_SAMPLES):
            stop = min(start + _CSV_BLOCK_SAMPLES, n)
            block = np.vstack([np.arange(start, stop) * interval, env[:, start:stop]])
            # one %-format call per block; %r gives repr of each Python float
            fh.write(row * (stop - start) % tuple(block.T.ravel().tolist()))
