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
from .signal import TimeSeries, _open_new, highpass_dc_removal
from .simulate import (
    CONDUCTION_VELOCITY_M_S,
    SAMPLE_INTERVAL_S,
    SimScenario,
    build_scenario,
)
from .spectral import DemixFilterBank
from .sphering import SpheringTransform, apply_sphering

__all__ = [
    "DB_CAP",
    "ENVELOPE_WINDOW_S",
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
    "write_envelopes_csv",
]

DB_CAP = 100.0
MAX_ASSIGNMENT_CHANNELS = 6
# width of moving_rms's centered window
ENVELOPE_WINDOW_S = 0.05
# Samples formatted per write in write_envelopes_csv, with one %-format call
# per block. A block's Python floats and nine-digit strings stay well under
# moving_rms's temporaries, so the writer's peak memory is that of
# moving_rms; formatting the whole file at once more than doubles it.
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
    """Permutation assignment plus per-output quality figures in dB.

    sir_capped[j] is true where output j's SIR sits at +-DB_CAP: the figure
    (and its improvement, sir_db - input_sir_db) is then only a bound."""

    assignment: tuple[int, ...]
    sir_db: tuple[float, ...]
    sdr_db: tuple[float, ...]
    sir_improvement_db: tuple[float, ...] = dataclasses.field(init=False)
    input_sir_db: tuple[float, ...]
    convergence: dict | None = None
    sir_capped: tuple[bool, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        n = len(self.assignment)
        if sorted(self.assignment) != list(range(n)):
            raise ParameterError(f"assignment {self.assignment} is not a permutation")
        for name in ("sir_db", "sdr_db", "input_sir_db"):
            vals = getattr(self, name)
            if len(vals) != n:
                raise ParameterError(f"{name} must have {n} entries")
            object.__setattr__(self, name, tuple(float(v) for v in vals))
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        improvement = tuple(o - i for o, i in zip(self.sir_db, self.input_sir_db))
        object.__setattr__(self, "sir_improvement_db", improvement)
        object.__setattr__(self, "sir_capped", tuple(abs(v) == DB_CAP for v in self.sir_db))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_images(bank: DemixFilterBank, images: list) -> None:
    """Every image must have the first one's shape, and the bank's channels."""
    if not images:
        raise ParameterError("need at least one source image")
    first = images[0]
    for q, img in enumerate(images):
        if img.data.shape != first.data.shape:
            raise ParameterError(
                f"image {q} is {img.n_channels} channels x {img.n_samples} samples, "
                f"image 0 is {first.n_channels} x {first.n_samples}"
            )
    if first.n_channels != bank.n_channels:
        raise ParameterError(f"image has {first.n_channels} channels, bank expects {bank.n_channels}")


def _check_search_size(n_sources: int) -> None:
    if n_sources > MAX_ASSIGNMENT_CHANNELS:
        raise ParameterError(
            f"assignment search supports at most {MAX_ASSIGNMENT_CHANNELS} channels, got {n_sources}"
        )


def _sensor_power_and_reference(data: np.ndarray, transient: int) -> tuple[np.ndarray, np.ndarray]:
    """An image's power at each sensor past the transient, and its strongest
    sensor's row there (SDR's reference)."""
    tail = data[:, transient:]
    power = np.sum(tail**2, axis=1)
    return power, tail[int(np.argmax(power))]


def _output_power(contributions: np.ndarray, transient: int) -> np.ndarray:
    """Power of each output row past the transient, with no squared copy."""
    tail = contributions[..., transient:]
    return np.vecdot(tail, tail)


def _assign(power: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The permutation maximizing the total capped SIR of a (source, output)
    power table, and each output's SIR under it."""
    if float(power.sum()) == 0.0:
        raise UndefinedSirError("all contributions are zero")
    n_src = power.shape[0]
    ratios = _own_vs_rest_db(power)
    best = None
    for perm in itertools.permutations(range(n_src)):
        sirs = [ratios[perm[out]][out] for out in range(n_src)]
        total = sum(sirs)
        if best is None or total > best[0]:
            best = (total, perm, sirs)
    _, perm, sirs = best
    return tuple(perm), tuple(sirs)


def _sdr(outputs: np.ndarray, refs, assignment: tuple[int, ...], transient: int) -> tuple[float, ...]:
    """Scale-optimal SDR of each output row against refs[its source]."""
    values = []
    for out, src in enumerate(assignment):
        ref = refs[src]
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


def _input_sir(sensor_power: np.ndarray) -> tuple[float, ...]:
    return tuple(max(row) for row in _own_vs_rest_db(sensor_power))


def project_images(
    bank: DemixFilterBank, sphering: SpheringTransform, images: list
) -> np.ndarray:
    """Pass each source's sensor image through the fitted sphering and FIR
    bank; the images must already carry the pipeline's highpass, if any.

    Returns contributions[q, j] = what source q contributes to output j;
    their sum over q equals the pipeline output by linearity.
    """
    _check_images(bank, images)
    contributions = np.empty((len(images), bank.n_channels, images[0].n_samples))
    for q, img in enumerate(images):
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
    _check_search_size(contributions.shape[0])
    return _assign(_output_power(contributions, transient))


def sdr(
    contributions: np.ndarray,
    images: list,
    assignment: tuple[int, ...],
    transient: int = 0,
) -> tuple[float, ...]:
    """Scale-optimal SDR per output against the assigned source's sensor
    image at its strongest sensor."""
    outputs = np.asarray(contributions, dtype=np.float64).sum(axis=0)  # (outputs, samples)
    refs = {src: _sensor_power_and_reference(images[src].data, transient)[1] for src in assignment}
    return _sdr(outputs, refs, assignment, transient)


def input_sir(images: list, transient: int = 0) -> tuple[float, ...]:
    """Per source, the SIR at its best unprocessed sensor."""
    return _input_sir(np.stack([_sensor_power_and_reference(img.data, transient)[0] for img in images]))


def evaluate_separation(
    bank: DemixFilterBank,
    sphering: SpheringTransform,
    images: list,
    dc_cutoff_hz: float | None = None,
    trace=None,
) -> SeparationReport:
    """Full report: assignment, SIR, SDR, and improvement over the best
    unprocessed sensor, skipping the filter transient (the first filter
    length of samples). The report's convergence is trace.summary(), from
    the separation stage's record, or None without one.

    The figures of highpassing every image, then project_images, sir, sdr
    and input_sir, taken one source at a time: no array holds every
    source's highpassed image or contribution."""
    _check_images(bank, images)
    n_src = len(images)
    if n_src != bank.n_channels:
        raise ParameterError(f"{n_src} source images for a bank of {bank.n_channels} channels")
    _check_search_size(n_src)
    transient = bank.filter_length
    sensor_power = np.empty((n_src, images[0].n_channels))
    output_power = np.empty((n_src, bank.n_channels))
    refs = []
    for q, img in enumerate(images):
        if dc_cutoff_hz is not None:
            img = highpass_dc_removal(img, dc_cutoff_hz)
        sensor_power[q], ref = _sensor_power_and_reference(img.data, transient)
        refs.append(ref.copy())
        contribution = apply_mimo_fir(bank, apply_sphering(sphering, img)).data
        output_power[q] = _output_power(contribution, transient)
        # adds the sources in order, as contributions.sum(axis=0) does
        if q == 0:
            outputs = contribution.copy()  # the contribution is read-only
        else:
            outputs += contribution
        del contribution  # not alive through the next source's projection
    assignment, sir_db = _assign(output_power)
    sdr_db = _sdr(outputs, refs, assignment, transient)
    in_sir = _input_sir(sensor_power)
    return SeparationReport(
        assignment=assignment,
        sir_db=sir_db,
        sdr_db=sdr_db,
        input_sir_db=tuple(in_sir[src] for src in assignment),
        convergence=None if trace is None else trace.summary(),
    )


def _run_and_evaluate(
    mixed: TimeSeries, images: list[TimeSeries], cfg: PipelineConfig
) -> SeparationReport:
    result: PipelineResult = demix_pipeline(mixed, cfg)
    return evaluate_separation(
        result.bank,
        result.sphering,
        images,
        dc_cutoff_hz=cfg.dc_cutoff_hz,
        trace=result.trace,
    )


def compare_instantaneous(
    scenario: SimScenario, cfg: PipelineConfig
) -> tuple[SeparationReport, SeparationReport]:
    """Run the identical pipeline twice on one simulated mixture, once with
    an instantaneous demixer (L=1) and once with the configured length."""
    sim = build_scenario(scenario)
    # the runs read only the mixture and the images: release the source
    # signals and kernels before the first one
    mixed, images = sim.mixed, sim.images
    del sim
    cfg_inst = dc_replace(cfg, filter_length=1)
    return _run_and_evaluate(mixed, images, cfg_inst), _run_and_evaluate(mixed, images, cfg)


def physical_path_length(filter_length: int) -> float:
    """Propagation distance spanned by an L-tap filter: v * L * Ta, with the
    simulator's conduction velocity v and sample interval Ta."""
    if filter_length <= 0:
        raise ParameterError(f"filter_length must be positive, got {filter_length}")
    return CONDUCTION_VELOCITY_M_S * filter_length * SAMPLE_INTERVAL_S


def moving_rms(ts: TimeSeries) -> np.ndarray:
    """Centered ENVELOPE_WINDOW_S moving-RMS envelope per channel, (channels, samples)."""
    half = max(1, int(round(ENVELOPE_WINDOW_S / ts.meta.sample_interval_s))) // 2
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


def write_envelopes_csv(ts: TimeSeries, path) -> None:
    """CSV of moving_rms envelope traces: time_s, env_out1, env_out2, ...

    One row per sample, time ``i * sample_interval_s``, every value as
    ``"%.9g"`` (nine significant digits, the width that round-trips a
    float32, the precision of the separated signal the envelopes come from;
    at most 5e-9 relative error, exact zeros as ``0``), CRLF line ends (the
    bytes ``csv.writer`` writes for the same rows)."""
    env = moving_rms(ts)
    interval = ts.meta.sample_interval_s
    n = ts.n_samples
    row = ",".join(["%.9g"] * (ts.n_channels + 1)) + "\r\n"
    with _open_new(path, "w", newline="", encoding="utf-8") as fh:
        header = ["time_s"] + [f"env_out{p + 1}" for p in range(ts.n_channels)]
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, _CSV_BLOCK_SAMPLES):
            stop = min(start + _CSV_BLOCK_SAMPLES, n)
            block = np.vstack([np.arange(start, stop) * interval, env[:, start:stop]])
            fh.write(row * (stop - start) % tuple(block.T.ravel().tolist()))
