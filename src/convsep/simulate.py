"""Synthetic convolutive EMG mixtures with ground truth.

Sources are impulse trains (motor unit firings), a dominant ECG-like
interferer, and broadband noise; the mixing kernels are parameterized
MUAP waveforms: a propagating biphasic wavelet whose delay follows the
electrode offset and whose amplitude falls quadratically with depth,
plus an end-of-fiber wavelet at a fixed late lag that falls only
linearly with depth. Deepening a fiber therefore attenuates the
propagating component faster, which is the effect an instantaneous
mixing model cannot represent.

The generators read the recording every scenario shares (sample interval,
kernel length, conduction velocity, breathing period, heart rate) from
this module's constants; they take only what varies.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .signal import SignalMetadata, TimeSeries, _frozen_array, _integer, _real
from .spectral import _mimo_fir

__all__ = [
    "SOURCE_KINDS",
    "SourceSet",
    "MixingSystem",
    "SimScenario",
    "Simulation",
    "stream_rng",
    "cyclic_envelope",
    "generate_impulse_train",
    "muap_kernel_components",
    "generate_ecg_interferer",
    "mix",
    "build_scenario",
    "respiratory_scenario",
    "delayed_pair_scenario",
    "instantaneous_pair_scenario",
    "diagonal_scenario",
]

SOURCE_KINDS = ("emg_inspiratory", "emg_expiratory", "emg", "ecg", "noise")
MIXING_KINDS = ("convolutive", "instantaneous", "diagonal")

REFERENCE_DEPTH_M = 0.01
MUAP_BASE_LAG = 2.0
MUAP_PROP_WIDTH = 1.2
MUAP_EOF_WIDTH = 1.6
MUAP_EOF_MARGIN = 4

# QRS complex plus T wave: (amplitude, offset_ms, width_ms)
ECG_WAVE_PARTS = ((-0.25, -18.0, 5.0), (1.0, 0.0, 7.0), (-0.35, 16.0, 5.0), (0.18, 120.0, 40.0))
ECG_PERIOD_JITTER = 0.03
# relative Gaussian jitter of each motor unit inter-spike interval
FIRING_JITTER = 0.1
# the recording every scenario shares: sampling, mixing kernel support,
# fiber conduction velocity, breathing cycle and heart rate
SAMPLE_INTERVAL_S = 0.976e-3
KERNEL_LENGTH = 16
CONDUCTION_VELOCITY_M_S = 4.0
BREATH_PERIOD_S = 4.0
ECG_BPM = 70.0
# RMS of each source kind's sensor image, EMG being the reference level
EMG_GAIN = 1.0
ECG_GAIN = 1000.0
NOISE_GAIN = 0.1


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Independent counter-based stream named by (seed, label)."""
    key = np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class SourceSet:
    """Source signals (sources, samples), sampled every SAMPLE_INTERVAL_S, and their kinds."""

    signals: np.ndarray
    kinds: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.signals, dtype=np.float64)
        if arr.ndim != 2:
            raise ParameterError(f"signals must be 2-D, got {arr.shape}")
        arr = _frozen_array(arr, "source signals")
        if len(self.kinds) != arr.shape[0]:
            raise ParameterError(f"{len(self.kinds)} kinds for {arr.shape[0]} sources")
        object.__setattr__(self, "signals", arr)
        object.__setattr__(self, "kinds", tuple(self.kinds))

    @property
    def n_sources(self) -> int:
        return self.signals.shape[0]


@dataclass(frozen=True)
class MixingSystem:
    """FIR kernels (sources, sensors, kernel_length)."""

    kernels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.kernels, dtype=np.float64)
        if arr.ndim != 3:
            raise ParameterError(f"kernels must be 3-D, got {arr.shape}")
        arr = _frozen_array(arr, "kernels")
        if np.any(np.all(arr == 0.0, axis=(1, 2))):
            raise ParameterError("every source needs at least one nonzero kernel")
        object.__setattr__(self, "kernels", arr)

    @property
    def n_sources(self) -> int:
        return self.kernels.shape[0]


@dataclass(frozen=True)
class SimScenario:
    """Complete description of one synthetic recording session.

    One source per source_kinds entry, and as many sensors as sources
    (square demixing). The sampling interval, kernel length, conduction
    velocity, breathing period, heart rate and per-kind image gains are this
    module's constants, the same for every scenario. Float fields and the
    entries of float tuples are finite real numbers, and seed an integer.
    """

    duration_s: float = 60.0
    source_kinds: tuple[str, ...] = ("emg_inspiratory", "emg_expiratory", "ecg", "noise")
    firing_rates_hz: tuple[float, ...] = (18.0, 18.0, 0.0, 0.0)
    source_depths_m: tuple[float, ...] = (0.010, 0.012, 0.020, 0.015)
    sensor_spacing_m: float = 0.015
    lateral_attenuation: float = 1.5
    end_of_fiber_amp: float = 0.3
    kernel_gain_jitter: float = 0.0
    mixing: str = "convolutive"
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", "tuple[float, ...]"):
                for v in value if isinstance(value, (tuple, list)) else (value,):
                    _real(v, f.name)
            if f.type == "int":
                _integer(value, f.name)
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not self.source_kinds:
            raise ParameterError("source_kinds must name at least one source")
        for name, tup in (
            ("firing_rates_hz", self.firing_rates_hz),
            ("source_depths_m", self.source_depths_m),
        ):
            if len(tup) != self.n_sources:
                raise ParameterError(f"{name} must match source_kinds in length, got {len(tup)}")
        for kind in self.source_kinds:
            if kind not in SOURCE_KINDS:
                raise ParameterError(f"unknown source kind {kind!r} in source_kinds")
        if self.mixing not in MIXING_KINDS:
            raise ParameterError(f"unknown mixing kind {self.mixing!r}")
        if self.sensor_spacing_m < 0:
            raise ParameterError(f"sensor_spacing_m must be >= 0, got {self.sensor_spacing_m}")
        muap_sources = [
            q for q, kind in enumerate(self.source_kinds) if kind not in ("ecg", "noise")
        ]
        if self.mixing == "convolutive" and muap_sources:
            # the farthest sensor from any MUAP source, as _source_kernels places them
            reach = max(max(q, self.n_sources - 1 - q) for q in muap_sources)
            try:
                _propagation_delay(reach * self.sensor_spacing_m)
            except ParameterError as exc:
                raise ParameterError(f"sensor_spacing_m {self.sensor_spacing_m}: {exc}") from None
        if any(r < 0 for r in self.firing_rates_hz):
            raise ParameterError("firing_rates_hz must be >= 0")
        if any(d <= 0 for d in self.source_depths_m):
            raise ParameterError("source_depths_m must be positive")
        if self.n_samples < KERNEL_LENGTH:
            raise ParameterError(f"duration_s too short for one {KERNEL_LENGTH}-tap kernel")

    @property
    def n_sources(self) -> int:
        return len(self.source_kinds)

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / SAMPLE_INTERVAL_S))


class Simulation(NamedTuple):
    mixed: TimeSeries
    sources: SourceSet
    system: MixingSystem
    images: list


def cyclic_envelope(n: int, start_frac: float, stop_frac: float) -> np.ndarray:
    """On/off gate over n samples of the breathing cycle: 1 where the phase
    within BREATH_PERIOD_S is in [start_frac, stop_frac)."""
    if not 0 <= start_frac < stop_frac <= 1:
        raise ParameterError(f"need 0 <= start < stop <= 1, got {start_frac}, {stop_frac}")
    phase = (np.arange(n) * SAMPLE_INTERVAL_S % BREATH_PERIOD_S) / BREATH_PERIOD_S
    return ((phase >= start_frac) & (phase < stop_frac)).astype(np.float64)


def generate_impulse_train(
    rate_hz: float, envelope: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unit spikes, one sample per envelope sample, with inter-spike
    intervals jittered by FIRING_JITTER (Gaussian, relative), gated by the
    envelope. Draws one normal per step from rng, as many as the shortest
    possible steps need to pass the last sample."""
    if not rate_hz >= 0:
        raise ParameterError(f"rate must be >= 0, got {rate_hz}")
    envelope = np.asarray(envelope, dtype=np.float64)
    if envelope.ndim != 1:
        raise ParameterError(f"envelope must be 1-D, got {envelope.shape}")
    n = envelope.size
    out = np.zeros(n)
    if rate_hz == 0:
        return out
    base = 1.0 / (rate_hz * SAMPLE_INTERVAL_S)
    # no step is shorter than this, so this many steps pass the last sample
    shortest = max(1, round(min(0.1 * base, n)))
    factor = np.maximum(1.0 + FIRING_JITTER * rng.standard_normal(-(-n // shortest)), 0.1)
    # a step of n or more ends the train, so capping it there changes no spike
    steps = np.maximum(np.round(np.minimum(base * factor, n)).astype(np.int64), 1)
    spikes = np.cumsum(steps)
    spikes = spikes[: np.searchsorted(spikes, n)]
    out[spikes[envelope[spikes] > 0]] = 1.0
    return out


def _gaussian_wavelet(length: int, center: float, width: float, order: int) -> np.ndarray:
    """Unit-peak first (order=1) or second (order=2) Gaussian derivative on [0, length)."""
    t = (np.arange(length) - center) / width
    g = np.exp(-0.5 * t * t)
    w = -t * g if order == 1 else (t * t - 1.0) * g
    peak = float(np.max(np.abs(w)))
    return w / peak if peak > 0 else w


def _propagation_delay(offset_m: float) -> float:
    """Samples a MUAP takes to travel offset_m along the fiber; ParameterError
    if the delayed wavelet's centre falls past the kernel's last tap."""
    delay = offset_m / (CONDUCTION_VELOCITY_M_S * SAMPLE_INTERVAL_S)
    if MUAP_BASE_LAG + delay > KERNEL_LENGTH - 1:
        raise ParameterError(
            f"propagation delay of {delay:.1f} samples does not fit a {KERNEL_LENGTH}-tap kernel"
        )
    return delay


def muap_kernel_components(
    depth_m: float,
    sensor_offset_m: float,
    amplitude: float = 1.0,
    end_of_fiber_amp: float = 0.3,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagating and end-of-fiber parts of one KERNEL_LENGTH-tap MUAP kernel.

    The propagating wavelet is delayed by offset/(v*Ta) samples and scaled
    by depth^-2; the end-of-fiber wavelet sits at a fixed late lag and
    scales by depth^-1 only.
    """
    if not depth_m > 0:
        raise ParameterError(f"depth must be positive, got {depth_m}")
    if sensor_offset_m < 0:
        raise ParameterError(f"sensor offset must be >= 0, got {sensor_offset_m}")
    delay = _propagation_delay(sensor_offset_m)
    rel = depth_m / REFERENCE_DEPTH_M
    prop = amplitude * rel**-2.0 * _gaussian_wavelet(
        KERNEL_LENGTH, MUAP_BASE_LAG + delay, MUAP_PROP_WIDTH, order=1
    )
    eof = amplitude * end_of_fiber_amp * rel**-1.0 * _gaussian_wavelet(
        KERNEL_LENGTH, KERNEL_LENGTH - MUAP_EOF_MARGIN, MUAP_EOF_WIDTH, order=2
    )
    return prop, eof


def generate_ecg_interferer(n: int, rng: np.random.Generator) -> np.ndarray:
    """n samples of a QRS-plus-T pulse train at ECG_BPM, 3% period jitter,
    unit RMS."""
    out = np.zeros(n)
    period = 60.0 / ECG_BPM
    t = 0.5 * period
    while True:
        beat = t / SAMPLE_INTERVAL_S
        if beat >= n:
            break
        for amp, offset_ms, width_ms in ECG_WAVE_PARTS:
            c = beat + offset_ms * 1e-3 / SAMPLE_INTERVAL_S
            w = width_ms * 1e-3 / SAMPLE_INTERVAL_S
            lo = max(0, int(c - 4 * w))
            hi = min(n, int(c + 4 * w) + 1)
            if hi > lo:
                k = np.arange(lo, hi)
                out[lo:hi] += amp * np.exp(-0.5 * ((k - c) / w) ** 2)
        t += period * (1.0 + ECG_PERIOD_JITTER * rng.standard_normal())
    rms = float(np.sqrt(np.mean(out**2)))
    if rms > 0:
        out *= 1.0 / rms
    return out


def _unit_images(signals: np.ndarray, kernels: np.ndarray) -> list[np.ndarray]:
    """Each source's unit-gain sensor images, (sensors, samples), by the
    pipeline's FIR kernel: a single-tap kernel scales its source bit for bit."""
    return [_mimo_fir(kernels[q][:, None, :], signals[q : q + 1]) for q in range(len(kernels))]


def _superpose(unit_images: list[np.ndarray], gains) -> tuple[TimeSeries, list[TimeSeries]]:
    """The unit images scaled by gains in place, and their sum."""
    labels = tuple(f"sensor{p + 1}" for p in range(len(unit_images[0])))
    meta = SignalMetadata(SAMPLE_INTERVAL_S, labels)
    images = [TimeSeries(np.multiply(img, g, out=img), meta) for g, img in zip(gains, unit_images)]
    return TimeSeries(sum(img.data for img in images), meta), images


def mix(sources: SourceSet, system: MixingSystem, gains) -> tuple[TimeSeries, list[TimeSeries]]:
    """x_p(n) = sum_q gain_q sum_k a[q,p,k] s_q(n-k), plus each source's
    isolated sensor image; the images sum to the mixture exactly."""
    if min(sources.signals.shape) < 1:
        counts = "{} sources of {} samples".format(*sources.signals.shape)
        raise ParameterError(f"need at least one source and one sample, got {counts}")
    gains = np.asarray(gains, dtype=np.float64)
    if system.n_sources != sources.n_sources or gains.shape != (sources.n_sources,):
        raise ParameterError(
            f"{sources.n_sources} sources, {system.n_sources} kernel rows, "
            f"{gains.shape} gains: counts must agree"
        )
    return _superpose(_unit_images(sources.signals, system.kernels), gains)


def _source_signal(sc: SimScenario, q: int) -> np.ndarray:
    kind = sc.source_kinds[q]
    n = sc.n_samples
    rng = stream_rng(sc.seed, f"source/{q}")
    # the phases of the breathing cycle in which each EMG kind fires
    gates = {"emg_inspiratory": (0.0, 0.45), "emg_expiratory": (0.5, 0.95), "emg": (0.0, 1.0)}
    if kind in gates:
        return generate_impulse_train(sc.firing_rates_hz[q], cyclic_envelope(n, *gates[kind]), rng)
    if kind == "ecg":
        return generate_ecg_interferer(n, rng)
    return rng.standard_normal(n)


def _source_kernels(sc: SimScenario, q: int, rng: np.random.Generator) -> np.ndarray:
    """Kernels of source q toward every sensor, (sensors, kernel_length)."""
    kind = sc.source_kinds[q]
    p_count, l_mix = sc.n_sources, KERNEL_LENGTH
    out = np.zeros((p_count, l_mix))
    own = q
    for p in range(p_count):
        jitter = 1.0 + sc.kernel_gain_jitter * rng.standard_normal() if sc.kernel_gain_jitter else 1.0
        if sc.mixing == "diagonal":
            if p == own:
                out[p, 0] = jitter
            continue
        if kind == "ecg":
            # far-field cardiac pickup: one scaled, slightly delayed spike
            # per sensor, strongest nearest the heart
            amp = max(1.0 - 0.15 * p, 0.2) * jitter
            delay = p if sc.mixing == "convolutive" else 0
            out[p, min(delay, l_mix - 1)] = amp
        elif kind == "noise":
            amp = 0.4 ** abs(p - own) * jitter
            out[p, 0] = amp
            if sc.mixing == "convolutive":
                out[p, 1:4] = 0.25 * amp * rng.standard_normal(3)
        else:
            offset = abs(p - own) * sc.sensor_spacing_m
            depth_eff = float(np.hypot(sc.source_depths_m[q], sc.lateral_attenuation * offset))
            if sc.mixing == "convolutive":
                prop, eof = muap_kernel_components(
                    depth_eff, offset, amplitude=jitter, end_of_fiber_amp=sc.end_of_fiber_amp
                )
                out[p] = prop + eof
            else:
                out[p, 0] = jitter * (depth_eff / REFERENCE_DEPTH_M) ** -2.0
    return out


def build_scenario(sc: SimScenario) -> Simulation:
    """Deterministic synthesis for a fixed seed: sources, kernels, unit-gain
    images scaled to each kind's target RMS, and their sum as the mixture.
    The returned system holds the kernels times those gains, so that
    mix(sources, system, ones) reproduces the images."""
    signals = np.stack([_source_signal(sc, q) for q in range(sc.n_sources)])
    sources = SourceSet(signals, sc.source_kinds)

    kernel_rng = stream_rng(sc.seed, "kernels")
    kernels = np.stack([_source_kernels(sc, q, kernel_rng) for q in range(sc.n_sources)])
    unit_images = _unit_images(sources.signals, kernels)
    gains = np.ones(sc.n_sources)
    for q, img in enumerate(unit_images):
        rms = float(np.sqrt(np.mean(img**2)))
        if rms > 0:
            gains[q] = {"ecg": ECG_GAIN, "noise": NOISE_GAIN}.get(sc.source_kinds[q], EMG_GAIN) / rms
    mixed, images = _superpose(unit_images, gains)
    return Simulation(mixed, sources, MixingSystem(kernels * gains[:, None, None]), images)


def respiratory_scenario(seed: int = 0, **overrides) -> SimScenario:
    """Four-channel respiratory setup: gated inspiratory and expiratory EMG,
    a dominant ECG interferer, and weak broadband noise."""
    return SimScenario(seed=seed, **overrides)


def delayed_pair_scenario(seed: int = 0, **overrides) -> SimScenario:
    """Two always-active impulse sources with distinct inter-sensor delays of
    about four samples: separable convolutively, not instantaneously."""
    params = dict(
        duration_s=120.0,
        source_kinds=("emg", "emg"),
        firing_rates_hz=(13.0, 21.0),
        source_depths_m=(0.010, 0.010),
        sensor_spacing_m=0.0156,
        lateral_attenuation=0.41,
        end_of_fiber_amp=0.1,
        kernel_gain_jitter=0.15,
        mixing="convolutive",
    )
    params.update(overrides)
    return SimScenario(seed=seed, **params)


def instantaneous_pair_scenario(seed: int = 0, **overrides) -> SimScenario:
    """Same pair of sources mixed by scaled deltas only (no delays)."""
    params = dict(mixing="instantaneous")
    params.update(overrides)
    return delayed_pair_scenario(seed=seed, **params)


def diagonal_scenario(seed: int = 0, **overrides) -> SimScenario:
    """Already-separated inputs: each source feeds only its own sensor."""
    params = dict(mixing="diagonal", kernel_gain_jitter=0.0)
    params.update(overrides)
    return delayed_pair_scenario(seed=seed, **params)
