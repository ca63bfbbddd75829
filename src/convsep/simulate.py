"""Synthetic convolutive EMG mixtures with ground truth.

Sources are impulse trains (motor unit firings), a dominant ECG-like
interferer, and broadband noise; the mixing kernels are parameterized
MUAP waveforms: a propagating biphasic wavelet whose delay follows the
electrode offset and whose amplitude falls quadratically with depth,
plus an end-of-fiber wavelet at a fixed late lag that falls only
linearly with depth. Deepening a fiber therefore attenuates the
propagating component faster, which is the effect an instantaneous
mixing model cannot represent.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .signal import SignalMetadata, TimeSeries, _frozen_array

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


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Independent counter-based stream named by (seed, label)."""
    key = np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class SourceSet:
    """Source signals (sources, samples) with their kinds and the seed used."""

    signals: np.ndarray
    kinds: tuple[str, ...]
    seed: int
    sample_interval_s: float

    def __post_init__(self):
        arr = np.asarray(self.signals, dtype=np.float64)
        if arr.ndim != 2:
            raise ParameterError(f"signals must be 2-D, got {arr.shape}")
        arr = _frozen_array(arr, "source signals")
        if len(self.kinds) != arr.shape[0]:
            raise ParameterError(f"{len(self.kinds)} kinds for {arr.shape[0]} sources")
        if not self.sample_interval_s > 0:
            raise ParameterError("sample_interval_s must be positive")
        object.__setattr__(self, "signals", arr)
        object.__setattr__(self, "kinds", tuple(self.kinds))

    @property
    def n_sources(self) -> int:
        return self.signals.shape[0]

    @property
    def n_samples(self) -> int:
        return self.signals.shape[1]


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

    @property
    def n_sensors(self) -> int:
        return self.kernels.shape[1]


@dataclass(frozen=True)
class SimScenario:
    """Complete description of one synthetic recording session.

    n_sensors must equal n_sources (square demixing); gains are amplitude
    ratios of each source's sensor image against the EMG reference level.
    Every float value, in tuples too, must be finite.
    """

    n_sources: int = 4
    n_sensors: int = 4
    kernel_length: int = 16
    duration_s: float = 60.0
    sample_interval_s: float = 0.976e-3
    source_kinds: tuple[str, ...] = ("emg_inspiratory", "emg_expiratory", "ecg", "noise")
    firing_rates_hz: tuple[float, ...] = (18.0, 18.0, 0.0, 0.0)
    source_depths_m: tuple[float, ...] = (0.010, 0.012, 0.020, 0.015)
    breath_period_s: float = 4.0
    ecg_bpm: float = 70.0
    emg_gain: float = 1.0
    ecg_gain: float = 1000.0
    noise_gain: float = 0.1
    conduction_velocity_m_s: float = 4.0
    sensor_spacing_m: float = 0.015
    lateral_attenuation: float = 1.5
    end_of_fiber_amp: float = 0.3
    kernel_gain_jitter: float = 0.0
    mixing: str = "convolutive"
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.n_sources != self.n_sensors:
            raise ParameterError(
                f"sensor count ({self.n_sensors}) must equal source count ({self.n_sources})"
            )
        if self.n_sources < 1:
            raise ParameterError("need at least one source")
        for name, tup in (
            ("source_kinds", self.source_kinds),
            ("firing_rates_hz", self.firing_rates_hz),
            ("source_depths_m", self.source_depths_m),
        ):
            if len(tup) != self.n_sources:
                raise ParameterError(f"{name} must have {self.n_sources} entries, got {len(tup)}")
        for kind in self.source_kinds:
            if kind not in SOURCE_KINDS:
                raise ParameterError(f"unknown source kind {kind!r}")
        if self.mixing not in MIXING_KINDS:
            raise ParameterError(f"unknown mixing kind {self.mixing!r}")
        if self.kernel_length < 8:
            raise ParameterError(f"kernel_length must be >= 8, got {self.kernel_length}")
        if not self.sample_interval_s > 0 or not self.duration_s > 0:
            raise ParameterError("duration and sample interval must be positive")
        if not self.breath_period_s > 0:
            raise ParameterError(f"breath_period_s must be positive, got {self.breath_period_s}")
        if self.ecg_gain < 0:
            raise ParameterError(f"ecg_gain must be >= 0, got {self.ecg_gain}")
        if not self.ecg_bpm > 0:
            raise ParameterError(f"ecg_bpm must be positive, got {self.ecg_bpm}")
        if not self.conduction_velocity_m_s > 0:
            raise ParameterError("conduction velocity must be positive")
        muap_sources = [
            q for q, kind in enumerate(self.source_kinds) if kind not in ("ecg", "noise")
        ]
        if self.mixing == "convolutive" and muap_sources:
            # the farthest sensor from any MUAP source, as _source_kernels places them
            reach = max(max(q, self.n_sensors - 1 - q) for q in muap_sources)
            delay = reach * self.sensor_spacing_m / (
                self.conduction_velocity_m_s * self.sample_interval_s
            )
            if MUAP_BASE_LAG + delay > self.kernel_length - 1:
                raise ParameterError(
                    f"conduction_velocity_m_s {self.conduction_velocity_m_s} gives a propagation "
                    f"delay of {delay:.1f} samples, which does not fit a "
                    f"{self.kernel_length}-tap kernel (kernel_length)"
                )
        if any(r < 0 for r in self.firing_rates_hz):
            raise ParameterError("firing rates must be >= 0")
        if any(d <= 0 for d in self.source_depths_m):
            raise ParameterError("source depths must be positive")
        if self.n_samples < self.kernel_length:
            raise ParameterError("scenario too short for one kernel length")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / self.sample_interval_s))


class Simulation(NamedTuple):
    mixed: TimeSeries
    sources: SourceSet
    system: MixingSystem
    images: list


def cyclic_envelope(
    n: int, sample_interval_s: float, period_s: float, start_frac: float, stop_frac: float
) -> np.ndarray:
    """On/off gate over a repeating cycle: 1 where the cycle phase is in
    [start_frac, stop_frac)."""
    if not 0 <= start_frac < stop_frac <= 1:
        raise ParameterError(f"need 0 <= start < stop <= 1, got {start_frac}, {stop_frac}")
    phase = (np.arange(n) * sample_interval_s % period_s) / period_s
    return ((phase >= start_frac) & (phase < stop_frac)).astype(np.float64)


def generate_impulse_train(
    rate_hz: float,
    envelope: np.ndarray,
    n: int,
    sample_interval_s: float,
    rng: np.random.Generator,
    jitter: float = 0.1,
) -> np.ndarray:
    """Unit spikes with Gaussian-jittered inter-spike intervals, gated by the
    envelope; with zero jitter the spacing is exactly round(1/(rate*Ta))."""
    if rate_hz < 0:
        raise ParameterError(f"rate must be >= 0, got {rate_hz}")
    out = np.zeros(n)
    if rate_hz == 0:
        return out
    envelope = np.asarray(envelope, dtype=np.float64)
    if envelope.shape != (n,):
        raise ParameterError(f"envelope must have {n} samples, got {envelope.shape}")
    base = 1.0 / (rate_hz * sample_interval_s)
    idx = 0
    while True:
        factor = 1.0 + jitter * rng.standard_normal() if jitter > 0 else 1.0
        idx += max(1, int(round(base * max(factor, 0.1))))
        if idx >= n:
            break
        if envelope[idx] > 0:
            out[idx] = 1.0
    return out


def _gaussian_wavelet(length: int, center: float, width: float, order: int) -> np.ndarray:
    """Unit-peak Gaussian derivative of the given order on [0, length)."""
    t = (np.arange(length) - center) / width
    g = np.exp(-0.5 * t * t)
    if order == 1:
        w = -t * g
    elif order == 2:
        w = (t * t - 1.0) * g
    else:
        w = g
    peak = float(np.max(np.abs(w)))
    return w / peak if peak > 0 else w


def muap_kernel_components(
    depth_m: float,
    sensor_offset_m: float,
    velocity_m_s: float,
    sample_interval_s: float,
    kernel_length: int,
    amplitude: float = 1.0,
    end_of_fiber_amp: float = 0.3,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagating and end-of-fiber parts of one MUAP kernel.

    The propagating wavelet is delayed by offset/(v*Ta) samples and scaled
    by depth^-2; the end-of-fiber wavelet sits at a fixed late lag and
    scales by depth^-1 only.
    """
    if not depth_m > 0:
        raise ParameterError(f"depth must be positive, got {depth_m}")
    if kernel_length < 8:
        raise ParameterError(f"kernel length must be >= 8, got {kernel_length}")
    if sensor_offset_m < 0:
        raise ParameterError(f"sensor offset must be >= 0, got {sensor_offset_m}")
    delay = sensor_offset_m / (velocity_m_s * sample_interval_s)
    if MUAP_BASE_LAG + delay > kernel_length - 1:
        raise ParameterError(
            f"propagation delay of {delay:.1f} samples does not fit a "
            f"{kernel_length}-tap kernel"
        )
    rel = depth_m / REFERENCE_DEPTH_M
    prop = amplitude * rel**-2.0 * _gaussian_wavelet(
        kernel_length, MUAP_BASE_LAG + delay, MUAP_PROP_WIDTH, order=1
    )
    eof = amplitude * end_of_fiber_amp * rel**-1.0 * _gaussian_wavelet(
        kernel_length, kernel_length - MUAP_EOF_MARGIN, MUAP_EOF_WIDTH, order=2
    )
    return prop, eof


def generate_ecg_interferer(
    bpm: float,
    n: int,
    sample_interval_s: float,
    rng: np.random.Generator,
    amplitude: float = 1.0,
) -> np.ndarray:
    """QRS-plus-T pulse train at the given heart rate, 3% period jitter,
    unit RMS before the amplitude factor."""
    if not bpm > 0:
        raise ParameterError(f"bpm must be positive, got {bpm}")
    out = np.zeros(n)
    if amplitude == 0.0:
        return out
    period = 60.0 / bpm
    t = 0.5 * period
    while True:
        beat = t / sample_interval_s
        if beat >= n:
            break
        for amp, offset_ms, width_ms in ECG_WAVE_PARTS:
            c = beat + offset_ms * 1e-3 / sample_interval_s
            w = width_ms * 1e-3 / sample_interval_s
            lo = max(0, int(c - 4 * w))
            hi = min(n, int(c + 4 * w) + 1)
            if hi > lo:
                k = np.arange(lo, hi)
                out[lo:hi] += amp * np.exp(-0.5 * ((k - c) / w) ** 2)
        t += period * (1.0 + ECG_PERIOD_JITTER * rng.standard_normal())
    rms = float(np.sqrt(np.mean(out**2)))
    if rms > 0:
        out *= amplitude / rms
    return out


def mix(
    sources: SourceSet, system: MixingSystem, gains
) -> tuple[TimeSeries, list[TimeSeries]]:
    """x_p(n) = sum_q gain_q sum_k a[q,p,k] s_q(n-k), plus each source's
    isolated sensor image; the images sum to the mixture exactly."""
    gains = np.asarray(gains, dtype=np.float64)
    if system.n_sources != sources.n_sources or gains.shape != (sources.n_sources,):
        raise ParameterError(
            f"{sources.n_sources} sources, {system.n_sources} kernel rows, "
            f"{gains.shape} gains: counts must agree"
        )
    n = sources.n_samples
    meta = SignalMetadata(
        sources.sample_interval_s, tuple(f"sensor{p + 1}" for p in range(system.n_sensors))
    )
    images = []
    total = np.zeros((system.n_sensors, n))
    for q in range(sources.n_sources):
        img = np.zeros((system.n_sensors, n))
        for p in range(system.n_sensors):
            img[p] = gains[q] * np.convolve(sources.signals[q], system.kernels[q, p])[:n]
        total += img
        images.append(TimeSeries(img, meta))
    return TimeSeries(total, meta), images


def _source_signal(sc: SimScenario, q: int) -> np.ndarray:
    kind = sc.source_kinds[q]
    n = sc.n_samples
    rng = stream_rng(sc.seed, f"source/{q}")
    if kind == "emg_inspiratory":
        env = cyclic_envelope(n, sc.sample_interval_s, sc.breath_period_s, 0.0, 0.45)
        return generate_impulse_train(sc.firing_rates_hz[q], env, n, sc.sample_interval_s, rng)
    if kind == "emg_expiratory":
        env = cyclic_envelope(n, sc.sample_interval_s, sc.breath_period_s, 0.5, 0.95)
        return generate_impulse_train(sc.firing_rates_hz[q], env, n, sc.sample_interval_s, rng)
    if kind == "emg":
        return generate_impulse_train(
            sc.firing_rates_hz[q], np.ones(n), n, sc.sample_interval_s, rng
        )
    if kind == "ecg":
        return generate_ecg_interferer(sc.ecg_bpm, n, sc.sample_interval_s, rng)
    return rng.standard_normal(n)


def _source_kernels(sc: SimScenario, q: int, rng: np.random.Generator) -> np.ndarray:
    """Kernels of source q toward every sensor, (sensors, kernel_length)."""
    kind = sc.source_kinds[q]
    p_count, l_mix = sc.n_sensors, sc.kernel_length
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
                    depth_eff,
                    offset,
                    sc.conduction_velocity_m_s,
                    sc.sample_interval_s,
                    l_mix,
                    amplitude=jitter,
                    end_of_fiber_amp=sc.end_of_fiber_amp,
                )
                out[p] = prop + eof
            else:
                out[p, 0] = jitter * (depth_eff / REFERENCE_DEPTH_M) ** -2.0
    return out


def _target_gain(sc: SimScenario, kind: str) -> float:
    if kind == "ecg":
        return sc.ecg_gain
    if kind == "noise":
        return sc.noise_gain
    return sc.emg_gain


def build_scenario(sc: SimScenario) -> Simulation:
    """Deterministic synthesis for a fixed seed: sources, kernels, unit-gain
    images scaled to each kind's target RMS, and their sum as the mixture."""
    signals = np.stack([_source_signal(sc, q) for q in range(sc.n_sources)])
    sources = SourceSet(signals, sc.source_kinds, sc.seed, sc.sample_interval_s)

    kernel_rng = stream_rng(sc.seed, "kernels")
    kernels = np.stack([_source_kernels(sc, q, kernel_rng) for q in range(sc.n_sources)])
    system = MixingSystem(kernels)

    images = mix(sources, system, np.ones(sc.n_sources))[1]
    for q, img in enumerate(images):
        rms = float(np.sqrt(np.mean(img.data**2)))
        gain = _target_gain(sc, sc.source_kinds[q]) / rms if rms > 0 else 1.0
        images[q] = img.with_data(gain * img.data)
    mixed = images[0].with_data(sum(img.data for img in images))
    return Simulation(mixed, sources, system, images)


def respiratory_scenario(seed: int = 0, **overrides) -> SimScenario:
    """Four-channel respiratory setup: gated inspiratory and expiratory EMG,
    a dominant ECG interferer, and weak broadband noise."""
    return SimScenario(seed=seed, **overrides)


def delayed_pair_scenario(seed: int = 0, **overrides) -> SimScenario:
    """Two always-active impulse sources with distinct inter-sensor delays of
    about four samples: separable convolutively, not instantaneously."""
    params = dict(
        n_sources=2,
        n_sensors=2,
        duration_s=120.0,
        source_kinds=("emg", "emg"),
        firing_rates_hz=(13.0, 21.0),
        source_depths_m=(0.010, 0.010),
        sensor_spacing_m=0.0156,
        lateral_attenuation=0.41,
        end_of_fiber_amp=0.1,
        kernel_gain_jitter=0.15,
        noise_gain=0.0,
        ecg_gain=0.0,
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
