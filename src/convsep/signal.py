"""Multichannel time-domain signals and raw file I/O.

Signals are stored channel-major in memory as float64 and interleaved
little-endian float32 on disk (one frame = one sample of all channels),
described by a small JSON header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, ParameterError

__all__ = [
    "SignalMetadata",
    "TimeSeries",
    "read_raw",
    "write_raw",
    "read_json",
    "write_json",
    "highpass_dc_removal",
]


def _frozen_array(arr: np.ndarray, what: str, error=ParameterError) -> np.ndarray:
    """arr as a C-contiguous read-only array; error if any value is not finite.

    A C-contiguous arr is frozen in place, not copied (the pipeline holds
    one copy of each stage's result): pass a copy to keep a buffer writable."""
    if not np.all(np.isfinite(arr)):
        raise error(f"non-finite values in {what}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SignalMetadata:
    """Sampling interval in seconds plus one text label per channel."""

    sample_interval_s: float
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        if not self.sample_interval_s > 0:
            raise ParameterError(
                f"sample_interval_s must be positive, got {self.sample_interval_s}"
            )
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))


@dataclass(frozen=True)
class TimeSeries:
    """Immutable (channels, samples) float64 signal with metadata."""

    data: np.ndarray
    meta: SignalMetadata

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ParameterError(f"data must be 2-D (channels, samples), got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"need at least one channel and one sample, got {arr.shape}")
        arr = _frozen_array(arr, "signal", DataError)
        if len(self.meta.channel_labels) != arr.shape[0]:
            raise ParameterError(
                f"{len(self.meta.channel_labels)} labels for {arr.shape[0]} channels"
            )
        object.__setattr__(self, "data", arr)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray) -> "TimeSeries":
        """Same metadata, new sample values (channel count must match)."""
        return TimeSeries(data, self.meta)


def _json_int(value) -> int:
    """A JSON integer, or a float with an integral value; never a boolean."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _json_float(value) -> float:
    """A JSON number; never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _json_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _json_list(coerce):
    def coerce_list(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {value!r}")
        return tuple(coerce(item) for item in value)

    return coerce_list


def read_json(path, what: str) -> dict:
    """The JSON object in path; FormatError if unreadable, invalid or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{what} {path} must hold a JSON object")
    return payload


def write_json(payload, path) -> None:
    """Write payload as JSON with sorted keys, indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_raw(path, header) -> TimeSeries:
    """Read an interleaved little-endian float32 file described by a JSON header.

    The payload length must equal channels * samples * 4 bytes; values are
    widened to float64 in one C-order copy.
    """
    desc = read_json(header, "signal header")
    try:
        channels = _json_int(desc["channels"])
        samples = _json_int(desc["samples"])
        interval = _json_float(desc["sample_interval_s"])
        labels = _json_list(_json_str)(desc["labels"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"cannot read signal header {header}: {exc}") from exc
    if channels < 1 or samples < 1:
        raise FormatError(
            f"header declares channels={channels}, samples={samples}; both must be >= 1"
        )
    if len(labels) != channels:
        raise FormatError(f"header has {len(labels)} labels for {channels} channels")

    payload = np.fromfile(path, dtype="<f4")
    expected = channels * samples
    if payload.size != expected:
        raise FormatError(
            f"{path}: payload holds {payload.size} float32 values, "
            f"header requires {expected} ({channels} channels x {samples} samples)"
        )
    data = np.ascontiguousarray(payload.reshape(samples, channels).T, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: payload contains non-finite values")
    return TimeSeries(data, SignalMetadata(interval, labels))


def write_raw(ts: TimeSeries, path, header) -> None:
    """Write the signal as interleaved little-endian float32 plus a JSON header."""
    np.ascontiguousarray(ts.data.T, dtype="<f4").tofile(path)
    desc = {
        "channels": ts.n_channels,
        "samples": ts.n_samples,
        "sample_interval_s": ts.meta.sample_interval_s,
        "labels": list(ts.meta.channel_labels),
    }
    write_json(desc, header)


def highpass_dc_removal(ts: TimeSeries, cutoff_hz: float) -> TimeSeries:
    """First-order highpass per channel, zero initial state.

    One pole at a = exp(-2*pi*fc*Ta) with the zero at DC; the gain is
    normalized so the response at Nyquist is exactly one:
    y[n] = a*y[n-1] + g*(x[n] - x[n-1]), with x[-1] = y[-1] = 0.
    """
    nyquist = 0.5 / ts.meta.sample_interval_s
    if not 0 < cutoff_hz < nyquist:
        raise ParameterError(
            f"cutoff {cutoff_hz} Hz outside (0, {nyquist}) Hz"
        )
    a = np.exp(-2.0 * np.pi * cutoff_hz * ts.meta.sample_interval_s)
    g = 0.5 * (1.0 + a)
    x = ts.data
    y = np.empty_like(x)
    y[:, 0] = x[:, 0]
    np.subtract(x[:, 1:], x[:, :-1], out=y[:, 1:])
    y *= g
    # Log-step scan of y[n] += a*y[n-1], one channel at a time so that each
    # step reads a row still in cache: after the step of span s, y[n] holds
    # the sum over j < 2s of a**j * g*(x[n-j] - x[n-j-1]). Once a**s
    # underflows to zero, the terms left lie far below float64 resolution.
    for row in y:
        span, pole = 1, a
        while span < row.size and pole != 0.0:
            row[span:] += pole * row[:-span]
            span *= 2
            pole *= pole
    return ts.with_data(y)
