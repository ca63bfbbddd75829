"""Multichannel time-domain signals and raw file I/O.

Signals are stored channel-major in memory as float64 and interleaved
little-endian float32 on disk (one frame = one sample of all channels),
described by a small JSON header.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from numbers import Integral, Real

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


# values per slice of _frozen_array's finiteness check: a 16 KiB mask,
# where one over the whole flagship frames would take 0.49 MB
_FINITE_CHUNK = 1 << 14
# characters of an offending value's repr that an error message shows
_SHOWN_CHARS = 32


def _frozen_array(arr: np.ndarray, what: str, error=ParameterError) -> np.ndarray:
    """arr as a C-contiguous read-only array; error if any value is not finite.

    A C-contiguous arr is frozen in place, not copied (the pipeline holds
    one copy of each stage's result): pass a copy to keep a buffer writable.
    Finiteness (both parts of a complex value) is checked over fixed slices
    of the flat array, so no temporary the array's size is made."""
    arr = np.ascontiguousarray(arr)
    flat = arr.reshape(-1)
    for start in range(0, flat.size, _FINITE_CHUNK):
        if not np.isfinite(flat[start : start + _FINITE_CHUNK]).all():
            raise error(f"non-finite values in {what}")
    arr.setflags(write=False)
    return arr


def _shown(value) -> str:
    """repr(value), cut to its first _SHOWN_CHARS characters."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def _real(value, name: str) -> None:
    """ParameterError unless value is a real number, not a bool, finite as a float."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ParameterError(f"{name} must be a finite real number, got {_shown(value)}")


def _integer(value, name: str) -> None:
    """ParameterError unless value is an integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {_shown(value)}")


@dataclass(frozen=True)
class SignalMetadata:
    """Sampling interval in seconds (finite, positive) plus one text label per channel."""

    sample_interval_s: float
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        _real(self.sample_interval_s, "sample_interval_s")
        if self.sample_interval_s <= 0:
            raise ParameterError(f"sample_interval_s must be positive, got {self.sample_interval_s}")
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


def _json_int(value, name: str = "value") -> int:
    """A JSON integer, or a float with an integral value."""
    if not (isinstance(value, float) and value.is_integer()):
        _integer(value, name)
    return int(value)


def _json_float(value, name: str = "value") -> float:
    """A JSON number, finite."""
    _real(value, name)
    return float(value)


def _json_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {_shown(value)}")
    return value


def _json_list(coerce):
    def coerce_list(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {_shown(value)}")
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


def _open_new(path, mode: str, **kwargs):
    """open(path, mode) for writing on a new inode, the one place that opens
    a file for writing.

    A regular file at path is unlinked first, not truncated. On ext4
    (auto_da_alloc) truncating a file and writing it again allocates its
    blocks at once, so a rerun or delete soon after pays tens of
    milliseconds per file to free them; a file written new has no blocks
    until writeback (about 30 s later), and freeing it costs nothing before
    then. After writeback both pay the same. A missing path, a symlink
    (followed to its target) or a device is opened as is, and so is a file
    whose directory does not let it be unlinked."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass
    return open(path, mode, **kwargs)


def write_json(payload, path) -> None:
    """Write payload as JSON with sorted keys, indent 2 and a trailing newline."""
    with _open_new(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_payload(values: np.ndarray, dtype: str, path, header, desc: dict) -> None:
    """Write values in C order as little-endian dtype to a new file, then desc to header."""
    with _open_new(path, "wb") as fh:
        np.ascontiguousarray(values, dtype=dtype).tofile(fh)
    write_json(desc, header)


def _read_payload(path, header, what: str, dtype: str, shape: tuple[str, ...]):
    """(desc, payload): the JSON header, and path's payload in the shape of the
    header counts that shape names. FormatError unless each count is an
    integer >= 1 and the payload holds exactly their product of dtype values;
    messages cut each header value by _shown."""
    desc = read_json(header, what)
    try:
        counts = {name: _json_int(desc[name], name) for name in shape}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"cannot read {what} {header}: {exc}") from exc
    declared = ", ".join(f"{name}={_shown(count)}" for name, count in counts.items())
    if min(counts.values()) < 1:
        raise FormatError(f"{header}: header declares {declared}; each must be >= 1")
    dims = [counts[name] for name in shape]
    payload = np.fromfile(path, dtype=dtype)
    if payload.size != math.prod(dims):
        raise FormatError(
            f"{path}: payload holds {payload.size} {np.dtype(dtype).name} values, "
            f"{header} requires {' x '.join(shape)} with {declared}"
        )
    return desc, payload.reshape(dims)


def read_raw(path, header) -> TimeSeries:
    """Read an interleaved little-endian float32 file described by a JSON header.

    The payload length must equal channels * samples * 4 bytes; values are
    widened to float64 in one C-order copy.
    """
    desc, payload = _read_payload(path, header, "signal header", "<f4", ("samples", "channels"))
    try:
        labels = _json_list(_json_str)(desc["labels"])
        # a ParameterError here is a ValueError, so a bad interval is a FormatError
        meta = SignalMetadata(_json_float(desc["sample_interval_s"], "sample_interval_s"), labels)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"cannot read signal header {header}: {exc}") from exc
    if len(labels) != payload.shape[1]:
        raise FormatError(f"{header}: header has {len(labels)} labels for {payload.shape[1]} channels")
    data = np.ascontiguousarray(payload.T, dtype=np.float64)
    try:
        return TimeSeries(data, meta)  # the one finiteness scan of the payload
    except DataError as exc:
        raise DataError(f"{path}: payload contains non-finite values") from exc


def write_raw(ts: TimeSeries, path, header) -> None:
    """Write the signal as interleaved little-endian float32 plus a JSON header."""
    desc = {
        "channels": ts.n_channels,
        "samples": ts.n_samples,
        "sample_interval_s": ts.meta.sample_interval_s,
        "labels": list(ts.meta.channel_labels),
    }
    _write_payload(ts.data.T, "<f4", path, header, desc)


def highpass_dc_removal(ts: TimeSeries, cutoff_hz: float) -> TimeSeries:
    """First-order highpass per channel, zero initial state.

    One pole at a = exp(-2*pi*fc*Ta) with the zero at DC; the gain is
    normalized so the response at Nyquist is exactly one:
    y[n] = a*y[n-1] + g*(x[n] - x[n-1]), with x[-1] = y[-1] = 0.
    """
    nyquist = 0.5 / ts.meta.sample_interval_s
    if not 0 < cutoff_hz < nyquist:
        raise ParameterError(f"cutoff {cutoff_hz} Hz outside (0, {nyquist}) Hz")
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
