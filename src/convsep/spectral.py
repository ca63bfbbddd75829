"""STFT analysis and MIMO filter banks in frequency and time form.

SpectralFrames hold all M bins of every block, (channels, blocks, bins),
with M = 2L twice the demixing filter length. The separation stage keeps
only bins 0..L of these conjugate-symmetric frames (see iva.run_iva);
filters_to_time reads full M-bin banks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .signal import SignalMetadata, TimeSeries, _frozen_array, _json_int, read_json, write_json

__all__ = [
    "SpectralFrames",
    "FrequencyFilterBank",
    "DemixFilterBank",
    "make_window",
    "stft",
    "center",
    "filters_to_time",
    "filters_to_freq",
    "save_filter_bank",
    "load_filter_bank",
]

WINDOW_IDS = ("zeropad", "hann", "rect")


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def make_window(window_id: str, n_bins: int) -> np.ndarray:
    """Analysis window of length n_bins.

    "zeropad"  ones over the first half, zeros over the second; per-bin
               products then model linear convolution of each half-block
               with a filter up to half the frame length.
    "hann"     periodic Hann over the full frame.
    "rect"     all ones.
    """
    if window_id == "hann":
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_bins) / n_bins))
    if window_id == "rect":
        return np.ones(n_bins)
    if window_id == "zeropad":
        half = n_bins // 2
        w = np.zeros(n_bins)
        w[: max(half, 1)] = 1.0
        return w
    raise ParameterError(f"unknown window {window_id!r}, expected one of {WINDOW_IDS}")


@dataclass(frozen=True)
class SpectralFrames:
    """Complex STFT data, (channels, blocks, bins), with the framing used."""

    data: np.ndarray
    block_hop: int
    window_id: str
    meta: SignalMetadata

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ParameterError(f"frames must be 3-D (channels, blocks, bins), got {arr.shape}")
        channels, blocks, bins_ = arr.shape
        if channels < 1 or blocks < 1:
            raise ParameterError(f"need at least one channel and one block, got {arr.shape}")
        if not _is_power_of_two(bins_):
            raise ParameterError(f"bin count must be a power of two, got {bins_}")
        if self.block_hop < 1:
            raise ParameterError(f"block_hop must be >= 1, got {self.block_hop}")
        if self.window_id not in WINDOW_IDS:
            raise ParameterError(f"unknown window {self.window_id!r}")
        object.__setattr__(self, "data", _frozen_array(arr, "frames"))

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]

    def with_data(self, data: np.ndarray) -> "SpectralFrames":
        return SpectralFrames(data, self.block_hop, self.window_id, self.meta)


@dataclass(frozen=True)
class FrequencyFilterBank:
    """Per-bin demixing matrices, (bins, channels, channels): complex128,
    or float64 when given as float64 (a bank of exactly real bins)."""

    response: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.response)
        if arr.dtype != np.float64:
            arr = arr.astype(np.complex128, copy=False)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ParameterError(f"response must be (bins, P, P), got {arr.shape}")
        object.__setattr__(self, "response", _frozen_array(arr, "filter responses"))

    @property
    def n_bins(self) -> int:
        return self.response.shape[0]

    @property
    def n_channels(self) -> int:
        return self.response.shape[1]

    @classmethod
    def identity(cls, n_bins: int, n_channels: int) -> "FrequencyFilterBank":
        eye = np.eye(n_channels, dtype=np.complex128)
        return cls(np.tile(eye, (n_bins, 1, 1)))


@dataclass(frozen=True)
class DemixFilterBank:
    """Real MIMO FIR coefficients w[q, p, k], output q from input p at lag k."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise ParameterError(f"coeffs must be (P, P, L), got {arr.shape}")
        if arr.shape[2] < 1:
            raise ParameterError("filter length must be >= 1")
        object.__setattr__(self, "coeffs", _frozen_array(arr, "filter coefficients"))

    @property
    def n_channels(self) -> int:
        return self.coeffs.shape[0]

    @property
    def filter_length(self) -> int:
        return self.coeffs.shape[2]

    @classmethod
    def identity(cls, n_channels: int, filter_length: int) -> "DemixFilterBank":
        coeffs = np.zeros((n_channels, n_channels, filter_length))
        coeffs[np.arange(n_channels), np.arange(n_channels), 0] = 1.0
        return cls(coeffs)


def stft(ts: TimeSeries, n_bins: int, hop: int, window_id: str = "zeropad") -> SpectralFrames:
    """Windowed DFT frames: block m, bin v holds sum_k w[k] x[m*hop+k] e^{-j2pi vk/M}."""
    if not _is_power_of_two(n_bins):
        raise ParameterError(f"bin count must be a power of two, got {n_bins}")
    if not 1 <= hop <= n_bins:
        raise ParameterError(f"hop must be in [1, {n_bins}], got {hop}")
    n = ts.n_samples
    if n < n_bins:
        raise ParameterError(f"signal has {n} samples, shorter than one {n_bins}-sample block")
    window = make_window(window_id, n_bins)
    n_blocks = (n - n_bins) // hop + 1
    # the window's support: samples past its last nonzero tap are zero-padding
    # for the rfft (an all-zero window, hann at M = 1, keeps one sample)
    support = max(len(np.trim_zeros(window, "b")), 1)
    # (channels, blocks, support) view of the blocks, no copy of the signal
    blocks = np.lib.stride_tricks.sliding_window_view(ts.data, support, axis=1)
    blocks = blocks[:, : (n_blocks - 1) * hop + 1 : hop]
    # only a window that is not all ones over its support needs a product (a copy)
    if np.any(window[:support] != 1.0):
        blocks = blocks * window[:support]
    frames = np.empty((ts.n_channels, n_blocks, n_bins), dtype=np.complex128)
    half = n_bins // 2
    np.fft.rfft(blocks, n=n_bins, axis=2, out=frames[:, :, : half + 1])
    # real input: bin M - v is the conjugate of bin v
    np.conjugate(frames[:, :, half - 1 : 0 : -1], out=frames[:, :, half + 1 :])
    return SpectralFrames(frames, hop, window_id, ts.meta)


def center(frames: SpectralFrames) -> SpectralFrames:
    """Remove the across-block mean per channel and bin."""
    mean = frames.data.mean(axis=1, keepdims=True)
    return frames.with_data(frames.data - mean)


def filters_to_time(fb: FrequencyFilterBank, filter_length: int) -> DemixFilterBank:
    """Causal time-domain reading: M-point inverse DFT, first L lags, real part.

    Requires M = 2L.
    """
    m = fb.n_bins
    if m != 2 * filter_length:
        raise ParameterError(f"bin count {m} must equal 2 x filter length {filter_length}")
    impulse = np.fft.ifft(fb.response, axis=0)
    return DemixFilterBank(np.real(impulse[:filter_length]).transpose(1, 2, 0))


def filters_to_freq(bank: DemixFilterBank) -> FrequencyFilterBank:
    """Zero-pad each length-L FIR to M = 2L and apply the M-point DFT."""
    m = 2 * bank.filter_length
    response = np.fft.fft(bank.coeffs, n=m, axis=2)
    return FrequencyFilterBank(response.transpose(2, 0, 1))


def save_filter_bank(bank: DemixFilterBank, path, header) -> None:
    """Write {P, L} JSON header plus raw little-endian float64 in (q, p, k) order."""
    np.ascontiguousarray(bank.coeffs, dtype="<f8").tofile(path)
    write_json({"P": bank.n_channels, "L": bank.filter_length}, header)


def load_filter_bank(path, header) -> DemixFilterBank:
    desc = read_json(header, "filter bank header")
    try:
        channels = _json_int(desc["P"])
        length = _json_int(desc["L"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"cannot read filter bank header {header}: {exc}") from exc
    if channels < 1 or length < 1:
        raise FormatError(f"header declares P={channels}, L={length}; both must be >= 1")
    payload = np.fromfile(path, dtype="<f8")
    expected = channels * channels * length
    if payload.size != expected:
        raise FormatError(
            f"{path}: payload holds {payload.size} float64 values, header requires {expected}"
        )
    return DemixFilterBank(payload.reshape(channels, channels, length))
