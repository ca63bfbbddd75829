"""STFT analysis and MIMO filter banks in frequency and time form.

SpectralFrames hold all M bins of every block, (channels, blocks, bins),
with M = 2L twice the demixing filter length. The separation stage keeps
only bins 0..L of these conjugate-symmetric frames (see iva.run_iva);
filters_to_time reads full M-bin banks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .signal import TimeSeries, _frozen_array, _read_payload, _write_payload

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

# samples per block of the block-Toeplitz FIR, and blocks per matrix product;
# with the tap matrix they bound its temporaries (0.38x the output's bytes at
# P = 4, L = 64 and 61,475 samples)
_FIR_BLOCK = 32
_FIR_CHUNK_BLOCKS = 64


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
    """Complex STFT data, (channels, blocks, bins)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ParameterError(f"frames must be 3-D (channels, blocks, bins), got {arr.shape}")
        channels, blocks, bins_ = arr.shape
        if channels < 1 or blocks < 1:
            raise ParameterError(f"need at least one channel and one block, got {arr.shape}")
        if not _is_power_of_two(bins_):
            raise ParameterError(f"bin count must be a power of two, got {bins_}")
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
        return SpectralFrames(data)


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


def _mimo_fir(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_q(n) = sum_p sum_k w[q,p,k] x_p(n-k) from zero state, for (Q, P, L)
    coefficients and a (P, N) signal; returns (Q, N).

    Block-Toeplitz form: with the signal cut into blocks of B = _FIR_BLOCK
    samples, output block b is the window of input blocks b-m..b (all
    channels, m = ceil((L-1)/B)) times one (P*(m+1)*B, Q*B) tap matrix T,
    T[(p, t), (q, j)] = w[q, p, m*B + j - t] (zero outside 0..L-1). The
    windows of _FIR_CHUNK_BLOCKS blocks go through one matrix product at a
    time, in buffers allocated once per call. Where an output sample has a
    single nonzero tap a (an identity bank, a pure delay, a scaled spike),
    every other product is an exact zero, so the sample is a times its input
    bit for bit.
    """
    q, p, length = coeffs.shape
    n = x.shape[1]
    block = _FIR_BLOCK
    reach = -(-(length - 1) // block)
    span = (reach + 1) * block
    # rev[q, p, u] = w[q, p, span - 1 - u]; a sliding window of it read
    # backwards is the Toeplitz block of one (q, p) pair
    rev = np.zeros((q, p, span + block - 1))
    rev[:, :, span - length : span] = coeffs[:, :, ::-1]
    taps = np.lib.stride_tricks.sliding_window_view(rev, block, axis=2)[..., ::-1]
    taps = taps.transpose(1, 2, 0, 3).reshape(p * span, q * block)
    out = np.zeros((q, n))
    n_blocks = -(-n // block)
    chunk = min(_FIR_CHUNK_BLOCKS, n_blocks)
    # reused by every chunk: its input from `reach` blocks before it on (zero
    # outside 0..N-1), the windows of that input, their products with the taps
    seg = np.zeros((p, (chunk + reach) * block))
    windows = np.empty((chunk, p, span))
    prod = np.empty((chunk, q, block))
    full = n // block
    whole = out[:, : full * block].reshape(q, full, block)
    view = np.lib.stride_tricks.sliding_window_view(seg, span, axis=1)[:, ::block]
    for b0 in range(0, n_blocks, chunk):
        start = (b0 - reach) * block
        lo, hi = max(start, 0), min(start + seg.shape[1], n)
        seg[:, : lo - start] = 0.0
        seg[:, lo - start : hi - start] = x[:, lo:hi]
        seg[:, hi - start :] = 0.0
        np.copyto(windows.transpose(1, 0, 2), view)
        np.matmul(windows.reshape(chunk, p * span), taps, out=prod.reshape(chunk, q * block))
        whole[:, b0 : b0 + chunk] = prod[: full - b0].transpose(1, 0, 2)
    if n > full * block:  # the short last block, the last chunk's row full - b0
        out[:, full * block :] = prod[full - b0, :, : n - full * block]
    return out


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
    return SpectralFrames(frames)


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
    desc = {"P": bank.n_channels, "L": bank.filter_length}
    _write_payload(bank.coeffs, "<f8", path, header, desc)


def load_filter_bank(path, header) -> DemixFilterBank:
    _, payload = _read_payload(path, header, "filter bank header", "<f8", ("P", "P", "L"))
    try:
        return DemixFilterBank(payload)
    except ParameterError as exc:  # the shape is checked, so the values are not finite
        raise DataError(f"{path}: payload contains non-finite values") from exc
