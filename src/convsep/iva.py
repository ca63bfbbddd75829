"""Frequency-domain separation loop with broadband bin coupling.

Per iteration: per-bin circular convolution of the frames, broadband
normalization factors across all bins, the multivariate score, a
natural-gradient coefficient update, and the minimum distortion
rescaling. Bins are tied together only through the normalization, which
is what sidesteps the narrowband permutation ambiguity.

run_iva runs the loop on plain arrays: bins 0..L of the real input's
conjugate-symmetric spectrum, laid out once in float32 as (bins, 2 *
channels, blocks) with rows [Re X; Im X], and with the interior bins
counted twice in every mean over bins. Each iteration is one pass over
that mixture X in chunks of blocks of about _CHUNK_BYTES, all in real
arithmetic of the mixture's dtype: per chunk, the stacked outputs
[Re Y; Im Y] from the real block form of W, their broadband norms, the
score and the chunk's Gram matrix, which is summed across chunks in
float64; so no outputs array of the frames' size is ever held. The
chunk size sets speed as well as memory: of 512 KiB, 1 MiB and 2 MiB, 1
MiB gave the lowest benchmark wall time on the flagship and no higher on
the other workloads, and 2 MiB (one chunk per pass on the flagship) the
highest on the two-source pair. The bank, the bracket and
minimum_distortion stay float64 (complex128). The score Y / ||Y|| does
not depend on scale, so its guard is the dtype's smallest normal number,
an absolute floor that only keeps a silent block's 0/0 at 0. When every
kept bin is exactly real (L = 1: DC and Nyquist only) the rows are X
alone and the bank stays float64.
forward_pass, broadband_norms and score are the full-spectrum reference
steps on SpectralFrames; update_step and minimum_distortion serve both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import NumericalDivergenceError, ParameterError, SingularFilterError
from .signal import _open_new
from .spectral import DemixFilterBank, FrequencyFilterBank, SpectralFrames

__all__ = [
    "IvaConfig",
    "IterationState",
    "ConvergenceTrace",
    "forward_pass",
    "broadband_norms",
    "score",
    "update_step",
    "minimum_distortion",
    "run_iva",
    "write_trace_csv",
]

# condition-number ceiling for the per-bin inversion in minimum_distortion;
# transient ill-conditioning during iteration self-corrects, so the guard
# only rejects matrices whose inverse is numerically meaningless
_MAX_CONDITION = 1e14
# bytes of outputs per chunk of blocks in update_step: it bounds the chunk's
# temporaries, and so the loop's peak memory, and it sets the speed too.
# perfbench wall_s, medians of 6 alternating runs on 2 cores, flagship /
# pair-l1-l64 / cli-roundtrip: 512 KiB 0.187 / 0.318 / 0.121 s, 1 MiB
# 0.184 / 0.315 / 0.120 s, 2 MiB 0.216 / 0.423 / 0.118 s (one chunk per
# pass on the flagship). Reused chunk buffers ran no faster than fresh
# temporaries
_CHUNK_BYTES = 1 << 20
# conjugate-symmetry tolerance of run_iva's input, relative to its largest
# magnitude; an FFT of real data misses exact symmetry by about 1e-15
_SYMMETRY_RTOL = 1e-10
# bins per pass of the symmetry check: neighbouring bins share cache lines
# of the (channels, blocks, M) frames, so one bin a pass reads every line
# once per kept bin; on the flagship frames (2 cores) the check took 2.3 ms
# at one bin a pass and 0.9 ms at 8
_SYMMETRY_BINS = 8


@dataclass(frozen=True)
class IvaConfig:
    """Step size, iteration budget, and stopping rule.

    convergence_tol is relative: the loop stops once the mean update norm
    falls below convergence_tol times its first-iteration value.
    max_iterations must be an integer (a bool is not one).
    """

    step_size: float = 0.003
    max_iterations: int = 200
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.step_size <= 1:
            raise ParameterError(f"step_size must be in [0, 1], got {self.step_size}")
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, Integral):
            raise ParameterError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ParameterError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 <= self.convergence_tol < np.inf:
            raise ParameterError(
                f"convergence_tol must be finite and >= 0, got {self.convergence_tol}"
            )


@dataclass
class IterationState:
    """One iteration's working set: filters, outputs, norms, and the trace so far.

    outputs is either SpectralFrames of the outputs, (channels, blocks,
    bins), every bin weighted 1, with norms their (blocks, channels)
    broadband norms; or the half spectrum X of the mixture as a float32
    (as run_iva passes it) or float64 (bins, K * channels, blocks) array,
    rows [Re X; Im X] for a complex bank (K = 2) or X for a float64 one
    (K = 1), from which update_step forms the outputs W X chunk by chunk in
    that dtype. Then norms is None, and each kept bin counts for the
    full-spectrum bins it stands for (1, 2, ..., 2, 1). filters holds one
    matrix per bin of outputs, float64 or complex128 in either case.
    """

    filters: FrequencyFilterBank
    outputs: SpectralFrames | np.ndarray
    norms: np.ndarray | None
    update_norm_trace: list = field(default_factory=list)

    @property
    def iteration(self) -> int:
        return len(self.update_norm_trace) + 1


@dataclass
class ConvergenceTrace:
    """Per-iteration update norms plus the end-of-run diagnostics."""

    mean_update_norm: list
    max_update_norm: list
    converged: bool
    discarded_lag_energy: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.mean_update_norm)


def forward_pass(fb: FrequencyFilterBank, frames: SpectralFrames) -> SpectralFrames:
    """Per bin and block, Y = W X."""
    if fb.n_channels != frames.n_channels or fb.n_bins != frames.n_bins:
        raise ParameterError(
            f"bank is {fb.n_bins} bins x {fb.n_channels} channels, "
            f"frames are {frames.n_bins} x {frames.n_channels}"
        )
    x = frames.data.transpose(2, 0, 1)  # (bins, channels, blocks)
    y = fb.response @ x
    return frames.with_data(y.transpose(1, 2, 0))


def broadband_norms(outputs: SpectralFrames) -> np.ndarray:
    """b[m, p] = sqrt of the mean squared magnitude across all bins."""
    with np.errstate(over="ignore"):
        power = np.mean(np.abs(outputs.data) ** 2, axis=2)  # (channels, blocks)
    return np.sqrt(power).T


def score(outputs: SpectralFrames, norms: np.ndarray, guard: float) -> SpectralFrames:
    """Multivariate score: each bin divided by its block's broadband norm."""
    norms = np.asarray(norms, dtype=np.float64)
    if norms.shape != (outputs.n_blocks, outputs.n_channels):
        raise ParameterError(
            f"norms shape {norms.shape} does not match (blocks, channels) "
            f"({outputs.n_blocks}, {outputs.n_channels})"
        )
    if not np.all((norms >= 0) & (norms < np.inf)):
        raise ParameterError("broadband norms must be finite and non-negative")
    denom = norms.T[:, :, None] + guard  # (channels, blocks, 1)
    return outputs.with_data(outputs.data / denom)


def update_step(state: IterationState, cfg: IvaConfig) -> tuple[FrequencyFilterBank, float, float]:
    """Natural-gradient update W <- W + mu [I - mean(Phi Y^H)] W.

    Phi is the score of the outputs. The pass over the blocks runs in real
    arithmetic, in chunks of about _CHUNK_BYTES (they bound the temporaries
    and set the speed), on the stacked outputs Z = [Re Y; Im Y] (Y alone
    for a float64 bank): G += (Z / ||Y||) Z^T, and then Phi Y^H = G_aa + G_bb +
    i (G_ba - G_ab) from the blocks of G. Given the stacked mixture, Z is
    [[Re W, -Im W], [Im W, Re W]] (W for a float64 bank) times it, and the
    broadband norms are formed there too, with the half spectrum's interior
    bins weighted 2. The mixture's dtype, float32 or float64, is the dtype
    of that pass: Z, the norms, the score and each chunk's G. The sum of G
    over the chunks, the bracket and the new bank are float64 (complex128)
    either way. Every norm is guarded by the smallest normal number of the
    pass's dtype.
    Returns the new bank plus the bin-weighted mean and the max Frobenius
    norm of the bracketed term over bins (the convergence-trace entries).
    Raises ParameterError when given outputs differ from the bank in bins
    or channels or lack finite, non-negative (blocks, channels) norms (an
    infinite or NaN norm, as broadband_norms gives a block past about
    1.3e154, would drop that block's score to 0 or spread NaN), or when the
    mixture is not float32 or float64 with K x the bank's channels as rows
    (K = 2 for a complex bank, 1 for a float64 one). Raises
    NumericalDivergenceError, naming the iteration and a bin, when the new
    bank is not finite or when a block's broadband norm formed from the
    mixture overflows (its outputs past about 1.8e19 in float32, 1.3e154
    in float64), which would otherwise drop the block from the mean.
    """
    response = state.filters.response
    n_bins, channels = response.shape[:2]
    outputs_given = isinstance(state.outputs, SpectralFrames)
    if outputs_given:
        parts = 2
        source = state.outputs.data.transpose(2, 0, 1)  # (bins, channels, blocks)
        if source.shape[:2] != (n_bins, channels):
            raise ParameterError(
                f"bank is {n_bins} bins x {channels} channels, "
                f"outputs are {source.shape[0]} x {source.shape[1]}"
            )
        n_blocks = source.shape[2]
        given = np.asarray(state.norms)
        if given.shape != (n_blocks, channels):
            raise ParameterError(
                f"norms must be (blocks, channels) = ({n_blocks}, {channels}), "
                f"got shape {given.shape}"
            )
        if not np.all((given >= 0) & (given < np.inf)):
            raise ParameterError("broadband norms must be finite and non-negative")
    else:
        parts = 1 if response.dtype == np.float64 else 2
        source = state.outputs
        expected = (n_bins, parts * channels)
        dtype_ok = source.dtype in (np.float32, np.float64)
        if source.ndim != 3 or source.shape[:2] != expected or not dtype_ok:
            raise ParameterError(
                f"a {response.dtype} bank of shape {response.shape} needs a float32 or float64 "
                f"mixture of shape ({expected[0]}, {expected[1]}, blocks), "
                f"got {source.dtype} {source.shape}"
            )
        n_blocks = source.shape[2]
        w_real = np.empty((n_bins, parts * channels, parts * channels), dtype=source.dtype)
        if parts == 1:
            w_real[...] = response
        else:
            w = w_real.reshape(n_bins, 2, channels, 2, channels)  # [[Re W, -Im W], [Im W, Re W]]
            w[:, 0, :, 0] = w[:, 1, :, 1] = response.real
            w[:, 1, :, 0] = response.imag
            np.negative(response.imag, out=w[:, 0, :, 1])
    finfo = np.finfo(source.dtype)  # of the pass: float64 for complex outputs
    weights = np.ones(n_bins)
    if not outputs_given:
        weights[1:-1] = 2.0
    scale = (weights / weights.sum()).astype(finfo.dtype)
    rows = parts * channels
    split = (n_bins, parts, channels, -1)
    step = max(1, _CHUNK_BYTES // (n_bins * rows * finfo.dtype.itemsize))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.zeros((n_bins, rows, rows))
        for start in range(0, n_blocks, step):
            blocks = slice(start, start + step)
            if outputs_given:
                y = source[:, :, blocks]
                z = np.concatenate((y.real, y.imag), axis=1)
                sq = np.empty_like(z)
                inv = given[blocks].T + finfo.tiny
            else:
                z = w_real @ source[:, :, blocks]
                sq = np.square(z)
                halves = (scale @ sq.reshape(n_bins, -1)).reshape(parts, channels, -1)
                inv = halves[0] if parts == 1 else halves[0] + halves[1]
                np.sqrt(inv, out=inv)
                if not np.all(np.isfinite(inv)):
                    channel, block = np.argwhere(~np.isfinite(inv))[0]
                    loudest = np.argmax(np.max(sq[:, channel::channels, block], axis=1))
                    raise NumericalDivergenceError(state.iteration, int(loudest))
                inv += finfo.tiny
            np.divide(1.0, inv, out=inv)
            np.multiply(z.reshape(split), inv, out=sq.reshape(split))
            gram += sq @ z.transpose(0, 2, 1)
        cross = gram
        if parts == 2:
            g = gram.reshape(n_bins, 2, channels, 2, channels)  # [[G_aa, G_ab], [G_ba, G_bb]]
            cross = np.empty(response.shape, dtype=np.complex128)
            np.add(g[:, 0, :, 0], g[:, 1, :, 1], out=cross.real)
            np.subtract(g[:, 1, :, 0], g[:, 0, :, 1], out=cross.imag)
        cross /= n_blocks
        bracket = np.subtract(np.eye(channels), cross, out=cross)
        norms = np.sqrt(_squared_norms(bracket))
        new_response = response + cfg.step_size * (bracket @ response)
    if not np.all(np.isfinite(new_response)):
        bad = ~np.all(np.isfinite(new_response).reshape(n_bins, -1), axis=1)
        raise NumericalDivergenceError(state.iteration, int(np.argmax(bad)))
    mean_norm = float(weights @ norms / weights.sum())
    return FrequencyFilterBank(new_response), mean_norm, float(norms.max())


def minimum_distortion(fb: FrequencyFilterBank) -> FrequencyFilterBank:
    """Rescale per bin: W <- diag{W^-1} W.

    Raises SingularFilterError, naming the bin, when some W is singular,
    its inverse is not finite, or its condition estimate exceeds 1e14.
    """
    response = fb.response
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(response)
        except np.linalg.LinAlgError:
            dets = np.abs(np.linalg.det(response))
            raise SingularFilterError(int(np.argmin(dets)))
        finite = np.all(np.isfinite(inverse).reshape(inverse.shape[0], -1), axis=1)
        if not np.all(finite):
            raise SingularFilterError(int(np.argmax(~finite)))
        # the condition estimate ||W||_F ||W^-1||_F, squared (an overflow is
        # past the ceiling too)
        cond = _squared_norms(response) * _squared_norms(inverse)
    if np.any(cond > _MAX_CONDITION**2):
        raise SingularFilterError(int(np.argmax(cond)))
    return FrequencyFilterBank(inverse.diagonal(0, 1, 2)[:, :, None] * response)


def _squared_norms(matrices: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a C-contiguous (bins, P, P)
    float64 or complex128 array."""
    flat = matrices.reshape(matrices.shape[0], -1).view(np.float64)
    return np.vecdot(flat, flat)


def _half_spectrum(data: np.ndarray) -> np.ndarray:
    """Bins 0..M/2 of (channels, blocks, M) frames as one float32 array of
    shape (bins, K * channels, blocks): rows [Re X; Im X] (K = 2), or X
    alone (K = 1) when every kept bin is exactly real (as at M = 2).

    Raises ParameterError unless bin M-v is the conjugate of bin v (so the
    DC and Nyquist bins are real) to within _SYMMETRY_RTOL of the largest
    magnitude, naming the first bin that is not. Checked _SYMMETRY_BINS
    bins at a time, so no temporary reaches the frames' size.
    """
    n_bins = data.shape[2]
    kept = data[:, :, : n_bins // 2 + 1]
    mirrors = data[:, :, : n_bins // 2 - 1 : -1]  # bins M-1, ..., M/2, partners of bins 1..M/2
    passes = [(0, 1)] + [(v, v + _SYMMETRY_BINS) for v in range(1, kept.shape[2], _SYMMETRY_BINS)]
    tol = _SYMMETRY_RTOL * max(float(np.max(np.abs(kept[:, :, a:b]))) for a, b in passes)
    for v0, v1 in passes:
        part = kept[:, :, v0:v1]
        mirror = part if v0 == 0 else mirrors[:, :, v0 - 1 : v1 - 1]
        gap = np.abs(part.real - mirror.real)
        np.maximum(gap, np.abs(part.imag + mirror.imag), out=gap)
        if np.max(gap) > tol:
            v = v0 + int(np.argmax(np.max(gap, axis=(0, 1)) > tol))
            raise ParameterError(
                f"frames are not conjugate-symmetric: bin {v} is not the conjugate "
                f"of bin {-v % n_bins} (the input must be real)"
            )
    parts = (kept.real, kept.imag) if np.any(kept.imag) else (kept.real,)
    # concatenate would follow the frames' layout; X is read bins-major
    x = np.empty((kept.shape[2], len(parts) * kept.shape[0], kept.shape[1]), dtype=np.float32)
    return np.concatenate([part.transpose(2, 0, 1) for part in parts], axis=1, out=x)


def run_iva(frames: SpectralFrames, cfg: IvaConfig) -> tuple[DemixFilterBank, ConvergenceTrace]:
    """Iterate the separation loop from the identity bank and return the
    causal time-domain bank plus the convergence trace.

    Expects centered frames of a real signal (conjugate-symmetric in the
    bins) with an even power-of-two bin count M = 2L and at least two
    blocks. The loop runs on bins 0..L only, stacked once as [Re X; Im X]
    in a float32 (bins, 2 * channels, blocks) array, or X alone with a
    float64 bank when those bins are exactly real; the other bins stay
    their conjugates throughout. The chunk pass runs in float32; the bank
    and the trace stay float64. The bank is read out with the real
    inverse DFT, so nothing imaginary is discarded.
    """
    n_bins = frames.n_bins
    if n_bins % 2 != 0:
        raise ParameterError(f"bin count must be even (M = 2L), got {n_bins}")
    if frames.n_blocks < 2:
        raise ParameterError("separation needs at least two blocks")
    filter_length = n_bins // 2

    x = _half_spectrum(frames.data)
    real = x.shape[1] == frames.n_channels
    eye = np.eye(frames.n_channels, dtype=np.float64 if real else np.complex128)
    bank = FrequencyFilterBank(np.tile(eye, (filter_length + 1, 1, 1)))
    mean_trace: list[float] = []
    max_trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iterations):
        state = IterationState(bank, x, None, mean_trace)
        try:
            bank, mean_norm, max_norm = update_step(state, cfg)
            bank = minimum_distortion(bank)
        except SingularFilterError as exc:
            raise NumericalDivergenceError(
                state.iteration,
                exc.bin_index,
                f"separation update became singular at iteration {state.iteration}, "
                f"frequency bin {exc.bin_index}",
            ) from exc
        mean_trace.append(mean_norm)
        max_trace.append(max_norm)
        if mean_norm <= cfg.convergence_tol * mean_trace[0]:
            converged = True
            break

    impulse = np.fft.irfft(bank.response, n=n_bins, axis=0)  # (lags, P, P)
    total = float(np.sum(impulse**2))
    late = float(np.sum(impulse[filter_length:] ** 2)) / total if total > 0 else 0.0
    trace = ConvergenceTrace(
        mean_update_norm=mean_trace,
        max_update_norm=max_trace,
        converged=converged,
        discarded_lag_energy=late,
    )
    return DemixFilterBank(impulse[:filter_length].transpose(1, 2, 0)), trace


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """CSV with columns iteration, mean_update_norm, max_update_norm."""
    with _open_new(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("iteration,mean_update_norm,max_update_norm\r\n")
        rows = zip(trace.mean_update_norm, trace.max_update_norm)
        for i, (mean_norm, max_norm) in enumerate(rows, start=1):
            fh.write("%d,%r,%r\r\n" % (i, mean_norm, max_norm))
