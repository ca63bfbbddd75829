"""Frequency-domain separation loop with broadband bin coupling.

Per iteration: per-bin circular convolution of the frames, broadband
normalization factors across all bins, the multivariate score, a
natural-gradient coefficient update, and the minimum distortion
rescaling. Bins are tied together only through the normalization, which
is what sidesteps the narrowband permutation ambiguity.

run_iva runs the loop on plain arrays: bins 0..L of the real input's
conjugate-symmetric spectrum, laid out once as (bins, channels, blocks),
with the interior bins counted twice in every mean over bins. Each
iteration is one pass over that mixture spectrum X in chunks of blocks of
about _CHUNK_BYTES: per chunk, Y = W X, its broadband norms, the score and
the bracket sum, so no outputs array of the frames' size is ever held.
The score guard needs the outputs' RMS before that pass; it comes from the
per-bin mixture covariances sum_n X X^H, formed once. When every kept bin
is exactly real (L = 1: DC and Nyquist only) the loop runs in float64.
forward_pass, broadband_norms and score are the full-spectrum reference
steps on SpectralFrames; update_step and minimum_distortion serve both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDivergenceError, ParameterError, SingularFilterError
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
# bytes of outputs per chunk of blocks in update_step: it bounds the
# chunk's product, norms, score and bracket buffers, and so the loop's peak
# memory (one chunk per pass ran faster at L = 64 on 2 cores, but held
# outputs the size of the frames)
_CHUNK_BYTES = 1 << 19
# conjugate-symmetry tolerance of run_iva's input, relative to its largest
# magnitude; an FFT of real data misses exact symmetry by about 1e-15
_SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class IvaConfig:
    """Step size, iteration budget, stopping rule, and score guard.

    convergence_tol is relative: the loop stops once the mean update norm
    falls below convergence_tol times its first-iteration value.
    norm_guard=None resolves to 1e-12 times the RMS of the current
    outputs, which keeps the score scale-invariant.
    """

    step_size: float = 0.003
    max_iterations: int = 200
    convergence_tol: float = 1e-6
    norm_guard: float | None = None

    def __post_init__(self):
        if not 0 <= self.step_size <= 1:
            raise ParameterError(f"step_size must be in [0, 1], got {self.step_size}")
        if self.max_iterations < 1:
            raise ParameterError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.convergence_tol >= 0:
            raise ParameterError(f"convergence_tol must be >= 0, got {self.convergence_tol}")
        if self.norm_guard is not None and not self.norm_guard > 0:
            raise ParameterError(f"norm_guard must be positive, got {self.norm_guard}")


@dataclass
class IterationState:
    """One iteration's working set: filters, outputs, norms, and the trace so far.

    outputs is either SpectralFrames of the outputs, (channels, blocks,
    bins), every bin weighted 1, with norms their (blocks, channels)
    broadband norms; or, as run_iva passes it, the bins-major (bins,
    channels, blocks) half spectrum X of the mixture, from which
    update_step forms the outputs W X chunk by chunk. Then norms is None,
    covariance holds the per-bin sums over blocks of X X^H, and
    bin_weights the number of full-spectrum bins each kept bin stands for
    (1, 2, ..., 2, 1). filters holds one matrix per bin of outputs.
    """

    filters: FrequencyFilterBank
    outputs: SpectralFrames | np.ndarray
    norms: np.ndarray | None
    update_norm_trace: list = field(default_factory=list)
    bin_weights: np.ndarray | None = None
    covariance: np.ndarray | None = None

    @property
    def iteration(self) -> int:
        return len(self.update_norm_trace) + 1


@dataclass
class ConvergenceTrace:
    """Per-iteration update norms plus the end-of-run diagnostics."""

    mean_update_norm: list
    max_update_norm: list
    converged: bool
    iterations: int
    discarded_lag_energy: float = 0.0


def _block_chunks(n_blocks: int, block_bytes: int) -> list[slice]:
    """Slices over n_blocks blocks of block_bytes each, about _CHUNK_BYTES
    per slice and the first one the longest."""
    size = max(1, _CHUNK_BYTES // block_bytes)
    return [slice(start, min(start + size, n_blocks)) for start in range(0, n_blocks, size)]


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
    if np.any(norms < 0):
        raise ParameterError("broadband norms must be non-negative")
    denom = norms.T[:, :, None] + guard  # (channels, blocks, 1)
    return outputs.with_data(outputs.data / denom)


def update_step(state: IterationState, cfg: IvaConfig) -> tuple[FrequencyFilterBank, float, float]:
    """Natural-gradient update W <- W + mu [I - mean(Phi Y^H)] W.

    Phi is the score of the outputs; Phi Y^H is summed over blocks in
    chunks of about _CHUNK_BYTES, so the temporaries stay chunk-sized.
    Given the mixture X, each chunk's outputs Y = W X and their broadband
    norms are formed there too. The guard of norm_guard=None is 1e-12
    times the RMS of the outputs. Returns the new bank plus the
    bin-weighted mean and the max Frobenius norm of the bracketed term
    over bins (the convergence-trace entries).
    """
    response = state.filters.response
    outputs_given = isinstance(state.outputs, SpectralFrames)
    source = state.outputs.data.transpose(2, 0, 1) if outputs_given else state.outputs
    n_bins, channels, n_blocks = source.shape
    weights = np.ones(n_bins) if state.bin_weights is None else state.bin_weights
    scale = weights / weights.sum()
    dtype = np.result_type(source, response)
    with np.errstate(over="ignore", invalid="ignore"):
        guard = cfg.norm_guard
        if guard is None:
            if outputs_given:
                mean_power = np.mean(state.norms**2)
            else:
                # sum_v w_v tr(W_v C_v W_v^H) / (M N P), C_v = sum_n X X^H
                power = np.sum((response @ state.covariance) * np.conj(response), axis=(1, 2))
                mean_power = (scale @ power.real) / (n_blocks * channels)
            guard = max(1e-12 * float(np.sqrt(mean_power)), np.finfo(float).tiny)
        # conj(Phi) Y^T summed over blocks, conjugated once at the end; each
        # chunk's outputs and score go to two buffers reused chunk by chunk
        cross = np.zeros((n_bins, channels, channels), dtype=dtype)
        chunks = _block_chunks(n_blocks, n_bins * channels * np.dtype(dtype).itemsize)
        chunk_size = n_bins * channels * (chunks[0].stop - chunks[0].start)
        work = np.empty(chunk_size, dtype=dtype)
        out = None if outputs_given else np.empty(chunk_size, dtype=dtype)
        for blocks in chunks:
            if outputs_given:
                y = source[:, :, blocks]
                norms = state.norms[blocks].T
            else:
                x = source[:, :, blocks]
                y = np.matmul(response, x, out=out[: x.size].reshape(x.shape))
                norms = _chunk_norms(y, scale, work)
            phi_conj = np.multiply(y, 1.0 / (norms + guard), out=work[: y.size].reshape(y.shape))
            if np.iscomplexobj(phi_conj):
                np.conjugate(phi_conj, out=phi_conj)
            cross += phi_conj @ y.transpose(0, 2, 1)
        bracket = np.eye(channels) - np.conj(cross) / n_blocks
        norms = np.linalg.norm(bracket, axis=(1, 2))
        new_response = response + cfg.step_size * (bracket @ response)
    if not np.all(np.isfinite(new_response)):
        bad = ~np.all(np.isfinite(new_response).reshape(n_bins, -1), axis=1)
        raise NumericalDivergenceError(state.iteration, int(np.argmax(bad)))
    mean_norm = float(weights @ norms / weights.sum())
    return FrequencyFilterBank(new_response), mean_norm, float(norms.max())


def _chunk_norms(y: np.ndarray, scale: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(channels, blocks) broadband norms of a bins-major outputs chunk:
    the root of the mean over the full spectrum, kept bin v weighted
    scale[v]. The squared magnitudes go to work, as float64."""
    squared = work.view(np.float64)[: y.size].reshape(y.shape)
    if np.iscomplexobj(y):
        np.square(y.real, out=squared)
        imag = work.view(np.float64)[y.size : 2 * y.size].reshape(y.shape)
        squared += np.square(y.imag, out=imag)
    else:
        np.square(y, out=squared)
    power = scale @ squared.reshape(len(scale), -1)
    return np.sqrt(power, out=power).reshape(y.shape[1:])


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
    cond = np.linalg.norm(response, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
    if np.any(cond > _MAX_CONDITION):
        raise SingularFilterError(int(np.argmax(cond)))
    diag = np.einsum("vqq->vq", inverse)
    return FrequencyFilterBank(diag[:, :, None] * response)


def _half_spectrum(data: np.ndarray) -> np.ndarray:
    """Bins 0..M/2 of (channels, blocks, M) frames, bins-major; float64
    when all of them are exactly real (as at M = 2), complex otherwise.

    Raises ParameterError unless bin M-v is the conjugate of bin v (so the
    DC and Nyquist bins are real) to within _SYMMETRY_RTOL of the largest
    magnitude. Checked bin by bin, so no temporary reaches the frames' size.
    """
    n_bins = data.shape[2]
    kept = data[:, :, : n_bins // 2 + 1]
    tol = _SYMMETRY_RTOL * max(float(np.max(np.abs(data[:, :, v]))) for v in range(kept.shape[2]))
    for v in range(kept.shape[2]):
        mirror = data[:, :, -v % n_bins]
        for gap in (kept[:, :, v].real - mirror.real, kept[:, :, v].imag + mirror.imag):
            if np.max(np.abs(gap, out=gap)) > tol:
                raise ParameterError(
                    f"frames are not conjugate-symmetric: bin {v} is not the conjugate "
                    f"of bin {-v % n_bins} (the input must be real)"
                )
    if not np.any(kept.imag):
        kept = kept.real
    return np.ascontiguousarray(kept.transpose(2, 0, 1))


def _covariance(x: np.ndarray) -> np.ndarray:
    """Per-bin sum over blocks of X X^H for bins-major (bins, channels, blocks) X."""
    n_bins, channels, n_blocks = x.shape
    cov = np.zeros((n_bins, channels, channels), dtype=x.dtype)
    for blocks in _block_chunks(n_blocks, n_bins * channels * x.itemsize):
        chunk = x[:, :, blocks]
        cov += chunk @ np.conj(chunk.transpose(0, 2, 1))
    return cov


def run_iva(frames: SpectralFrames, cfg: IvaConfig) -> tuple[DemixFilterBank, ConvergenceTrace]:
    """Iterate the separation loop from the identity bank and return the
    causal time-domain bank plus the convergence trace.

    Expects centered frames of a real signal (conjugate-symmetric in the
    bins) with an even power-of-two bin count M = 2L and at least two
    blocks. The loop runs on bins 0..L only, transposed once to (bins,
    channels, blocks), in float64 when those bins are exactly real; the
    other bins stay their conjugates throughout. The bank is read out with
    the real inverse DFT, so nothing imaginary is discarded.
    """
    n_bins = frames.n_bins
    if n_bins % 2 != 0:
        raise ParameterError(f"bin count must be even (M = 2L), got {n_bins}")
    if frames.n_blocks < 2:
        raise ParameterError("separation needs at least two blocks")
    filter_length = n_bins // 2

    x = _half_spectrum(frames.data)
    cov = _covariance(x)
    weights = np.full(filter_length + 1, 2.0)
    weights[[0, -1]] = 1.0
    eye = np.eye(frames.n_channels, dtype=x.dtype)
    bank = FrequencyFilterBank(np.tile(eye, (filter_length + 1, 1, 1)))
    mean_trace: list[float] = []
    max_trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iterations):
        state = IterationState(bank, x, None, mean_trace, weights, cov)
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
        iterations=len(mean_trace),
        discarded_lag_energy=late,
    )
    return DemixFilterBank(impulse[:filter_length].transpose(1, 2, 0)), trace


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """CSV with columns iteration, mean_update_norm, max_update_norm."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("iteration,mean_update_norm,max_update_norm\r\n")
        rows = zip(trace.mean_update_norm, trace.max_update_norm)
        for i, (mean_norm, max_norm) in enumerate(rows, start=1):
            fh.write("%d,%r,%r\r\n" % (i, mean_norm, max_norm))
