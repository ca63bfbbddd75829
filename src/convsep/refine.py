"""Broadband time-domain refinement of the causal FIR bank.

The frequency-domain loop fits each bin on its own block-limited frames,
so its bank keeps the leakage that spills across block edges. This stage
works on the sphered signal itself, in the P*L-dimensional space of its
lagged vectors X(n) = [x_p(n - k)], where every causal L-tap bank row w
gives the output y(n) = w^T X(n).

Each output is modelled as its own source's image at one sphered channel
plus interference, the source with a variance that changes from block to
block (nonstationarity) and the interference with a constant one. One
majorize-minimize step re-estimates the block variances s_b^2 from the
current output and the interference variance s_v^2 from its residual
against the channel, then solves

    min_w  E[(x_q(n) - w^T X(n))^2] / s_v^2 + E[(w^T X(n))^2 / s_b(n)^2]

in closed form: w = (R + V)^{-1} R e_q, with R the lagged covariance, V
the lagged covariance weighted by s_v^2 / s_b^2 and e_q the row that
reads channel q. The first term keeps the minimum-distortion property
(the output approximates its source's image at channel q); the second
suppresses whatever the output carries while its source is quiet.

Only the most nonstationary output of the IVA stage (the lowest block
contrast) is refined. Its refined row replaces the IVA row only if it
makes the output clearly more nonstationary: where the source's variance
barely changes, the model cannot tell it from the interference, and the
step drifts back toward the raw channel. Every other row stays the IVA
row.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import DemixFilterBank, _mimo_fir

__all__ = [
    "MIN_BLOCK",
    "REFINEMENT_STEPS",
    "RefinementTrace",
    "LaggedStatistics",
    "block_contrast",
    "refine_bank",
]

# majorize-minimize steps of the refined output
REFINEMENT_STEPS = 5
# shortest variance block in samples: over fewer samples a block power is
# too noisy a variance estimate to tell one source from another
MIN_BLOCK = 16
# block powers are floored at this fraction of their mean, so silent
# blocks get a large but finite weight
_POWER_FLOOR = 1e-10
# a refined row is kept only if its contrast drop over the IVA output is
# this many standard errors of the blockwise paired difference
_MIN_DROP_Z = 5.0
# blockwise log-power differences that spread less than this are rounding,
# not a change (a row the steps leave in place differs by about 1e-16)
_MIN_SPREAD = 1e-9
# samples per chunk when the lagged vectors are materialized (x P*L doubles),
# and block ends per chunk of the diagonal-step product
_CHUNK_SAMPLES = 512
_GRAM_BLOCKS = 256


@dataclass(frozen=True)
class RefinementTrace:
    """Record of the refinement of one output.

    output is the refined output, the lowest of contrast_before (the
    block_contrast of every IVA output); accepted says whether its refined
    row replaced the IVA row; steps counts the majorize-minimize steps
    taken; contrast_after is the output's block_contrast afterwards (equal
    to its contrast_before where the refinement was not accepted).
    """

    output: int
    accepted: bool
    steps: int
    contrast_before: tuple[float, ...]
    contrast_after: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _block_powers(y: np.ndarray, block: int) -> np.ndarray:
    """Mean square of y over consecutive blocks; the last may be short.
    Squares y in place, so an output costs one signal-sized array, not two."""
    n = y.shape[-1]
    n_blocks = -(-n // block)
    sums = np.add.reduceat(np.square(y, out=y), np.arange(n_blocks) * block, axis=-1)
    counts = np.minimum(block, n - np.arange(n_blocks) * block)
    return sums / counts


def _log_relative(power: np.ndarray) -> np.ndarray:
    """log(block power / mean block power), floored; zeros for silence."""
    mean = float(power.mean())
    if mean <= 0.0:
        return np.zeros_like(power)
    return np.log(np.maximum(power, _POWER_FLOOR * mean) / mean)


def _contrast(power: np.ndarray) -> float:
    return float(np.mean(_log_relative(power)))


def block_contrast(y: np.ndarray, block: int) -> float:
    """Mean log block power minus log mean block power (<= 0).

    The more the output's power varies from block to block, the lower the
    value; a stationary output sits near 0.
    """
    return _contrast(_block_powers(np.array(y, dtype=np.float64), block))


def _contrast_drop_z(before: np.ndarray, after: np.ndarray) -> float:
    """How far the block contrast fell from block powers `before` to block
    powers `after`, in standard errors of the mean of the blockwise
    differences of log relative power."""
    diff = _log_relative(after) - _log_relative(before)
    spread = float(np.std(diff))
    if spread < _MIN_SPREAD:
        return 0.0
    return -float(np.mean(diff)) * np.sqrt(diff.size) / spread


class LaggedStatistics:
    """Exact lagged covariances of one (P, N) signal under block weights.

    S = (1/N) sum_n phi(n) X(n) X(n)^T for a weight phi(n) that is constant
    on each block of `block` samples (samples before n = 0 are zero). S
    follows from its first block row, F[p, q, j] = (1/N) sum_n phi(n)
    x_p(n) x_q(n - j), and from the recursion along its diagonals

        S[(p, i+1), (q, j+1)] = S[(p, i), (q, j)] + D[(p, i), (q, j)],
        D = (1/N) sum_m (phi(m+1) - phi(m)) X(m) X(m)^T,

    where phi(N) = 0, so D only involves the lagged vectors at the block
    ends. The per-block partial sums of F and those vectors are formed
    once; each weighting then costs a weighted sum and one matrix product,
    the latter taken a few hundred blocks at a time.
    """

    def __init__(self, x: np.ndarray, filter_length: int, block: int):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ParameterError(f"signal must be (channels, samples), got {x.shape}")
        if filter_length < 1 or block < 1:
            raise ParameterError("filter length and block must be >= 1")
        self.x = x
        self.filter_length = filter_length
        p, n = x.shape
        length = filter_length
        self.n_blocks = -(-n // block)
        # lagged vectors, (P, blocks * block, L) with [:, n, k] = x(n - k): a
        # reversed sliding window over the signal zero-padded by L - 1 samples
        # in front and out to whole blocks behind
        padded = np.zeros((p, length - 1 + self.n_blocks * block))
        padded[:, length - 1 : length - 1 + n] = x
        lagged = np.lib.stride_tricks.sliding_window_view(padded, length, axis=1)[:, :, ::-1]
        # per-block partial first rows, (blocks, P, P*L), built chunk by chunk
        self._first = np.empty((self.n_blocks, p, p * length))
        per_chunk = max(1, _CHUNK_SAMPLES // block)
        for b0 in range(0, self.n_blocks, per_chunk):
            b1 = min(self.n_blocks, b0 + per_chunk)
            chunk = lagged[:, b0 * block : b1 * block]
            current = chunk[:, :, 0].reshape(p, b1 - b0, block)
            vectors = chunk.transpose(0, 2, 1).reshape(p * length, b1 - b0, block)
            self._first[b0:b1] = current.transpose(1, 0, 2) @ vectors.transpose(1, 2, 0)
        # lagged vectors at the last sample of each block, (P*L, blocks)
        ends = np.minimum(np.arange(1, self.n_blocks + 1) * block, n) - 1
        self._end_vectors = lagged[:, ends].transpose(0, 2, 1).reshape(p * length, self.n_blocks)

    def covariance(self, block_weights: np.ndarray | None = None) -> np.ndarray:
        """(P*L, P*L) weighted lagged covariance, symmetric up to rounding;
        None means unit weights."""
        p, n = self.x.shape
        length = self.filter_length
        if block_weights is None:
            phi = np.ones(self.n_blocks)
        else:
            phi = np.asarray(block_weights, dtype=np.float64)
            if phi.shape != (self.n_blocks,):
                raise ParameterError(f"need {self.n_blocks} block weights, got {phi.shape}")
        first = np.tensordot(phi, self._first, axes=1).reshape(p, p, length) / n
        step = np.append(np.diff(phi), -phi[-1]) / n  # phi(m+1) - phi(m) at each block end
        diag = np.zeros((p * length, p * length))
        for b0 in range(0, self.n_blocks, _GRAM_BLOCKS):
            ends = self._end_vectors[:, b0 : b0 + _GRAM_BLOCKS]
            diag += (ends * step[b0 : b0 + _GRAM_BLOCKS]) @ ends.T
        diag = diag.reshape(p, length, p, length)
        s = np.empty((p, length, p, length))
        s[:, 0, :, :] = first
        s[:, :, :, 0] = first.transpose(1, 2, 0)
        for i in range(1, length):
            s[:, i, :, 1:] = s[:, i - 1, :, :-1] + diag[:, i - 1, :, :-1]
        return s.reshape(p * length, p * length)

    def output(self, row: np.ndarray) -> np.ndarray:
        """y(n) = row^T X(n) for one bank row of length P*L."""
        return _mimo_fir(row.reshape(1, self.x.shape[0], self.filter_length), self.x)[0]


def refine_bank(
    bank: DemixFilterBank, sphered: np.ndarray
) -> tuple[DemixFilterBank, RefinementTrace]:
    """Refine the most nonstationary row of a causal bank on the sphered
    (P, N) signal; contrasts equal to 9 decimals go to the lowest index.

    The source's variance is taken as constant over blocks of the bank's
    filter length (the frame hop of the frequency-domain stage), at least
    MIN_BLOCK samples. Unless the refined row is accepted (never for a
    single channel), the bank itself is returned.
    """
    sphered = np.asarray(sphered, dtype=np.float64)
    p, length = bank.n_channels, bank.filter_length
    if sphered.shape[0] != p:
        raise ParameterError(f"bank has {p} channels, signal has {sphered.shape[0]}")
    block = max(length, MIN_BLOCK)
    rows = bank.coeffs.reshape(p, p * length).copy()
    stats = LaggedStatistics(sphered, length, block)
    initial = [_block_powers(stats.output(row), block) for row in rows]
    before = tuple(_contrast(power) for power in initial)
    q = int(np.argmin(np.round(before, 9)))
    cov = stats.covariance()
    target = np.zeros(p * length)
    target[q * length] = 1.0
    goal = cov @ target
    row, power = rows[q], initial[q]
    steps = 0
    # a single channel has nothing to separate
    for _ in range(REFINEMENT_STEPS if p > 1 else 0):
        power = np.maximum(power, _POWER_FLOOR * max(float(power.mean()), np.finfo(float).tiny))
        resid = row - target
        resid_power = float(resid @ cov @ resid)
        try:
            row = np.linalg.solve(cov + stats.covariance(resid_power / power), goal)
        except np.linalg.LinAlgError:
            break
        power = _block_powers(stats.output(row), block)
        steps += 1
    done = steps == REFINEMENT_STEPS and np.all(np.isfinite(row))
    accepted = bool(done and _contrast_drop_z(initial[q], power) > _MIN_DROP_Z)
    if accepted:
        rows[q] = row
        bank = DemixFilterBank(rows.reshape(p, p, length))
    return bank, RefinementTrace(q, accepted, steps, before, _contrast(power) if accepted else before[q])
