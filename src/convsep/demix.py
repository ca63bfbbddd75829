"""Time-domain application of the learned MIMO FIR system and the
sphering + separation pipeline built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .iva import ConvergenceTrace, IvaConfig, run_iva
from .refine import RefinementTrace, refine_bank
from .signal import TimeSeries, highpass_dc_removal
from .spectral import DemixFilterBank, _is_power_of_two, center, stft
from .sphering import (
    SpheringTransform,
    apply_sphering,
    compute_sphering,
    estimate_spatial_covariance,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "apply_mimo_fir",
    "demix_pipeline",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything demix_pipeline needs: the filter length, preprocessing,
    and the separation settings.

    The framing follows from filter_length L: 2L-point frames, zero-padded
    after their first L samples, one filter length apart. dc_cutoff_hz=None
    skips the highpass stage (the cutoff has no principled default here).
    """

    filter_length: int = 64
    dc_cutoff_hz: float | None = None
    sphering: bool = True
    iva: IvaConfig = field(default_factory=IvaConfig)

    def __post_init__(self):
        if not _is_power_of_two(self.filter_length):
            raise ParameterError(
                f"filter length must be a power of two, got {self.filter_length}"
            )
        if self.dc_cutoff_hz is not None and not 0 < self.dc_cutoff_hz < np.inf:
            raise ParameterError(
                f"dc_cutoff_hz must be finite and positive, got {self.dc_cutoff_hz}"
            )

    @property
    def n_bins(self) -> int:
        return 2 * self.filter_length


class PipelineResult(NamedTuple):
    """bank is the refined bank that produced separated; trace describes
    the frequency-domain stage that seeded it."""

    separated: TimeSeries
    bank: DemixFilterBank
    sphering: SpheringTransform
    trace: ConvergenceTrace
    refinement: RefinementTrace


def apply_mimo_fir(bank: DemixFilterBank, ts: TimeSeries) -> TimeSeries:
    """y_q(n) = sum_p sum_k w[q,p,k] x_p(n-k), zero initial state.

    Output length equals input length.
    """
    if bank.n_channels != ts.n_channels:
        raise ParameterError(
            f"bank has {bank.n_channels} channels, signal has {ts.n_channels}"
        )
    n = ts.n_samples
    out = np.zeros((bank.n_channels, n))
    for q in range(bank.n_channels):
        for p in range(ts.n_channels):
            out[q] += np.convolve(ts.data[p], bank.coeffs[q, p])[:n]
    return ts.with_data(out)


def demix_pipeline(ts: TimeSeries, cfg: PipelineConfig) -> PipelineResult:
    """DC removal, sphering, STFT + centering, frequency-domain separation,
    time-domain refinement of the causal bank (refine.refine_bank, with the
    source variances taken per filter-length block), then the refined FIR bank
    applied to the sphered time-domain signal."""
    prepared = ts
    if cfg.dc_cutoff_hz is not None:
        prepared = highpass_dc_removal(prepared, cfg.dc_cutoff_hz)
    if cfg.sphering:
        transform = compute_sphering(estimate_spatial_covariance(prepared))
    else:
        transform = SpheringTransform.identity(prepared.n_channels)
    sphered = apply_sphering(transform, prepared)

    frames = center(stft(sphered, cfg.n_bins, cfg.filter_length, "zeropad"))
    iva_bank, trace = run_iva(frames, cfg.iva)
    del frames
    bank, refinement = refine_bank(iva_bank, sphered.data)
    separated = apply_mimo_fir(bank, sphered)
    return PipelineResult(separated, bank, transform, trace, refinement)

