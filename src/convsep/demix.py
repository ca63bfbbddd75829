"""Time-domain application of the learned MIMO FIR system and the
sphering + separation pipeline built on top of it.

apply_mimo_fir runs the causal bank as block-Toeplitz matrix products
(spectral._mimo_fir, shared with the refinement): a few BLAS products per
call instead of one convolution per (output, input) pair, exact for an
identity bank and for pure delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParameterError
from .iva import ConvergenceTrace, IvaConfig, run_iva
from .refine import RefinementTrace, refine_bank
from .signal import SignalMetadata, TimeSeries, _integer, _real, highpass_dc_removal
from .spectral import DemixFilterBank, _is_power_of_two, _mimo_fir, center, stft
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

    The framing follows from filter_length L, an integer power of two:
    2L-point frames, zero-padded after their first L samples, one filter
    length apart. dc_cutoff_hz is a finite positive real number, or None,
    which skips the highpass stage (the cutoff has no principled default
    here).
    """

    filter_length: int = 64
    dc_cutoff_hz: float | None = None
    sphering: bool = True
    iva: IvaConfig = field(default_factory=IvaConfig)

    def __post_init__(self):
        _integer(self.filter_length, "filter length")
        if not _is_power_of_two(self.filter_length):
            raise ParameterError(f"filter length must be a power of two, got {self.filter_length}")
        if self.dc_cutoff_hz is not None:
            _real(self.dc_cutoff_hz, "dc_cutoff_hz")
            if self.dc_cutoff_hz <= 0:
                raise ParameterError(f"dc_cutoff_hz must be positive, got {self.dc_cutoff_hz}")

    @property
    def n_bins(self) -> int:
        return 2 * self.filter_length


class PipelineResult(NamedTuple):
    """bank is the bank that produced separated: the frequency-domain
    stage's, which trace describes, with at most its most nonstationary row
    refined, which refinement describes."""

    separated: TimeSeries
    bank: DemixFilterBank
    sphering: SpheringTransform
    trace: ConvergenceTrace
    refinement: RefinementTrace


def apply_mimo_fir(bank: DemixFilterBank, ts: TimeSeries) -> TimeSeries:
    """y_q(n) = sum_p sum_k w[q,p,k] x_p(n-k), zero initial state.

    Output length equals input length; the outputs are labelled out1..outQ.
    """
    if bank.n_channels != ts.n_channels:
        raise ParameterError(
            f"bank has {bank.n_channels} channels, signal has {ts.n_channels}"
        )
    labels = tuple(f"out{q + 1}" for q in range(bank.n_channels))
    return TimeSeries(_mimo_fir(bank.coeffs, ts.data), SignalMetadata(ts.meta.sample_interval_s, labels))


def demix_pipeline(ts: TimeSeries, cfg: PipelineConfig) -> PipelineResult:
    """DC removal, sphering, STFT + centering, frequency-domain separation,
    time-domain refinement of the causal bank's most nonstationary row
    (refine.refine_bank, with the source variance taken per filter-length
    block), then the FIR bank applied to the sphered time-domain signal."""
    prepared = ts
    if cfg.dc_cutoff_hz is not None:
        prepared = highpass_dc_removal(prepared, cfg.dc_cutoff_hz)
    if cfg.sphering:
        transform = compute_sphering(estimate_spatial_covariance(prepared))
    else:
        transform = SpheringTransform.identity(prepared.n_channels)
    sphered = apply_sphering(transform, prepared)
    del prepared  # a highpassed copy is not read again; free it before the frames

    frames = center(stft(sphered, cfg.n_bins, cfg.filter_length, "zeropad"))
    iva_bank, trace = run_iva(frames, cfg.iva)
    del frames
    bank, refinement = refine_bank(iva_bank, sphered.data)
    separated = apply_mimo_fir(bank, sphered)
    return PipelineResult(separated, bank, transform, trace, refinement)

