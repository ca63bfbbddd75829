"""Spatial prewhitening: eigendecomposition of the spatial correlation matrix.

The symmetric transform T = E D^{-1/2} E^T maps the sensors to unit,
uncorrelated power, which is what lets the separation stage survive the
ECG/EMG level imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .signal import TimeSeries, _frozen_array

__all__ = [
    "SpheringTransform",
    "estimate_spatial_covariance",
    "compute_sphering",
    "apply_sphering",
]

DEFAULT_EIGENVALUE_FLOOR = 1e-10


@dataclass(frozen=True)
class SpheringTransform:
    """Symmetric whitening matrix with the (floored) eigenvalues it came from."""

    matrix: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ParameterError(f"matrix must be square, got {mat.shape}")
        if eig.shape != (mat.shape[0],):
            raise ParameterError("one eigenvalue per channel required")
        # finite first: an infinity would make the symmetry test inf - inf
        mat = _frozen_array(mat, "sphering matrix")
        eig = _frozen_array(eig, "eigenvalues")
        scale = max(float(np.max(np.abs(mat))), 1.0)
        if float(np.max(np.abs(mat - mat.T))) > 1e-12 * scale:
            raise ParameterError("sphering matrix must be symmetric")
        if np.any(eig < 0):
            raise ParameterError("eigenvalues must be non-negative after flooring")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n_channels: int) -> "SpheringTransform":
        return cls(np.eye(n_channels), np.ones(n_channels))


def estimate_spatial_covariance(ts: TimeSeries) -> np.ndarray:
    """Instantaneous second-moment matrix (1/n) sum_n x(n) x(n)^T."""
    if ts.n_samples < ts.n_channels:
        raise ParameterError(
            f"{ts.n_samples} samples for {ts.n_channels} channels; need n >= P"
        )
    return ts.data @ ts.data.T / ts.n_samples


def compute_sphering(cov: np.ndarray) -> SpheringTransform:
    """Eigendecompose cov and build T = E D^{-1/2} E^T.

    Eigenvalues below DEFAULT_EIGENVALUE_FLOOR * max(D) are floored to that
    value, so zero and near-zero directions stay finite instead of exploding.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ParameterError(f"covariance must be square, got {cov.shape}")
    scale = max(float(np.max(np.abs(cov))), np.finfo(float).tiny)
    if float(np.max(np.abs(cov - cov.T))) > 1e-8 * scale:
        raise ParameterError("covariance is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (cov + cov.T))
    top = float(eigenvalues.max())
    if top <= 0:
        # zero (or negative-roundoff) covariance: fall back to the identity
        n = cov.shape[0]
        return SpheringTransform(np.eye(n), np.zeros(n))
    floored = np.maximum(eigenvalues, DEFAULT_EIGENVALUE_FLOOR * top)
    matrix = (eigenvectors * floored**-0.5) @ eigenvectors.T
    matrix = 0.5 * (matrix + matrix.T)
    return SpheringTransform(matrix, floored)


def apply_sphering(transform: SpheringTransform, ts: TimeSeries) -> TimeSeries:
    """Per-sample matrix multiply of the whitening transform."""
    if transform.n_channels != ts.n_channels:
        raise ParameterError(
            f"transform has {transform.n_channels} channels, signal has {ts.n_channels}"
        )
    return ts.with_data(transform.matrix @ ts.data)
