"""Convolutive blind source separation for respiratory surface EMG.

Frequency-domain independent vector analysis with spatial prewhitening,
a nonstationarity-weighted time-domain refinement of one row of the
causal FIR bank, a synthetic convolutive EMG/ECG mixture generator, and a
permutation-aligned SIR/SDR evaluation harness.
"""

from .demix import PipelineConfig, demix_pipeline
from .iva import IvaConfig
from .metrics import evaluate_separation
from .simulate import build_scenario, respiratory_scenario

__version__ = "0.1.0"
