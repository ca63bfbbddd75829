"""Convolutive blind source separation for respiratory surface EMG.

Frequency-domain independent vector analysis with spatial prewhitening,
a nonstationarity-weighted time-domain refinement of the causal FIR bank,
a synthetic convolutive EMG/ECG mixture generator, and a
permutation-aligned SIR/SDR evaluation harness.
"""

from .demix import PipelineConfig, PipelineResult, apply_mimo_fir, demix_pipeline
from .errors import (
    ConvsepError,
    DataError,
    FormatError,
    NumericalDivergenceError,
    ParameterError,
    SingularFilterError,
    UndefinedSirError,
)
from .iva import (
    ConvergenceTrace,
    IterationState,
    IvaConfig,
    broadband_norms,
    forward_pass,
    minimum_distortion,
    run_iva,
    score,
    update_step,
)
from .metrics import (
    SeparationReport,
    compare_instantaneous,
    evaluate_separation,
    input_sir,
    moving_rms,
    physical_path_length,
    project_images,
    sdr,
    sir,
)
from .refine import LaggedStatistics, RefinementTrace, block_contrast, refine_bank
from .signal import SignalMetadata, TimeSeries, highpass_dc_removal, read_raw, write_raw
from .simulate import (
    MixingSystem,
    SimScenario,
    Simulation,
    SourceSet,
    build_scenario,
    cyclic_envelope,
    delayed_pair_scenario,
    diagonal_scenario,
    generate_ecg_interferer,
    generate_impulse_train,
    instantaneous_pair_scenario,
    mix,
    muap_kernel_components,
    respiratory_scenario,
    stream_rng,
)
from .spectral import (
    DemixFilterBank,
    FrequencyFilterBank,
    SpectralFrames,
    center,
    filters_to_freq,
    filters_to_time,
    load_filter_bank,
    save_filter_bank,
    stft,
)
from .sphering import (
    SpheringTransform,
    apply_sphering,
    compute_sphering,
    estimate_spatial_covariance,
)

__version__ = "0.1.0"
