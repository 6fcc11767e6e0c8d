"""Time-frequency distribution estimators with synthetic IF benchmarks.

Estimators: short-time Fourier transform, Wigner-Ville distribution and its
pseudo/smoothed-pseudo variants, and the polynomial chirplet transform.
Synthetic burst signals with exact IF ground truth let the estimators be
scored by ridge RMSE/NRMSE; the ``tfbench`` CLI batches the whole pipeline.
"""

from .core import (
    IFTrajectory,
    InsufficientDataError,
    SampledSignal,
    WindowSpec,
    add_white_noise,
    analytic_signal,
    decimate,
    make_window,
)
from .evaluate import (
    CompareConfig,
    ComparisonReport,
    MethodResult,
    compare_methods,
    default_config,
    nrmse,
    rmse,
    run_transform,
)
from .pct import KernelFit, PCTConfig, PolynomialKernel, estimate_kernel, pct_auto, pct_transform
from .synth import SyntheticSignal, chirp_if_hz, gen_x1, gen_x2, true_if
from .tfd import (
    PSD,
    ResolutionReport,
    TFDGrid,
    dominant_frequency,
    extract_ridge,
    next_pow2,
    psd_from_tfd,
    pwvd,
    resolution_report,
    spwvd,
    stft,
    wvd,
)

__version__ = "0.1.0"

__all__ = [
    "InsufficientDataError",
    "SampledSignal",
    "WindowSpec",
    "add_white_noise",
    "analytic_signal",
    "decimate",
    "make_window",
    "CompareConfig",
    "ComparisonReport",
    "IFTrajectory",
    "MethodResult",
    "compare_methods",
    "default_config",
    "dominant_frequency",
    "extract_ridge",
    "nrmse",
    "rmse",
    "run_transform",
    "KernelFit",
    "PCTConfig",
    "PolynomialKernel",
    "estimate_kernel",
    "pct_auto",
    "pct_transform",
    "SyntheticSignal",
    "chirp_if_hz",
    "gen_x1",
    "gen_x2",
    "true_if",
    "PSD",
    "ResolutionReport",
    "TFDGrid",
    "next_pow2",
    "psd_from_tfd",
    "pwvd",
    "resolution_report",
    "spwvd",
    "stft",
    "wvd",
]
