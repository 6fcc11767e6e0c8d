"""Error metrics and the method comparison harness.

A method is scored by its ridge, the per-frame argmax of its grid's band
(``tfd._ridge`` of the method's band scan), against a known IF trajectory
with RMSE/NRMSE.  ``compare_methods`` runs the full experiment for a set of
methods and collects one result row per method.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import IFTrajectory, InsufficientDataError, SampledSignal, WindowSpec, _fraction
from .core import _integer
from .pct import PCTConfig, _pct
from .tfd import ResolutionReport, TFDGrid, _BandScan, _dominant, _ridge, _short_time
from .tfd import _wvd_family, next_pow2, resolution_report
from .tfd import stft, wvd  # noqa: F401  the benchmark's tracer looks them up here

DEFAULT_METHODS = ("stft", "pct", "wvd", "spwvd")


def _joint_mask(actual: IFTrajectory, estimated: IFTrajectory) -> np.ndarray:
    if len(actual) != len(estimated) or not np.allclose(
        actual.times_s, estimated.times_s, rtol=0.0, atol=1e-9
    ):
        raise ValueError("trajectories must share an identical time grid")
    mask = actual.valid & estimated.valid
    if not mask.any():
        raise InsufficientDataError("no jointly valid samples to score")
    return mask


def rmse(actual: IFTrajectory, estimated: IFTrajectory) -> float:
    """Root-mean-square error over the jointly valid samples."""
    mask = _joint_mask(actual, estimated)
    d = actual.freqs_hz[mask] - estimated.freqs_hz[mask]
    return float(np.sqrt(np.mean(d * d)))


def nrmse(actual: IFTrajectory, estimated: IFTrajectory) -> float:
    """RMSE divided by the mean of the actual IF over the scored samples."""
    mean_actual = float(np.mean(actual.freqs_hz[_joint_mask(actual, estimated)]))
    if mean_actual <= 0.0:
        raise ValueError("mean actual IF must be positive for normalization")
    return rmse(actual, estimated) / mean_actual


@dataclass
class MethodResult:
    method: str
    nrmse: Optional[float] = None
    rmse_hz: Optional[float] = None
    n_scored: Optional[int] = None
    dominant_freq_hz: Optional[float] = None
    resolution: Optional[ResolutionReport] = None
    converged: Optional[bool] = None
    error: Optional[str] = None
    ridge: Optional[IFTrajectory] = None

    def to_dict(self) -> dict:
        """The report row: every field that is set, except the ridge."""
        return {k: v for k, v in asdict(replace(self, ridge=None)).items() if v is not None}


@dataclass
class ComparisonReport:
    signal_id: str
    results: list

    def to_dict(self) -> dict:
        return {"signal_id": self.signal_id, "results": [r.to_dict() for r in self.results]}

    def format_table(self) -> str:
        header = f"signal: {self.signal_id}"
        cols = f"{'method':<8}{'nrmse':>10}{'dominant_hz':>13}{'dt_ms':>9}{'df_hz':>9}  note"
        lines = [header, cols, "-" * len(cols)]
        for r in self.results:
            nr = f"{r.nrmse:.4f}" if r.nrmse is not None else "-"
            dom = f"{r.dominant_freq_hz:.3f}" if r.dominant_freq_hz is not None else "-"
            if r.resolution is not None:
                dt = f"{r.resolution.temporal_resolution_ms:.4f}"
                df = f"{r.resolution.spectral_resolution_hz:.4f}"
            else:
                dt = df = "-"
            note = ""
            if r.error is not None:
                note = f"error: {r.error}"
            elif r.converged is False:
                note = "not converged"
            lines.append(f"{r.method:<8}{nr:>10}{dom:>13}{dt:>9}{df:>9}  {note}".rstrip())
        return "\n".join(lines) + "\n"


@dataclass
class CompareConfig:
    """Per-method parameters for ``compare_methods``.

    ``wvd_fft = None`` selects the smallest power of two at or above four
    times the signal length N, so the WVD-family frequency spacing is
    fs / (2 * next_pow2(4N)): 0.078 Hz for one-second records at 320 Hz
    (N = 320) and 0.0195 Hz at N = 1280.

    ``band_hz`` bounds both ridge extraction and scoring.  The 5 Hz floor
    keeps ridge picks off near-DC leakage; the 80 Hz ceiling is a quarter
    of the 320 Hz reference rate, i.e. the alias-free span of a WVD taken
    over a real-valued record, so spurious WVD content below that line
    still counts against it.
    """

    stft_window: WindowSpec = WindowSpec("hann", 128)
    stft_hop: int = 4
    stft_fft: int = 512
    wvd_fft: Optional[int] = None
    spwvd_time_window: WindowSpec = WindowSpec("hann", 31)
    spwvd_freq_window: WindowSpec = WindowSpec("hann", 63)
    pct: Optional[PCTConfig] = None
    band_hz: Optional[tuple] = (5.0, 80.0)
    amp_threshold_frac: float = 0.05
    score_component: Optional[int] = None


def default_config(signal_id: str = "x1") -> CompareConfig:
    """Defaults tuned per benchmark signal: the two-tone signal keeps the
    fine 512-point STFT grid, the chirp signal the coarse 128-point one."""
    cfg = CompareConfig()
    if signal_id == "x2":
        cfg.stft_fft = 128
    return cfg


def _score(
    ridge: IFTrajectory,
    truth: Sequence[IFTrajectory],
    score_component: Optional[int],
) -> tuple[float, float, int]:
    """Match each ridge frame to the nearest valid truth component (or to a
    fixed component index) and return (rmse, nrmse, frames scored)."""
    if score_component is not None:
        truth = [truth[score_component]]
    res = [t.resample(ridge.times_s) for t in truth]
    freqs = np.stack([r.freqs_hz for r in res])
    valid = np.stack([r.valid for r in res])
    dist = np.abs(freqs - ridge.freqs_hz[None, :])
    dist[~valid] = np.inf
    nearest = np.argmin(dist, axis=0)
    cols = np.arange(len(ridge))
    matched = np.where(valid.any(axis=0), freqs[nearest, cols], 0.0)
    actual = IFTrajectory(ridge.times_s, matched, valid.any(axis=0))
    return rmse(actual, ridge), nrmse(actual, ridge), int((actual.valid & ridge.valid).sum())


def compare_methods(
    x: SampledSignal,
    truth: Optional[Sequence[IFTrajectory]] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    config: Optional[CompareConfig] = None,
    signal_id: str = "signal",
) -> ComparisonReport:
    """Run each requested transform, extract its ridge, and score it.

    Per-method failures are captured in the result row rather than aborting
    the remaining methods; a bad ``amp_threshold_frac``, a ``score_component``
    that names no truth trajectory (a negative one names none, with or
    without truth) or a method named twice raises before any runs.
    """
    if len(methods) == 0:
        raise ValueError("at least one method must be requested")
    duplicates = sorted({m for m in methods if list(methods).count(m) > 1})
    if duplicates:
        raise ValueError(f"duplicate methods {duplicates}")
    if truth is not None and len(truth) == 0:
        raise ValueError("truth must hold at least one trajectory")
    cfg = config if config is not None else CompareConfig()
    _fraction(cfg.amp_threshold_frac, "amp_threshold_frac")
    component = cfg.score_component
    if component is not None and (_integer(component, "score_component") < 0
                                  or truth is not None and component >= len(truth)):
        raise ValueError(f"score_component {component} out of range")
    results = [_run_method(x, truth, method, cfg) for method in methods]
    return ComparisonReport(signal_id=signal_id, results=results)


def _run_method(
    x: SampledSignal,
    truth: Optional[Sequence[IFTrajectory]],
    method: str,
    cfg: CompareConfig,
) -> MethodResult:
    result = MethodResult(method=method)
    try:
        scan = _scan_method(x, method, cfg)
        result.converged = scan.meta.get("converged")
        result.resolution = resolution_report(scan)
        result.dominant_freq_hz = _dominant(scan)
        result.ridge = ridge = _ridge(scan, cfg.amp_threshold_frac)
        if truth is not None:
            result.rmse_hz, result.nrmse, result.n_scored = _score(
                ridge, truth, cfg.score_component
            )
    except ValueError as exc:
        # bad data or parameters (InsufficientDataError and LinAlgError
        # included); any other exception is a bug and propagates
        result.error = str(exc)
    return result


def _scan_method(x: SampledSignal, method: str, cfg: CompareConfig) -> _BandScan:
    """The band scan of ``cfg.band_hz`` of one method: all that compare
    reads of it.  Every method's row blocks go straight into the scan (PCT's
    kernel iterations too), so no grid is built; the scan is the one
    ``_band_magnitudes`` takes of ``run_transform``'s grid."""
    return _producer(method)(x, cfg).scan(cfg.band_hz)


def run_transform(x: SampledSignal, method: str, cfg: CompareConfig) -> TFDGrid:
    """Build the full grid of one named method from a CompareConfig."""
    return _producer(method)(x, cfg).grid()


def _wvd_fft(x: SampledSignal, cfg: CompareConfig) -> int:
    return cfg.wvd_fft if cfg.wvd_fft is not None else next_pow2(4 * len(x))


def _pct_config(cfg: CompareConfig) -> PCTConfig:
    return cfg.pct if cfg.pct is not None else PCTConfig(
        ridge_band_hz=cfg.band_hz, amp_threshold_frac=cfg.amp_threshold_frac
    )


# method name -> producer (x, cfg): the method's rows (``tfd._Rows``), which
# ``run_transform`` makes into a grid and ``compare`` into a band scan.
# Producers look the transforms up as module globals when called, so a
# wrapped or patched transform is the one that runs.
METHODS = {
    "stft": lambda x, cfg: _short_time("stft", x, cfg.stft_window, cfg.stft_hop, cfg.stft_fft),
    "wvd": lambda x, cfg: _wvd_family("wvd", x, _wvd_fft(x, cfg), True),
    "pwvd": lambda x, cfg: _wvd_family(
        "pwvd", x, _wvd_fft(x, cfg), True, None, cfg.spwvd_freq_window
    ),
    "spwvd": lambda x, cfg: _wvd_family(
        "spwvd", x, _wvd_fft(x, cfg), True, cfg.spwvd_time_window, cfg.spwvd_freq_window
    ),
    "pct": lambda x, cfg: _pct(x, _pct_config(cfg)),
}


def _producer(method: str):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]
