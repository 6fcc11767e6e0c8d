"""Ridge-based IF estimation, error metrics, and the method comparison harness.

A ridge is the per-frame argmax of a time-frequency grid; comparing it
against a known IF trajectory with RMSE/NRMSE is how the estimators are
scored.  ``compare_methods`` runs the full experiment for a set of methods
and collects one result row per method.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import InsufficientDataError, SampledSignal, WindowSpec, _read_only
from .tfd import (
    ResolutionReport,
    TFDGrid,
    _band_magnitudes,
    _BandScan,
    _short_time,
    _wvd_family,
    next_pow2,
    resolution_report,
)
from .tfd import stft, wvd  # noqa: F401  the benchmark's tracer looks them up here

DEFAULT_METHODS = ("stft", "pct", "wvd", "spwvd")


@dataclass(frozen=True)
class IFTrajectory:
    """Per-time-instant frequency estimate with a validity mask.

    Invalid entries carry no information; their frequency values are
    ignored by every consumer.  The arrays are stored read-only.
    """

    times_s: np.ndarray
    freqs_hz: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times_s, dtype=np.float64)
        freqs = np.asarray(self.freqs_hz, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if not (times.size == freqs.size == valid.size):
            raise ValueError("times_s, freqs_hz and valid must have equal length")
        if times.size == 0:
            raise ValueError("trajectory must not be empty")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times_s must be strictly increasing")
        masked = freqs[valid]
        if masked.size and (not np.all(np.isfinite(masked)) or np.any(masked < 0)):
            raise ValueError("valid frequencies must be finite and non-negative")
        object.__setattr__(self, "times_s", _read_only(times))
        object.__setattr__(self, "freqs_hz", _read_only(freqs))
        object.__setattr__(self, "valid", _read_only(valid))

    def __len__(self) -> int:
        return self.times_s.size

    def resample(self, times_s: np.ndarray) -> "IFTrajectory":
        """Nearest-neighbor lookup onto a new time grid (no interpolation;
        the validity mask travels with its sample)."""
        new_times = np.asarray(times_s, dtype=np.float64)
        if self.times_s.size == 1:
            idx = np.zeros(new_times.size, dtype=int)
        else:
            right = np.clip(np.searchsorted(self.times_s, new_times), 1, len(self) - 1)
            left = right - 1
            pick_left = (new_times - self.times_s[left]) <= (self.times_s[right] - new_times)
            idx = np.where(pick_left, left, right)
        return IFTrajectory(new_times, self.freqs_hz[idx], self.valid[idx])


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


def extract_ridge(
    g: TFDGrid,
    band_hz: Optional[tuple] = None,
    amp_threshold_frac: float = 0.0,
) -> IFTrajectory:
    """Argmax frequency per frame, restricted to ``band_hz``.

    WVD-family grids are searched by absolute value so negative lobes
    compete on magnitude.  Frames whose in-band maximum falls below
    ``amp_threshold_frac`` of the global in-band maximum are masked
    invalid; an all-zero grid yields an all-invalid trajectory.
    """
    if not 0.0 <= amp_threshold_frac < 1.0:
        raise ValueError("amp_threshold_frac must lie in [0, 1)")
    return _ridge(_band_magnitudes(g, band_hz), amp_threshold_frac)


def dominant_frequency(g: TFDGrid, band_hz: Optional[tuple] = None) -> float:
    """Frequency of the maximum of the grid's PSD within the band.

    The PSD is the time mean of the band's columns as ``_band_magnitudes``
    reads them (WVD-family grids by absolute value, as in ``psd_from_tfd``);
    only its argmax matters, so it is not normalized.  A band that is all
    zero has no dominant frequency and raises InsufficientDataError.
    """
    return _dominant(_band_magnitudes(g, band_hz))


def _ridge(scan: _BandScan, amp_threshold_frac: float) -> IFTrajectory:
    """``extract_ridge`` from a band scan."""
    global_peak = float(scan.peak.max(initial=0.0))
    if global_peak == 0.0:
        valid = np.zeros(scan.peak.size, dtype=bool)
    else:
        valid = scan.peak >= amp_threshold_frac * global_peak
    return IFTrajectory(scan.times_s.copy(), scan.freqs_hz[scan.argmax], valid)


def _dominant(scan: _BandScan) -> float:
    """``dominant_frequency`` from a band scan."""
    power = scan.col_sum / scan.times_s.size
    if not power.any():
        raise InsufficientDataError("grid is all zero in the band; no dominant frequency")
    return float(scan.freqs_hz[np.argmax(power)])


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
    pct: Optional[object] = None
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
        if not 0 <= score_component < len(truth):
            raise ValueError(f"score_component {score_component} out of range")
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
    the remaining methods; a bad ``amp_threshold_frac`` or a method named
    twice raises before any runs.
    """
    if len(methods) == 0:
        raise ValueError("at least one method must be requested")
    duplicates = sorted({m for m in methods if list(methods).count(m) > 1})
    if duplicates:
        raise ValueError(f"duplicate methods {duplicates}")
    if truth is not None and len(truth) == 0:
        raise ValueError("truth must hold at least one trajectory")
    cfg = config if config is not None else CompareConfig()
    if not 0.0 <= cfg.amp_threshold_frac < 1.0:
        raise ValueError(f"amp_threshold_frac must lie in [0, 1), got {cfg.amp_threshold_frac!r}")
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
    return _producer(method)(x, cfg, cfg.band_hz, True)


def run_transform(x: SampledSignal, method: str, cfg: CompareConfig) -> TFDGrid:
    """Build the full grid of one named method from a CompareConfig."""
    return _producer(method)(x, cfg, None, False)


def _wvd_fft(x: SampledSignal, cfg: CompareConfig) -> int:
    return cfg.wvd_fft if cfg.wvd_fft is not None else next_pow2(4 * len(x))


def _pct_config(cfg: CompareConfig) -> PCTConfig:
    return cfg.pct if cfg.pct is not None else PCTConfig(
        ridge_band_hz=cfg.band_hz, amp_threshold_frac=cfg.amp_threshold_frac
    )


# method name -> producer (x, cfg, band_hz, scan): the method's grid of the
# bins inside band_hz (None: the whole axis), or with scan that grid's band
# scan.  Producers look the transforms up as module globals when called, so
# a wrapped or patched transform is the one that runs.
METHODS = {
    "stft": lambda x, cfg, band, scan: _short_time(
        "stft", x, cfg.stft_window, cfg.stft_hop, cfg.stft_fft, band_hz=band, scan=scan
    ),
    "wvd": lambda x, cfg, band, scan: _wvd_family(
        "wvd", x, _wvd_fft(x, cfg), True, None, None, band, scan
    ),
    "pwvd": lambda x, cfg, band, scan: _wvd_family(
        "pwvd", x, _wvd_fft(x, cfg), True, None, cfg.spwvd_freq_window, band, scan
    ),
    "spwvd": lambda x, cfg, band, scan: _wvd_family(
        "spwvd", x, _wvd_fft(x, cfg), True, cfg.spwvd_time_window, cfg.spwvd_freq_window, band,
        scan,
    ),
    "pct": lambda x, cfg, band, scan: _pct(x, _pct_config(cfg), band, scan),
}


def _producer(method: str):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]


# pct imports extract_ridge from this module, so it is imported last
from .pct import PCTConfig, _pct  # noqa: E402
