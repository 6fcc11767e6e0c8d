"""Ridge-based IF estimation, error metrics, and the method comparison harness.

A ridge is the per-frame argmax of a time-frequency grid; comparing it
against a known IF trajectory with RMSE/NRMSE is how the estimators are
scored.  ``compare_methods`` runs the full experiment for a set of methods
and collects one result row per method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import InsufficientDataError, SampledSignal, WindowSpec
from .tfd import (
    WVD_METHODS,
    ResolutionReport,
    TFDGrid,
    next_pow2,
    psd_from_tfd,
    pwvd,
    resolution_report,
    spwvd,
    stft,
    wvd,
)

DEFAULT_METHODS = ("stft", "pct", "wvd", "spwvd")


@dataclass(frozen=True)
class IFTrajectory:
    """Per-time-instant frequency estimate with a validity mask.

    Invalid entries carry no information; their frequency values are
    ignored by every consumer.
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
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "valid", valid)

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
    mask = _joint_mask(actual, estimated)
    mean_actual = float(np.mean(actual.freqs_hz[mask]))
    if mean_actual <= 0.0:
        raise ValueError("mean actual IF must be positive for normalization")
    d = actual.freqs_hz[mask] - estimated.freqs_hz[mask]
    return float(np.sqrt(np.mean(d * d))) / mean_actual


def _band_indices(freqs_hz: np.ndarray, band_hz: Optional[tuple]) -> np.ndarray:
    if band_hz is None:
        return np.arange(freqs_hz.size)
    lo, hi = band_hz
    if lo > hi:
        raise ValueError(f"band low {lo} exceeds band high {hi}")
    idx = np.nonzero((freqs_hz >= lo) & (freqs_hz <= hi))[0]
    if idx.size == 0:
        raise ValueError(f"band {band_hz} contains no grid frequencies")
    return idx


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
    idx = _band_indices(g.freqs_hz, band_hz)
    vals = np.abs(g.values[:, idx]) if g.method in WVD_METHODS else g.values[:, idx]
    arg = np.argmax(vals, axis=1)
    peaks = vals[np.arange(vals.shape[0]), arg]
    global_peak = float(peaks.max(initial=0.0))
    if global_peak == 0.0:
        valid = np.zeros(g.n_times, dtype=bool)
    else:
        valid = peaks >= amp_threshold_frac * global_peak
    return IFTrajectory(g.times_s.copy(), g.freqs_hz[idx][arg], valid)


def dominant_frequency(g: TFDGrid, band_hz: Optional[tuple] = None) -> float:
    """Frequency of the global maximum of the grid's PSD within the band.

    An all-zero grid has no dominant frequency and raises
    InsufficientDataError.
    """
    p = psd_from_tfd(g)
    if p.all_zero:
        raise InsufficientDataError("grid is all zero; no dominant frequency")
    idx = _band_indices(p.freqs_hz, band_hz)
    return float(p.freqs_hz[idx][np.argmax(p.power[idx])])


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
        out: dict = {"method": self.method}
        for key in ("nrmse", "rmse_hz", "n_scored", "dominant_freq_hz", "converged", "error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.resolution is not None:
            out["resolution"] = {
                "temporal_resolution_ms": self.resolution.temporal_resolution_ms,
                "spectral_resolution_hz": self.resolution.spectral_resolution_hz,
                "nyquist_hz": self.resolution.nyquist_hz,
                "folding_hz": self.resolution.folding_hz,
            }
        return out


@dataclass
class ComparisonReport:
    signal_id: str
    results: list

    def to_dict(self) -> dict:
        return {
            "signal_id": self.signal_id,
            "results": [r.to_dict() for r in self.results],
        }

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
    times the signal length, which keeps the WVD-family frequency spacing
    near 0.1 Hz for one-second records at 320 Hz.

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
    return (
        rmse(actual, ridge),
        nrmse(actual, ridge),
        int((actual.valid & ridge.valid).sum()),
    )


def compare_methods(
    x: SampledSignal,
    truth: Optional[Sequence[IFTrajectory]] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    config: Optional[CompareConfig] = None,
    signal_id: str = "signal",
) -> ComparisonReport:
    """Run each requested transform, extract its ridge, and score it.

    Per-method failures are captured in the result row rather than aborting
    the remaining methods.
    """
    if len(methods) == 0:
        raise ValueError("at least one method must be requested")
    cfg = config if config is not None else CompareConfig()
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
        grid = run_transform(x, method, cfg)
        if method == "pct":
            result.converged = grid.meta.get("converged")
        result.resolution = resolution_report(grid)
        result.dominant_freq_hz = dominant_frequency(grid, cfg.band_hz)
        ridge = extract_ridge(grid, cfg.band_hz, cfg.amp_threshold_frac)
        result.ridge = ridge
        if truth is not None:
            result.rmse_hz, result.nrmse, result.n_scored = _score(
                ridge, truth, cfg.score_component
            )
    except ValueError as exc:
        # bad data or parameters (InsufficientDataError and LinAlgError
        # included); any other exception is a bug and propagates
        result.error = str(exc)
    return result


def _wvd_fft(x: SampledSignal, cfg: CompareConfig) -> int:
    return cfg.wvd_fft if cfg.wvd_fft is not None else next_pow2(4 * len(x))


def _pct(x: SampledSignal, cfg: CompareConfig) -> TFDGrid:
    pct_cfg = cfg.pct if cfg.pct is not None else PCTConfig(
        ridge_band_hz=cfg.band_hz, amp_threshold_frac=cfg.amp_threshold_frac
    )
    return pct_auto(x, pct_cfg)


# method name -> grid builder.  Builders look the transforms up as module
# globals when called, so a wrapped or patched transform is the one that runs.
METHODS = {
    "stft": lambda x, cfg: stft(x, cfg.stft_window, cfg.stft_hop, cfg.stft_fft),
    "wvd": lambda x, cfg: wvd(x, _wvd_fft(x, cfg)),
    "pwvd": lambda x, cfg: pwvd(x, cfg.spwvd_freq_window, _wvd_fft(x, cfg)),
    "spwvd": lambda x, cfg: spwvd(
        x, cfg.spwvd_time_window, cfg.spwvd_freq_window, _wvd_fft(x, cfg)
    ),
    "pct": _pct,
}


def run_transform(x: SampledSignal, method: str, cfg: CompareConfig) -> TFDGrid:
    """Build the grid for one named method from a CompareConfig."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method](x, cfg)


# pct imports extract_ridge from this module, so it is imported last
from .pct import PCTConfig, pct_auto  # noqa: E402
