"""Fourier-family time-frequency distributions.

Implements the short-time Fourier transform and the Wigner-Ville family
(raw, pseudo, smoothed-pseudo) on a common grid container, plus frequency
marginals (PSD) and grid-resolution reporting.

Conventions
-----------
* Grid values are indexed ``[time][frequency]``.
* STFT values are squared magnitudes and therefore non-negative; WVD-family
  values are real but may be negative.
* The WVD frequency axis has spacing ``fs / (2 * fft_length)`` because the
  bilinear kernel oscillates at twice the signal frequency in lag.  Real
  (non-analytic) inputs consequently fold above a quarter of the sample
  rate; analytic inputs are clean up to half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve

from .core import SampledSignal, WindowSpec, analytic_signal, make_window

WVD_METHODS = ("wvd", "pwvd", "spwvd")

@dataclass(frozen=True)
class TFDGrid:
    """Time x frequency matrix of distribution values with explicit axes."""

    times_s: np.ndarray
    freqs_hz: np.ndarray
    values: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times_s, dtype=np.float64)
        freqs = np.asarray(self.freqs_hz, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (times.size, freqs.size):
            raise ValueError(
                f"values shape {values.shape} does not match axes "
                f"({times.size} times, {freqs.size} freqs)"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times_s must be strictly increasing")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs_hz must be strictly increasing")
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "values", values)

    @property
    def n_times(self) -> int:
        return self.times_s.size

    @property
    def n_freqs(self) -> int:
        return self.freqs_hz.size


@dataclass(frozen=True)
class ResolutionReport:
    temporal_resolution_ms: float
    spectral_resolution_hz: float
    nyquist_hz: float
    folding_hz: float


@dataclass(frozen=True)
class PSD:
    """Frequency marginal of a grid, normalized to unit total power."""

    freqs_hz: np.ndarray
    power: np.ndarray
    all_zero: bool = False


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def _frame_starts(n_samples: int, window_length: int, hop: int) -> np.ndarray:
    return np.arange(0, n_samples - window_length + 1, hop)


def _short_time_power(
    samples: np.ndarray,
    window: np.ndarray,
    hop: int,
    nfft: int,
    frame_multiplier: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared-magnitude short-time spectra, frames along axis 0.

    ``frame_multiplier`` (same shape as the frame matrix) is applied before
    windowing; the polynomial chirplet transform uses it for its rotation and
    shift operators.
    """
    wlen = window.size
    starts = _frame_starts(samples.size, wlen, hop)
    frames = samples[starts[:, None] + np.arange(wlen)[None, :]]
    if frame_multiplier is not None:
        frames = frames * frame_multiplier
    spectra = np.fft.fft(frames * window[None, :], n=nfft, axis=1)[:, : nfft // 2 + 1]
    return np.abs(spectra) ** 2


def stft(x: SampledSignal, window: WindowSpec, hop_samples: int, fft_length: int) -> TFDGrid:
    """Short-time Fourier transform, squared magnitudes.

    Frame k covers samples ``[k*hop, k*hop + window length)``; each frame is
    windowed, zero-padded to ``fft_length`` and transformed.  The time stamp
    of a frame is the center of its window.
    """
    if hop_samples < 1:
        raise ValueError("hop_samples must be >= 1")
    if window.length_samples > fft_length:
        raise ValueError("window must not be longer than fft_length")
    if window.length_samples > len(x):
        raise ValueError(
            f"window ({window.length_samples}) longer than signal ({len(x)})"
        )
    win = make_window(window)
    values = _short_time_power(x.samples, win, hop_samples, fft_length)
    fs = x.sample_rate_hz
    starts = _frame_starts(len(x), window.length_samples, hop_samples)
    times = x.start_time_s + (starts + (window.length_samples - 1) / 2.0) / fs
    freqs = np.arange(fft_length // 2 + 1) * fs / fft_length
    meta = {
        "sample_rate_hz": fs,
        "window": _window_meta(window),
        "hop_samples": int(hop_samples),
        "fft_length": int(fft_length),
        "analytic_input": bool(np.iscomplexobj(x.samples)),
    }
    return TFDGrid(times, freqs, values, "stft", meta)


def _window_meta(spec: WindowSpec) -> dict:
    meta = {"kind": spec.kind, "length_samples": spec.length_samples}
    if spec.kind == "gaussian":
        meta["alpha"] = spec.alpha
    if spec.periodic:
        meta["periodic"] = True
    return meta


def _wvd_family(
    method: str,
    x: SampledSignal,
    fft_length: int,
    use_analytic: bool,
    time_window: Optional[WindowSpec] = None,
    freq_window: Optional[WindowSpec] = None,
) -> TFDGrid:
    """Separable-kernel WVD: time smoothing ``time_window``, lag taper
    ``freq_window``; either may be absent.

    The lag product q[n, m] = z[n+m] conj(z[n-m]) is Hermitian in m, and the
    kernel is real and even in m, so only lags m = 0..L are built and the
    distribution is 2 Re DFT(q) with lag 0 halved.  L = (N-1)//2, cut to the
    lag window's half-span; products that index outside the signal are zero.
    When L+1 exceeds ``fft_length`` the lags alias modulo it.
    """
    if len(x) < 4:
        raise ValueError(f"{method} needs at least 4 samples")
    if fft_length < 1:
        raise ValueError("fft_length must be >= 1")
    windows = {"time_window": time_window, "freq_window": freq_window}
    for name, spec in windows.items():
        if spec is not None and spec.length_samples % 2 == 0:
            raise ValueError(f"{name} length must be odd")
    if freq_window is not None and freq_window.periodic:
        raise ValueError("freq_window must be symmetric: a periodic lag window is not even "
                         "and would make the distribution complex")
    if np.iscomplexobj(x.samples):
        z, analytic = x.samples, True
    elif use_analytic:
        z, analytic = analytic_signal(x).samples, True
    else:
        z, analytic = x.samples.astype(np.complex128), False

    n = z.size
    max_lag = (n - 1) // 2
    if freq_window is not None:
        max_lag = min(max_lag, (freq_window.length_samples - 1) // 2)
    zp = np.concatenate([np.zeros(max_lag, z.dtype), z, np.zeros(max_lag, z.dtype)])
    at = np.arange(max_lag, max_lag + n)[:, None]
    lags = np.arange(max_lag + 1)[None, :]
    q = zp[at + lags] * np.conj(zp[at - lags])
    if time_window is not None:
        h = make_window(time_window)
        q = fftconvolve(q, (h / h.sum())[:, None], mode="same", axes=0)
    if freq_window is not None:
        g = make_window(freq_window)
        q *= g[(freq_window.length_samples - 1) // 2 :][: max_lag + 1]
    q[:, 0] *= 0.5
    if max_lag + 1 > fft_length:
        q = np.pad(q, ((0, 0), (0, -(max_lag + 1) % fft_length)))
        q = q.reshape(n, -1, fft_length).sum(axis=1)
    values = 2.0 * np.fft.fft(q, n=fft_length, axis=1).real

    fs = x.sample_rate_hz
    times = x.start_time_s + np.arange(n) / fs
    freqs = np.arange(fft_length) * fs / (2.0 * fft_length)
    meta = {
        "sample_rate_hz": fs,
        "hop_samples": 1,
        "fft_length": int(fft_length),
        "analytic_input": analytic,
        # real inputs fold at fs/4; the grid still spans [0, fs/2)
        "folding_hz": fs / 2.0 if analytic else fs / 4.0,
    }
    meta.update({name: _window_meta(spec) for name, spec in windows.items() if spec is not None})
    return TFDGrid(times, freqs, values, method, meta)


def wvd(x: SampledSignal, fft_length: int, use_analytic: bool = True) -> TFDGrid:
    """Wigner-Ville distribution at per-sample time resolution (hop 1).

    The input is replaced by its analytic associate unless ``use_analytic``
    is False; real inputs then fold above a quarter of the sample rate.
    """
    return _wvd_family("wvd", x, fft_length, use_analytic)


def pwvd(
    x: SampledSignal,
    freq_window: WindowSpec,
    fft_length: int,
    use_analytic: bool = True,
) -> TFDGrid:
    """Pseudo-WVD: the lag product is tapered by ``freq_window`` before the
    DFT, smoothing the distribution along frequency."""
    return _wvd_family("pwvd", x, fft_length, use_analytic, freq_window=freq_window)


def spwvd(
    x: SampledSignal,
    time_window: WindowSpec,
    freq_window: WindowSpec,
    fft_length: int,
    use_analytic: bool = True,
) -> TFDGrid:
    """Smoothed pseudo-WVD with a separable kernel.

    The lag product is averaged along time with ``time_window`` (normalized
    to unit sum) and tapered along lag with ``freq_window``.
    """
    return _wvd_family("spwvd", x, fft_length, use_analytic, time_window, freq_window)


def psd_from_tfd(g: TFDGrid) -> PSD:
    """Frequency marginal: mean over time per bin, normalized to unit sum.

    WVD-family grids contribute by absolute value so that oscillating
    cross-terms register as power instead of cancelling.
    """
    if g.values.size == 0:
        raise ValueError("empty grid")
    vals = np.abs(g.values) if g.method in WVD_METHODS else g.values
    p = vals.mean(axis=0)
    total = p.sum()
    if total == 0:
        return PSD(g.freqs_hz.copy(), p, all_zero=True)
    return PSD(g.freqs_hz.copy(), p / total, all_zero=False)


def resolution_report(g: TFDGrid) -> ResolutionReport:
    """Axis spacings plus Nyquist and folding frequency for a grid."""
    if g.n_times < 2 or g.n_freqs < 2:
        raise ValueError("resolution_report needs at least 2 points per axis")
    fs = g.meta.get("sample_rate_hz")
    if fs is None:
        raise ValueError("grid meta lacks sample_rate_hz")
    nyquist = fs / 2.0
    if g.method in WVD_METHODS:
        folding = nyquist if g.meta.get("analytic_input", True) else nyquist / 2.0
    else:
        folding = nyquist
    return ResolutionReport(
        temporal_resolution_ms=1000.0 * (g.times_s[1] - g.times_s[0]),
        spectral_resolution_hz=float(g.freqs_hz[1] - g.freqs_hz[0]),
        nyquist_hz=nyquist,
        folding_hz=folding,
    )
