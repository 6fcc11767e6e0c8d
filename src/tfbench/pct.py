"""Polynomial chirplet transform and iterative kernel estimation.

The transform is a windowed Fourier analysis with two extra operators built
from a polynomial IF model alpha_1*t + ... + alpha_n*t^n (the constant term
is carried by the frequency axis itself):

* a frequency-rotation operator exp(-j*2*pi*sum_k alpha_k t^(k+1)/(k+1))
  applied to the whole signal, which subtracts the modeled IF trend, and
* a frequency-shift operator exp(+j*2*pi*(sum_k alpha_k t0^k)*t) applied per
  analysis frame centered at t0, which puts the ridge back at the local
  modeled IF.

A component whose IF matches the kernel polynomial is concentrated as if it
were a stationary tone; a zero kernel reduces the transform to the STFT.
``estimate_kernel`` alternates transform, ridge extraction, and weighted
polynomial fitting until the fitted IF stops moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import InsufficientDataError, SampledSignal, WindowSpec, analytic_signal, make_window
from .evaluate import _band_indices, extract_ridge
from .tfd import TFDGrid, _frame_starts, _short_time_power, _window_meta


@dataclass(frozen=True)
class PolynomialKernel:
    """Coefficients alpha_1..alpha_n of the IF model, units Hz/s^k."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < 1:
            raise ValueError("kernel needs at least one coefficient")
        if not all(np.isfinite(c) for c in coeffs):
            raise ValueError("kernel coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, order: int) -> "PolynomialKernel":
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls((0.0,) * order)

    def trend_phase(self, t: np.ndarray) -> np.ndarray:
        """Integral of the IF model: sum_k alpha_k t^(k+1)/(k+1) (Hz*s)."""
        acc = np.zeros_like(t)
        for k, a in enumerate(self.coeffs, start=1):
            acc += a * t ** (k + 1) / (k + 1)
        return acc

    def local_if(self, t: np.ndarray) -> np.ndarray:
        """IF model without the constant term: sum_k alpha_k t^k (Hz)."""
        acc = np.zeros_like(t)
        for k, a in enumerate(self.coeffs, start=1):
            acc += a * t**k
        return acc


@dataclass(frozen=True)
class PCTConfig:
    # Framing is finer than the STFT defaults on purpose: a short window and
    # unit hop give the kernel fit enough independent ridge samples inside a
    # 150 ms burst.
    order: int = 2
    max_iterations: int = 10
    ridge_band_hz: Optional[tuple] = (5.0, 70.0)
    convergence_tol_hz: float = 0.1
    window: WindowSpec = WindowSpec("hann", 64)
    hop_samples: int = 1
    fft_length: int = 1024
    amp_threshold_frac: float = 0.05

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol_hz <= 0:
            raise ValueError("convergence_tol_hz must be positive")
        if self.hop_samples < 1:
            raise ValueError("hop_samples must be >= 1")
        if self.window.length_samples > self.fft_length:
            raise ValueError("window must not be longer than fft_length")
        if not 0.0 <= self.amp_threshold_frac < 1.0:
            raise ValueError("amp_threshold_frac must lie in [0, 1)")


def pct_transform(z: SampledSignal, kernel: PolynomialKernel, cfg: PCTConfig) -> TFDGrid:
    """Polynomial chirplet transform, squared magnitudes.

    Grid conventions (frame centers, frequency axis, hop) match ``stft``;
    meaningful concentration requires an analytic input, since the rotation
    operator would defocus a real signal's mirrored spectrum.
    """
    if kernel.order != cfg.order:
        raise ValueError(f"kernel order {kernel.order} != config order {cfg.order}")
    if cfg.window.length_samples > len(z):
        raise ValueError(
            f"window ({cfg.window.length_samples}) longer than signal ({len(z)})"
        )
    fs = z.sample_rate_hz
    t = z.times()
    rotated = z.samples * np.exp(-2j * np.pi * kernel.trend_phase(t))

    wlen = cfg.window.length_samples
    starts = _frame_starts(len(z), wlen, cfg.hop_samples)
    centers = z.start_time_s + (starts + (wlen - 1) / 2.0) / fs
    frame_times = t[starts[:, None] + np.arange(wlen)[None, :]]
    shift = np.exp(2j * np.pi * kernel.local_if(centers)[:, None] * frame_times)

    win = make_window(cfg.window)
    values = _short_time_power(
        rotated, win, cfg.hop_samples, cfg.fft_length, frame_multiplier=shift
    )
    freqs = np.arange(cfg.fft_length // 2 + 1) * fs / cfg.fft_length
    meta = {
        "sample_rate_hz": fs,
        "window": _window_meta(cfg.window),
        "hop_samples": int(cfg.hop_samples),
        "fft_length": int(cfg.fft_length),
        "analytic_input": bool(np.iscomplexobj(z.samples)),
        "kernel_coeffs": list(kernel.coeffs),
    }
    return TFDGrid(centers, freqs, values, "pct", meta)


@dataclass(frozen=True)
class KernelFit:
    """Result of iterative kernel estimation.

    ``if_coeffs`` is the full fitted IF polynomial (ascending powers,
    constant term included); ``kernel`` drops the constant term.  When the
    loop does not converge, the iterate with the smallest weighted ridge
    residual is returned and ``converged`` is False.
    """

    kernel: PolynomialKernel
    grid: TFDGrid
    iterations: int
    converged: bool
    if_coeffs: tuple

    def fitted_if_hz(self, times_s: np.ndarray) -> np.ndarray:
        return npoly.polyval(np.asarray(times_s, dtype=np.float64), self.if_coeffs)


def _fit_ridge_poly(
    grid: TFDGrid, cfg: PCTConfig
) -> tuple[np.ndarray, float, int]:
    """Weighted LS polynomial through the ridge; returns (coeffs, residual, n)."""
    ridge = extract_ridge(grid, cfg.ridge_band_hz, cfg.amp_threshold_frac)
    valid = ridge.valid
    n_valid = int(valid.sum())
    if n_valid < cfg.order + 1:
        raise InsufficientDataError(
            f"{n_valid} valid ridge frames, need at least {cfg.order + 1} "
            f"for an order-{cfg.order} fit"
        )
    band = _band_indices(grid.freqs_hz, cfg.ridge_band_hz)
    peaks = grid.values[:, band].max(axis=1)
    tt = ridge.times_s[valid]
    ff = ridge.freqs_hz[valid]
    w = np.sqrt(peaks[valid])
    poly = npoly.Polynomial.fit(tt, ff, deg=cfg.order, w=w)
    coeffs = np.zeros(cfg.order + 1)
    conv = poly.convert().coef
    coeffs[: conv.size] = conv
    resid = ff - npoly.polyval(tt, coeffs)
    residual = float(np.sqrt(np.sum((w * resid) ** 2) / np.sum(w**2)))
    return coeffs, residual, n_valid


def estimate_kernel(z: SampledSignal, cfg: Optional[PCTConfig] = None) -> KernelFit:
    """Alternate transform, ridge extraction, and polynomial fitting.

    Starts from a zero kernel (plain STFT view).  Converged when the fitted
    IF moves less than ``convergence_tol_hz`` at every frame between
    consecutive iterations.  Deterministic.
    """
    cfg = cfg if cfg is not None else PCTConfig()
    kernel = PolynomialKernel.zero(cfg.order)
    prev_fitted: Optional[np.ndarray] = None
    best: Optional[tuple] = None
    best_residual = np.inf
    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        grid = pct_transform(z, kernel, cfg)
        coeffs, residual, _ = _fit_ridge_poly(grid, cfg)
        iterations += 1
        if residual < best_residual:
            best_residual = residual
            best = (PolynomialKernel(tuple(coeffs[1:])), tuple(coeffs))
        fitted = npoly.polyval(grid.times_s, coeffs)
        if prev_fitted is not None and np.max(np.abs(fitted - prev_fitted)) < cfg.convergence_tol_hz:
            converged = True
            kernel = PolynomialKernel(tuple(coeffs[1:]))
            best = (kernel, tuple(coeffs))
            break
        prev_fitted = fitted
        kernel = PolynomialKernel(tuple(coeffs[1:]))
    final_kernel, if_coeffs = best
    final_grid = pct_transform(z, final_kernel, cfg)
    final_grid.meta["iterations"] = iterations
    final_grid.meta["converged"] = converged
    return KernelFit(
        kernel=final_kernel,
        grid=final_grid,
        iterations=iterations,
        converged=converged,
        if_coeffs=if_coeffs,
    )


def pct_auto(x: SampledSignal, cfg: Optional[PCTConfig] = None) -> TFDGrid:
    """Analytic conversion, kernel estimation, final transform in one call."""
    cfg = cfg if cfg is not None else PCTConfig()
    z = x if np.iscomplexobj(x.samples) else analytic_signal(x)
    return estimate_kernel(z, cfg).grid
