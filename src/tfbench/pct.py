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
polynomial fitting until the fitted IF stops moving.  Its iterations read
band scans of the ridge band, not grids, through ``tfd._ridge``, the ridge
``compare`` scores every method by.  ``_pct`` is ``pct_auto``'s one path:
it returns the kept kernel's rows (``tfd._Rows``), which ``pct_auto``
makes into a grid and ``compare`` into a band scan, so ``compare`` builds
no PCT grid at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import InsufficientDataError, SampledSignal, WindowSpec, _integer, analytic_signal
from .tfd import TFDGrid, _BandScan, _Rows, _ridge, _short_time, _short_time_checks
from .tfd import extract_ridge  # noqa: F401  the benchmark's tracer looks it up here


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
        for name in ("order", "max_iterations", "hop_samples", "fft_length"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (np.isfinite(self.convergence_tol_hz) and self.convergence_tol_hz > 0):
            raise ValueError("convergence_tol_hz must be positive and finite")
        _short_time_checks(self.window, self.hop_samples, self.fft_length)
        if not 0.0 <= self.amp_threshold_frac < 1.0:
            raise ValueError("amp_threshold_frac must lie in [0, 1)")


def pct_transform(z: SampledSignal, kernel: PolynomialKernel, cfg: PCTConfig) -> TFDGrid:
    """Polynomial chirplet transform, squared magnitudes.

    The STFT framing of the rotated signal, each frame shifted by the
    kernel's IF at its center, so axes and meta keys match ``stft`` plus
    ``kernel_coeffs``.  Meaningful concentration requires an analytic
    input, since the rotation operator would defocus a real signal's
    mirrored spectrum.
    """
    return _chirplet(z, kernel, cfg).grid()


def _chirplet(z: SampledSignal, kernel: PolynomialKernel, cfg: PCTConfig, **meta) -> _Rows:
    """The rows of ``pct_transform``'s grid (see ``tfd._short_time``);
    ``meta`` adds meta keys.  The frame DFT of ``cfg``'s window is
    ``tfd._frame_dft``'s, built once per process."""
    if kernel.order != cfg.order:
        raise ValueError(f"kernel order {kernel.order} != config order {cfg.order}")
    rotated = z.samples * np.exp(-2j * np.pi * kernel.trend_phase(z.times()))
    return _short_time(
        "pct",
        SampledSignal(rotated, z.sample_rate_hz, z.start_time_s),
        cfg.window,
        cfg.hop_samples,
        cfg.fft_length,
        kernel.local_if,
        analytic_input=bool(np.iscomplexobj(z.samples)),
        kernel_coeffs=list(kernel.coeffs),
        **meta,
    )


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


def _fit_ridge_poly(scan: _BandScan, cfg: PCTConfig) -> tuple[np.ndarray, float]:
    """Weighted LS polynomial through the ridge of a ridge-band scan, each
    frame weighted by the square root of its peak; returns (coeffs, residual)."""
    ridge = _ridge(scan, cfg.amp_threshold_frac)
    valid = ridge.valid
    n_valid = int(valid.sum())
    if n_valid < cfg.order + 1:
        raise InsufficientDataError(
            f"{n_valid} valid ridge frames, need at least {cfg.order + 1} "
            f"for an order-{cfg.order} fit"
        )
    tt = ridge.times_s[valid]
    ff = ridge.freqs_hz[valid]
    w = np.sqrt(scan.peak[valid])
    # with full=True numpy returns the rank instead of warning of a poor fit
    poly, (_, rank, _, _) = npoly.Polynomial.fit(tt, ff, deg=cfg.order, w=w, full=True)
    if rank < cfg.order + 1:
        raise InsufficientDataError(
            f"the order-{cfg.order} fit through {n_valid} valid ridge frames is rank "
            f"deficient (rank {rank} < {cfg.order + 1}); lower the order"
        )
    coeffs = np.zeros(cfg.order + 1)
    conv = poly.convert().coef
    coeffs[: conv.size] = conv
    resid = ff - npoly.polyval(tt, coeffs)
    residual = float(np.sqrt(np.sum((w * resid) ** 2) / np.sum(w**2)))
    return coeffs, residual


def _iterate(z: SampledSignal, cfg: PCTConfig) -> tuple:
    """``estimate_kernel``'s loop; returns (kept IF coeffs, iterations,
    converged, the kept kernel's rows as ``_chirplet`` gives them).  Each
    iteration reads a band scan of ``ridge_band_hz``, so no grid is
    built."""
    kernel = PolynomialKernel.zero(cfg.order)
    prev_fitted: Optional[np.ndarray] = None
    kept = (np.inf, None)  # (residual, coeffs)
    for iterations in range(1, cfg.max_iterations + 1):
        ridge_scan = _chirplet(z, kernel, cfg).scan(cfg.ridge_band_hz)
        coeffs, residual = _fit_ridge_poly(ridge_scan, cfg)
        fitted = npoly.polyval(ridge_scan.times_s, coeffs)
        converged = prev_fitted is not None and bool(
            np.max(np.abs(fitted - prev_fitted)) < cfg.convergence_tol_hz
        )
        if converged or residual < kept[0]:
            kept = (residual, coeffs)
        if converged:
            break
        prev_fitted = fitted
        kernel = PolynomialKernel(tuple(coeffs[1:]))
    if_coeffs = tuple(kept[1])
    rows = _chirplet(z, PolynomialKernel(if_coeffs[1:]), cfg, iterations=iterations,
                     converged=converged)
    return if_coeffs, iterations, converged, rows


def estimate_kernel(z: SampledSignal, cfg: Optional[PCTConfig] = None) -> KernelFit:
    """Alternate transform, ridge extraction, and polynomial fitting.

    Starts from a zero kernel (plain STFT view).  Converged when the fitted
    IF moves less than ``convergence_tol_hz`` at every frame between
    consecutive iterations.  The kept fit is the converged one, or else the
    one with the lowest residual so far (the first of equals).
    Deterministic.

    The iterations read only the ridge band, so each one's transform goes
    straight into a band scan of the ``ridge_band_hz`` columns and builds no
    grid; those are the full grid's bits, so every ridge, residual and fit
    is the full grid's too.  The kept kernel's final transform,
    ``KernelFit.grid``, is a full grid.
    """
    cfg = cfg if cfg is not None else PCTConfig()
    if_coeffs, iterations, converged, rows = _iterate(z, cfg)
    return KernelFit(PolynomialKernel(if_coeffs[1:]), rows.grid(), iterations, converged, if_coeffs)


def pct_auto(x: SampledSignal, cfg: Optional[PCTConfig] = None) -> TFDGrid:
    """Analytic conversion, kernel estimation, final transform in one call:
    ``estimate_kernel``'s grid, with the input made analytic when it is real."""
    return _pct(x, cfg if cfg is not None else PCTConfig()).grid()


def _pct(x: SampledSignal, cfg: PCTConfig) -> _Rows:
    """The rows of ``pct_auto``'s grid: the kernel iterations run here, each
    into a band scan, and the kept kernel's transform is left to the
    caller's ``grid`` or ``scan``."""
    z = x if np.iscomplexobj(x.samples) else analytic_signal(x)
    return _iterate(z, cfg)[3]
