"""Core signal types, window functions, analytic-signal construction,
decimation, and calibrated noise injection.

Everything here is a pure function of its inputs; the signal containers are
frozen value objects that are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import filtfilt, firwin


class InsufficientDataError(ValueError):
    """Raised when an operation has fewer usable data points than it needs."""


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled time series, real or complex.

    Samples are stored as complex128 when the input is complex and as
    float64 otherwise.  Sample i sits at time
    ``start_time_s + i / sample_rate_hz``.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples)
        dtype = np.complex128 if np.iscomplexobj(samples) else np.float64
        samples = samples.astype(dtype, copy=False)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size == 0:
            raise ValueError("samples must be non-empty")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN or infinity)")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "start_time_s", float(self.start_time_s))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def times(self) -> np.ndarray:
        """Time stamp of every sample, in seconds."""
        return self.start_time_s + np.arange(self.samples.size) / self.sample_rate_hz


def ComplexSignal(samples, sample_rate_hz: float, start_time_s: float = 0.0) -> SampledSignal:
    """A SampledSignal with its samples cast to complex128."""
    return SampledSignal(np.asarray(samples, dtype=np.complex128), sample_rate_hz, start_time_s)


WINDOW_KINDS = ("rectangular", "hann", "hamming", "gaussian")


@dataclass(frozen=True)
class WindowSpec:
    """Analysis window description.

    ``alpha`` only applies to the gaussian kind and is the half-width of the
    window in standard deviations (larger alpha = narrower bell).  Windows are
    symmetric by default; set ``periodic`` for the DFT-periodic variant.
    """

    kind: str
    length_samples: int
    alpha: float = 2.5
    periodic: bool = False

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}; expected one of {WINDOW_KINDS}")
        if self.length_samples < 1:
            raise ValueError("window length must be >= 1")
        if self.kind == "gaussian" and not self.alpha > 0:
            raise ValueError("gaussian alpha must be positive")


def make_window(spec: WindowSpec) -> np.ndarray:
    """Evaluate a WindowSpec into an array of real coefficients.

    Symmetric windows have value 1 at the exact center sample (odd lengths)
    and are even about the midpoint.
    """
    m = spec.length_samples
    if m == 1:
        return np.ones(1)
    # denominator M-1 gives the symmetric window, M the periodic one
    denom = m if spec.periodic else m - 1
    k = np.arange(m, dtype=np.float64)
    if spec.kind == "rectangular":
        return np.ones(m)
    if spec.kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / denom)
    if spec.kind == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / denom)
    # gaussian: exp(-0.5 * (alpha * n / (denom/2))**2), n centered on 0
    n = k - denom / 2.0
    return np.exp(-0.5 * (spec.alpha * n / (denom / 2.0)) ** 2)


def analytic_signal(x: SampledSignal) -> SampledSignal:
    """Analytic associate of a real signal via the frequency-domain method.

    The negative-frequency bins of the DFT are zeroed, the positive bins
    doubled, and DC/Nyquist left untouched; the imaginary part of the inverse
    transform is the discrete Hilbert transform.  The real part of the result
    is the input, bit for bit.
    """
    if np.iscomplexobj(x.samples):
        raise ValueError("analytic_signal needs a real signal")
    n = len(x)
    if n < 2:
        raise ValueError("analytic_signal needs at least 2 samples")
    spectrum = np.fft.fft(x.samples)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[1 : n // 2] = 2.0
        gain[n // 2] = 1.0
    else:
        gain[1 : (n + 1) // 2] = 2.0
    z = np.fft.ifft(spectrum * gain)
    # rebuild from the original samples so the real part round-trips exactly
    return SampledSignal(x.samples + 1j * z.imag, x.sample_rate_hz, x.start_time_s)


def decimate(x: SampledSignal, factor: int) -> SampledSignal:
    """Reduce the sample rate by an integer factor.

    A Hamming-windowed-sinc FIR low-pass (64 taps per unit of decimation
    factor, cutoff at 0.8x the new Nyquist) runs forward-backward before
    sample selection, so the result is zero-phase and ridge timing is
    preserved.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"decimation factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return SampledSignal(x.samples.copy(), x.sample_rate_hz, x.start_time_s)
    n_out = int(np.ceil(len(x) / factor))
    if n_out < 2:
        raise ValueError("decimation factor leaves fewer than 2 samples")
    new_rate = x.sample_rate_hz / factor
    cutoff_hz = 0.8 * (new_rate / 2.0)
    taps = 64 * factor + 1  # odd length keeps the FIR symmetric
    b = firwin(taps, cutoff_hz, window="hamming", fs=x.sample_rate_hz)
    padlen = min(3 * taps, len(x) - 1)
    filtered = filtfilt(b, [1.0], x.samples, padlen=padlen)
    return SampledSignal(filtered[::factor], new_rate, x.start_time_s)


def add_white_noise(x: SampledSignal, snr: float, seed: int, db: bool = False) -> SampledSignal:
    """Add zero-mean white Gaussian noise at a prescribed signal-to-noise ratio.

    ``snr`` is a linear power ratio by default; pass ``db=True`` to interpret
    it in decibels instead.  Deterministic for a given seed.  ``snr=inf``
    returns an unmodified copy.
    """
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    ratio = 10.0 ** (snr / 10.0) if db else float(snr)
    if math.isinf(ratio):
        return SampledSignal(x.samples.copy(), x.sample_rate_hz, x.start_time_s)
    power = float(np.mean(x.samples**2))
    sigma = math.sqrt(power / ratio)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, len(x))
    return SampledSignal(x.samples + noise, x.sample_rate_hz, x.start_time_s)
