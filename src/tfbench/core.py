"""Core signal and IF-trajectory types, window functions, analytic-signal
construction, decimation, and calibrated noise injection.

Everything here is a pure function of its inputs; the signal containers are
frozen value objects that are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InsufficientDataError(ValueError):
    """Raised when an operation has fewer usable data points than it needs."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, for storing in a frozen value object; no
    data is copied, and other views of the data keep their own flags."""
    view = a.view()
    view.flags.writeable = False
    return view


def _integer(value, name: str) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a bool;
    anything else raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled time series, real or complex.

    Samples are stored, read-only, as complex128 when the input is complex
    and as float64 otherwise.  Sample i sits at time
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
        object.__setattr__(self, "samples", _read_only(samples))
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
        object.__setattr__(self, "length_samples", _integer(self.length_samples, "window length"))
        if self.length_samples < 1:
            raise ValueError("window length must be >= 1")
        if self.kind == "gaussian" and not 0 < self.alpha < math.inf:
            raise ValueError(f"gaussian alpha must be finite and positive, got {self.alpha!r}")


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
    is the input, bit for bit (signs of zeros included).
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
    hilbert = np.fft.ifft(spectrum * gain).imag
    # copy the original samples into the real part so it round-trips exactly;
    # x + 1j*h would turn -0.0 into +0.0 where h > 0
    z = np.empty(n, dtype=np.complex128)
    z.real = x.samples
    z.imag = hilbert
    return SampledSignal(z, x.sample_rate_hz, x.start_time_s)


def decimate(x: SampledSignal, factor: int) -> SampledSignal:
    """Reduce the sample rate by an integer factor.

    A Hamming-windowed-sinc FIR low-pass (64 taps per unit of decimation
    factor, cutoff at 0.8x the new Nyquist) runs forward-backward before
    sample selection, so the result is zero-phase and ridge timing is
    preserved.  The filter design (scipy's ``firwin``) and the passes
    (scipy's ``filtfilt``) are written out in numpy with scipy's bits.
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
    # scipy's firwin(taps, cutoff_hz, window="hamming", fs=...), written out:
    # the windowed ideal low-pass, scaled to unit gain at DC
    c = cutoff_hz / (0.5 * x.sample_rate_hz)
    b = c * np.sinc(c * (np.arange(taps) - 0.5 * (taps - 1)))
    # 1 - 0.54, not 0.46: the two differ in the last bit
    b *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    b /= np.sum(b)
    # scipy's filtfilt(b, [1.0], x, padlen=pad), written out: odd extension,
    # then forward and backward passes started from the step-response steady
    # state.  For an FIR filter that state is the reversed cumulative sum of
    # b[1:], which filtfilt would get from a dense (taps-1)-square solve, and
    # each pass is lfilter's: the full convolution with the state added to
    # its first taps-1 outputs, cut to the input's length.
    pad = min(3 * taps, len(x) - 1)
    s = x.samples
    ext = np.concatenate((2 * s[:1] - s[pad:0:-1], s, 2 * s[-1:] - s[-2 : -pad - 2 : -1]))
    zi = np.cumsum(b[:0:-1])[::-1]
    y = ext
    for _ in range(2):  # forward, then backward: each pass's output comes out reversed
        full = np.convolve(b, y)
        full[: taps - 1] += zi * y[0]
        y = full[: y.size][::-1]
    filtered = y[pad:-pad]
    return SampledSignal(filtered[::factor], new_rate, x.start_time_s)


def add_white_noise(x: SampledSignal, snr: float, seed: int, db: bool = False) -> SampledSignal:
    """Add zero-mean white Gaussian noise at a prescribed signal-to-noise ratio.

    ``snr`` is a linear power ratio by default; pass ``db=True`` to interpret
    it in decibels instead.  Deterministic for a given seed.  ``snr=inf``
    returns an unmodified copy.
    """
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    if np.iscomplexobj(x.samples):
        raise ValueError("add_white_noise needs real samples; the noise is real")
    ratio = 10.0 ** (snr / 10.0) if db else float(snr)
    if math.isinf(ratio):
        return SampledSignal(x.samples.copy(), x.sample_rate_hz, x.start_time_s)
    power = float(np.mean(x.samples**2))
    sigma = math.sqrt(power / ratio)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, len(x))
    return SampledSignal(x.samples + noise, x.sample_rate_hz, x.start_time_s)
