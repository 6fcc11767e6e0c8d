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
* A WVD-family row is one Hermitian real FFT of lags 0..L (numpy's
  ``np.fft.hfft``): the lag product is Hermitian and the lag kernel even, so
  the lag DFT is real.  Lags past the Hermitian half are folded first (see
  ``_wvd_family``).  SPWVD's time smoothing, ``_smooth_rows``, gives the
  bits of scipy's ``fftconvolve``, so the module needs numpy alone.
* ``wvd``, ``pwvd``, ``spwvd`` and ``pct.pct_transform`` take
  ``band_hz=(lo, hi)`` to keep only the bins of their frequency axis with
  lo <= f <= hi (edges included); an empty band raises ValueError.  Those
  columns, their axis and the meta are bit-identical to the full grid's;
  only the grid is narrower.  ``None`` (the default) keeps the whole axis.
* One runner, two ``add``s.  Every transform (WVD family, STFT, PCT) and
  every scan of a stored grid runs in row blocks of about ``_BLOCK_BYTES``
  of work through ``_in_rows``, on up to min(4, usable CPUs) threads, the
  caller's first: a one-block input never leaves the calling thread.  Each
  block goes to one ``add``: the grid's, which writes only the block's own
  rows, or a band scan's (``_BandReader.add``), which keeps per row the
  argmax (first of equals) and the peak and per column the sum over rows,
  so no grid is built.  Both producers, ``_wvd_family`` (WVD family) and
  ``_short_time`` (STFT and PCT), feed either one (``scan=True``).  A band
  scan (``_BandScan``) holds the band grid's axes, method and meta next to
  those reductions, stored grid or not; it reads WVD-family values by
  magnitude.  ``_band_magnitudes`` scans the row blocks of a stored grid,
  for ``psd_from_tfd`` and the ridge and dominant-frequency readers.
* Column sums: the rows of each of ``_SUM_RANGES`` fixed contiguous row
  ranges are added in order onto that range's running sum, and the ranges
  are added in order at the end.  A worker takes whole ranges.  So the
  sums hold O(k) values for k columns, and their bits, like every grid's,
  depend on neither the block size nor the thread count.
"""

from __future__ import annotations

import bisect
import copy
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import SampledSignal, WindowSpec, _read_only, analytic_signal, make_window

WVD_METHODS = ("wvd", "pwvd", "spwvd")

# bytes of one row block's work, small enough to stay in a core's cache
_BLOCK_BYTES = 1 << 19
_MAX_WORKERS = 4
# row ranges that column sums run over, one running sum each: a multiple of
# every worker count up to _MAX_WORKERS, so each worker takes whole ranges
_SUM_RANGES = 12

_pool_lock = threading.Lock()
_pool_owner: Optional[int] = None
_pool_executor: Optional[ThreadPoolExecutor] = None


@dataclass(frozen=True)
class TFDGrid:
    """Time x frequency matrix of distribution values with explicit axes;
    the arrays are stored read-only and the meta as a deep copy."""

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
        object.__setattr__(self, "times_s", _read_only(times))
        object.__setattr__(self, "freqs_hz", _read_only(freqs))
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "meta", copy.deepcopy(self.meta))

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
    """Frequency marginal of a grid, normalized to unit total power; the
    arrays are stored read-only."""

    freqs_hz: np.ndarray
    power: np.ndarray
    all_zero: bool = False

    def __post_init__(self):
        for name in ("freqs_hz", "power"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name))))


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def _band_indices(freqs_hz: np.ndarray, band_hz: Optional[tuple]) -> slice:
    """The bins of a strictly increasing axis with lo <= f <= hi, as a slice;
    every bin when ``band_hz`` is None."""
    if band_hz is None:
        return slice(0, freqs_hz.size)
    lo, hi = band_hz
    if lo > hi:
        raise ValueError(f"band low {lo} exceeds band high {hi}")
    start = int(np.searchsorted(freqs_hz, lo, side="left"))
    stop = int(np.searchsorted(freqs_hz, hi, side="right"))
    if start >= stop or np.isnan(lo) or np.isnan(hi):
        raise ValueError(f"band {band_hz} contains no grid frequencies")
    return slice(start, stop)


def _workers() -> int:
    """Threads for row-block work: the CPUs this process may run on, at most 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_WORKERS, cpus))


def _pool() -> ThreadPoolExecutor:
    """The module's thread pool, made on first use in each process: a forked
    child cannot use its parent's threads.  Threads start only as parts are
    submitted, so the pool holds at most workers - 1 of them."""
    global _pool_owner, _pool_executor
    with _pool_lock:
        if _pool_owner != os.getpid():
            _pool_executor = ThreadPoolExecutor(_MAX_WORKERS - 1, thread_name_prefix="tfbench")
            _pool_owner = os.getpid()
        return _pool_executor


def _block_rows(row_bytes: int) -> int:
    """Rows per block, for rows of ``row_bytes`` bytes of work each: as many
    as fit in ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _in_rows(
    n: int,
    rows: int,
    block: Callable[[slice], np.ndarray],
    add: Callable[[slice, np.ndarray], None],
) -> None:
    """Call ``add(at, block(at))`` for rows 0..n in blocks of at most
    ``rows`` rows.

    The rows split into min(workers, blocks) parts of whole ``_SUM_RANGES``
    ranges, and each part is cut into blocks of ``rows`` rows from its start
    (its last block may be short).  The first part runs on the calling
    thread, so a one-block input never asks for the pool, and each other
    part on a pool thread, its blocks in order.  Every part finishes before
    the first failing part's error is raised."""
    parts = max(1, min(_workers(), -(-n // rows)))
    edges = [n * (_SUM_RANGES * i // parts) // _SUM_RANGES for i in range(parts + 1)]

    def run(lo: int, hi: int) -> None:
        for start in range(lo, hi, rows):
            at = slice(start, min(start + rows, hi))
            add(at, block(at))

    futures = [_pool().submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        run(edges[0], edges[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


class _BandScan(NamedTuple):
    """The band scan of a band grid, stored or not, with its axes, method and meta."""

    times_s: np.ndarray
    freqs_hz: np.ndarray  # the band's bins
    method: str
    meta: dict
    argmax: np.ndarray  # per row: band column of the largest value, first of equals
    peak: np.ndarray  # per row: that value
    col_sum: np.ndarray  # per band column: sum over rows


class _BandReader:
    """The band scan of a band grid with the given axes, method and meta,
    read one row block at a time: per row the argmax (first of equals) and
    the peak, per column the sum over rows.  WVD-family values are read by
    absolute value, so negative lobes count by magnitude; other values as
    they are, in the block itself, since the column sums add into it: a
    caller hands ``add`` blocks it may overwrite.

    Column sums run over ``_SUM_RANGES`` fixed contiguous ranges of rows.
    Each range's rows are added in order onto its running sum, whatever
    blocks they come in (``piece[0] += sum; piece.sum(axis=0, out=sum)``:
    numpy adds a C-contiguous piece row by row), and the ranges are added in
    order at the end.  ``_in_rows`` gives each worker whole ranges, so the
    sums are the same bits for any block size and thread count, and they
    hold ``_SUM_RANGES`` rows of k, not one row per block.
    """

    def __init__(self, times_s: np.ndarray, freqs_hz: np.ndarray, method: str, meta: dict):
        self.axes = (times_s, freqs_hz, method, meta)
        self.magnitude = method in WVD_METHODS
        n, k = times_s.size, freqs_hz.size
        self.argmax = np.empty(n, dtype=np.intp)
        self.peak = np.empty(n)
        self.edges = [n * r // _SUM_RANGES for r in range(_SUM_RANGES + 1)]
        self.sums = np.zeros((_SUM_RANGES, k))

    def add(self, at: slice, values: np.ndarray) -> None:
        """Read rows ``at``, ``values``."""
        if self.magnitude:
            values = np.abs(values)
        argmax = values.argmax(axis=1)
        self.argmax[at] = argmax
        self.peak[at] = values[np.arange(argmax.size), argmax]
        r = bisect.bisect_right(self.edges, at.start) - 1
        while self.edges[r] < at.stop:
            piece = values[max(self.edges[r], at.start) - at.start : self.edges[r + 1] - at.start]
            if piece.size:
                running = self.sums[r]
                piece[0] += running
                piece.sum(axis=0, out=running)
            r += 1

    def scan(self) -> _BandScan:
        return _BandScan(*self.axes, self.argmax, self.peak, self.sums.sum(axis=0))


def _band_magnitudes(g: TFDGrid, band_hz: Optional[tuple]) -> _BandScan:
    """One band scan (see ``_BandReader``) of the grid's columns inside
    ``band_hz``; WVD-family columns by absolute value.  Rows are read in
    blocks of ``_block_rows(8 * k)`` rows for k band columns, so a block's
    magnitudes stay in cache and no band-sized magnitude array is built.
    """
    band = _band_indices(g.freqs_hz, band_hz)
    vals = g.values[:, band]
    reader = _BandReader(g.times_s, g.freqs_hz[band], g.method, g.meta)
    # the reader adds into non-WVD blocks, and the grid's rows are not its own
    block = (lambda at: vals[at]) if reader.magnitude else (lambda at: vals[at].copy())
    _in_rows(g.n_times, _block_rows(8 * max(vals.shape[1], 1)), block, reader.add)
    return reader.scan()


def _short_time(
    method: str,
    x: SampledSignal,
    window: WindowSpec,
    hop_samples: int,
    fft_length: int,
    shift_hz=None,
    band_hz: Optional[tuple] = None,
    scan: bool = False,
    **meta,
):
    """The framing ``stft`` documents, as a grid named ``method``.

    ``shift_hz`` maps frame centers to Hz; when given, frame k is multiplied
    by exp(2j*pi*shift_hz(center_k)*t) at its sample times t before
    windowing.  ``band_hz`` keeps only the bins inside it; an empty band
    raises ValueError.  ``meta`` adds or overrides grid meta keys.

    Frames are transformed in row blocks (see ``_in_rows``): each block
    gathers, shifts and windows its frames, takes their FFT and keeps |.|^2
    of the kept bins, so no all-frames x fft_length spectrum is built.
    Frames that fit in one block, as those of ``compare``'s STFT of a 1 s
    record do, are transformed on the calling thread.  The blocks fill the
    returned grid, or with ``scan`` they go to a ``_BandReader`` and the
    band grid's ``_BandScan`` is returned, so no grid is built.
    """
    if hop_samples < 1:
        raise ValueError("hop_samples must be >= 1")
    wlen = window.length_samples
    if wlen > fft_length:
        raise ValueError("window must not be longer than fft_length")
    if wlen > len(x):
        raise ValueError(f"window ({wlen}) longer than signal ({len(x)})")
    fs = x.sample_rate_hz
    freqs = np.arange(fft_length // 2 + 1) * fs / fft_length
    band = _band_indices(freqs, band_hz)
    starts = np.arange(0, len(x) - wlen + 1, hop_samples)
    offsets = np.arange(wlen)
    times = x.start_time_s + (starts + (wlen - 1) / 2.0) / fs
    taps = make_window(window)
    shift_at = shift_hz(times) if shift_hz is not None else None
    sample_times = x.times()

    def power(at: slice) -> np.ndarray:
        frame_index = starts[at, None] + offsets[None, :]
        frames = x.samples[frame_index]
        if shift_at is not None:
            # frames *= shift, not an inlined product: numpy may compute an
            # inlined temporary's product as shift * frames, which rounds
            # differently on large grids
            shift = np.exp(2j * np.pi * shift_at[at, None] * sample_times[frame_index])
            frames *= shift
            del shift
        del frame_index
        windowed = frames * taps[None, :]
        del frames
        # numpy's FFT, not scipy's: the two differ in the last bits on real frames
        spectra = np.fft.fft(windowed, n=fft_length, axis=1)
        del windowed
        magnitude = np.abs(spectra[:, band])
        del spectra
        return np.square(magnitude, out=magnitude)

    meta = {
        "sample_rate_hz": fs,
        "window": _window_meta(window),
        "hop_samples": int(hop_samples),
        "fft_length": int(fft_length),
        "analytic_input": bool(np.iscomplexobj(x.samples)),
        **meta,
    }
    reader = _BandReader(times, freqs[band], method, meta) if scan else None
    values = None if scan else np.empty((starts.size, band.stop - band.start))
    _in_rows(starts.size, _block_rows(16 * fft_length), power,
             reader.add if scan else values.__setitem__)
    return reader.scan() if scan else TFDGrid(times, freqs[band], values, method, meta)


def stft(x: SampledSignal, window: WindowSpec, hop_samples: int, fft_length: int) -> TFDGrid:
    """Short-time Fourier transform, squared magnitudes.

    Frame k covers samples ``[k*hop, k*hop + window length)``; each frame is
    windowed, zero-padded to ``fft_length`` and transformed.  The time stamp
    of a frame is the center of its window.
    """
    return _short_time("stft", x, window, hop_samples, fft_length)


def _window_meta(spec: WindowSpec) -> dict:
    meta = {"kind": spec.kind, "length_samples": spec.length_samples}
    if spec.kind == "gaussian":
        meta["alpha"] = spec.alpha
    if spec.periodic:
        meta["periodic"] = True
    return meta


def _fast_fft_length(n: int) -> int:
    """The smallest 2, 3, 5, 7, 11-smooth number >= n: pocketfft's good
    size for a complex transform (scipy's ``next_fast_len(n, real=False)``)."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _smooth_rows(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``fftconvolve(q, h[:, None], mode="same", axes=0)`` for complex ``q``
    and odd-length real ``h``, with scipy's bits: h's spectrum is pocketfft's
    complex FFT of a real input (the real FFT, mirrored and conjugated).
    The product and the inverse FFT overwrite q's spectrum, so one padded
    array is built (``out=`` needs numpy 2)."""
    if h.size == 1:
        return q * h
    size = _fast_fft_length(q.shape[0] + h.size - 1)
    half = np.fft.rfft(h, size)
    kernel = np.concatenate([half, np.conj(half[1 : (size + 1) // 2][::-1])])
    full = np.fft.fft(q, size, axis=0)
    full *= kernel[:, None]
    np.fft.ifft(full, axis=0, out=full)
    start = (h.size - 1) // 2
    return full[start : start + q.shape[0]]


def _wvd_family(
    method: str,
    x: SampledSignal,
    fft_length: int,
    use_analytic: bool,
    time_window: Optional[WindowSpec] = None,
    freq_window: Optional[WindowSpec] = None,
    band_hz: Optional[tuple] = None,
    scan: bool = False,
):
    """Separable-kernel WVD: time smoothing ``time_window``, lag taper
    ``freq_window``; either may be absent.  ``band_hz`` keeps only the
    bins inside it; an empty band raises ValueError.

    The lag product q[n, m] = z[n+m] conj(z[n-m]) is Hermitian in m, and the
    kernel is real and even in m, so only lags m = 0..L are built and each
    row is one Hermitian real FFT of lags 0..L (``np.fft.hfft``, which gives
    scipy's ``hfft`` bits).  L = (N-1)//2, cut to the lag window's
    half-span; products that index outside the signal are zero.
    Past the Hermitian half, L > (fft_length-1)//2, the lags are folded
    first: lag 0 halved, lags summed modulo ``fft_length`` into p, then
    h[j] = p[j] + conj(p[-j mod fft_length]) for j = 0..fft_length//2.

    Rows are produced in blocks (see ``_in_rows``).  A block builds
    its own lag rows from two strided views of the signal, then tapers,
    folds and transforms them and keeps only the band's bins; only a kernel
    that smooths in time builds the whole N x (L+1) lag product first and
    smooths it with ``_smooth_rows``, scipy's ``fftconvolve`` bits.  The
    blocks fill the returned grid, or with ``scan`` they go to a
    ``_BandReader`` and the band grid's ``_BandScan`` is returned, so no
    grid is built.
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
    fs = x.sample_rate_hz
    freqs = np.arange(fft_length) * fs / (2.0 * fft_length)
    band = _band_indices(freqs, band_hz)
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
    # row i: zp[L+i+m] from windows of zp, conj(zp[L+i-m]) from windows of the
    # reversed conjugate, which start at L+n-1-i
    fwd = sliding_window_view(zp, max_lag + 1)[max_lag : max_lag + n]
    bwd = sliding_window_view(np.conj(zp[::-1]), max_lag + 1)[max_lag : max_lag + n][::-1]
    smoothed = None
    if time_window is not None:
        h = make_window(time_window)
        smoothed = _smooth_rows(fwd * bwd, h / h.sum())
    taper = None
    if freq_window is not None:
        taper = make_window(freq_window)[(freq_window.length_samples - 1) // 2 :][: max_lag + 1]
    fold = max_lag > (fft_length - 1) // 2
    half = np.arange(fft_length // 2 + 1)

    def spectra(at: slice) -> np.ndarray:
        q = fwd[at] * bwd[at] if smoothed is None else smoothed[at]
        if taper is not None:
            q *= taper
        if fold:
            q[:, 0] *= 0.5
            q = np.pad(q, ((0, 0), (0, -(max_lag + 1) % fft_length)))
            q = q.reshape(q.shape[0], -1, fft_length).sum(1)
            q = q[:, half] + np.conj(q[:, -half % fft_length])
        return np.fft.hfft(q, n=fft_length, axis=1)[:, band]

    times = x.start_time_s + np.arange(n) / fs
    meta = {
        "sample_rate_hz": fs,
        "hop_samples": 1,
        "fft_length": int(fft_length),
        "analytic_input": analytic,
        # real inputs fold at fs/4; the grid still spans [0, fs/2)
        "folding_hz": fs / 2.0 if analytic else fs / 4.0,
    }
    meta.update({name: _window_meta(spec) for name, spec in windows.items() if spec is not None})
    reader = _BandReader(times, freqs[band], method, meta) if scan else None
    values = None if scan else np.empty((n, band.stop - band.start))
    # a row's work, 16 bytes a value: its lag row or its spectrum, whichever is longer
    rows = _block_rows(16 * max(fft_length, max_lag + 1))
    _in_rows(n, rows, spectra, reader.add if scan else values.__setitem__)
    return reader.scan() if scan else TFDGrid(times, freqs[band], values, method, meta)


def wvd(
    x: SampledSignal,
    fft_length: int,
    use_analytic: bool = True,
    band_hz: Optional[tuple] = None,
) -> TFDGrid:
    """Wigner-Ville distribution at per-sample time resolution (hop 1).

    The input is replaced by its analytic associate unless ``use_analytic``
    is False; real inputs then fold above a quarter of the sample rate.
    ``band_hz`` keeps only the bins inside it (see the module notes).
    """
    return _wvd_family("wvd", x, fft_length, use_analytic, band_hz=band_hz)


def pwvd(
    x: SampledSignal,
    freq_window: WindowSpec,
    fft_length: int,
    use_analytic: bool = True,
    band_hz: Optional[tuple] = None,
) -> TFDGrid:
    """Pseudo-WVD: the lag product is tapered by ``freq_window`` before the
    DFT, smoothing the distribution along frequency.  ``band_hz`` as in
    ``wvd``."""
    return _wvd_family(
        "pwvd", x, fft_length, use_analytic, freq_window=freq_window, band_hz=band_hz
    )


def spwvd(
    x: SampledSignal,
    time_window: WindowSpec,
    freq_window: WindowSpec,
    fft_length: int,
    use_analytic: bool = True,
    band_hz: Optional[tuple] = None,
) -> TFDGrid:
    """Smoothed pseudo-WVD with a separable kernel.

    The lag product is averaged along time with ``time_window`` (normalized
    to unit sum) and tapered along lag with ``freq_window``.  ``band_hz``
    as in ``wvd``.
    """
    return _wvd_family("spwvd", x, fft_length, use_analytic, time_window, freq_window, band_hz)


def psd_from_tfd(g: TFDGrid) -> PSD:
    """Frequency marginal: mean over time per bin, normalized to unit sum.

    The bins are read through ``_band_magnitudes``, so WVD-family grids
    contribute by absolute value and oscillating cross-terms register as
    power instead of cancelling.
    """
    if g.values.size == 0:
        raise ValueError("empty grid")
    p = _band_magnitudes(g, None).col_sum / g.n_times
    total = p.sum()
    return PSD(g.freqs_hz.copy(), p / total if total else p, all_zero=bool(total == 0))


def resolution_report(g: TFDGrid) -> ResolutionReport:
    """Axis spacings plus Nyquist and folding frequency for a grid, or for
    the ``_BandScan`` of one, stored or not.

    The frequency spacing comes from ``fft_length`` in the meta when it is
    there, so a band grid reports the bits of its full grid; otherwise it is
    the difference of the first two bins.  The folding frequency is the
    meta's ``folding_hz``, which the WVD family writes, and Nyquist when the
    meta has none.
    """
    nfft = g.meta.get("fft_length")
    if g.times_s.size < 2 or (g.freqs_hz.size < 2 and nfft is None):
        raise ValueError("resolution_report needs at least 2 points per axis")
    fs = g.meta.get("sample_rate_hz")
    if fs is None:
        raise ValueError("grid meta lacks sample_rate_hz")
    if nfft is None:
        df = g.freqs_hz[1] - g.freqs_hz[0]
    elif g.method in WVD_METHODS:
        df = fs / (2.0 * nfft)
    else:
        df = fs / nfft
    nyquist = fs / 2.0
    return ResolutionReport(
        temporal_resolution_ms=1000.0 * (g.times_s[1] - g.times_s[0]),
        spectral_resolution_hz=float(df),
        nyquist_hz=nyquist,
        folding_hz=g.meta.get("folding_hz", nyquist),
    )
