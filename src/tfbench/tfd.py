"""Fourier-family time-frequency distributions.

Implements the short-time Fourier transform and the Wigner-Ville family
(raw, pseudo, smoothed-pseudo) on a common grid container, plus the readers
of a grid: frequency marginals (PSD), the ridge and dominant frequency, and
grid-resolution reporting.

Conventions
-----------
* Grid values are indexed ``[time][frequency]``.
* STFT values are squared magnitudes and therefore non-negative; WVD-family
  values are real but may be negative.
* The WVD frequency axis has spacing ``fs / (2 * fft_length)`` because the
  bilinear kernel oscillates at twice the signal frequency in lag.  Real
  (non-analytic) inputs consequently fold above a quarter of the sample
  rate; analytic inputs are clean up to half.
* A WVD-family row is the real DFT of lags 0..L: the lag product is
  Hermitian and the lag kernel even, so the lag DFT is real.  SPWVD's time
  smoothing, ``_smooth_rows``, is a direct sum over the time window's taps,
  within about 1e-15 of scipy's ``fftconvolve``; the module needs numpy
  alone.
* Frames and lag rows are strided views of the signal
  (``sliding_window_view``), so no index array is built to gather them.
* Band DFT.  A short row (PWVD/SPWVD lags under a lag window, PCT's
  windowed frames) takes only its band's bins, as real matrix products
  against one chunk of the DFT matrix (``_band_dft``, ``_dft_rows``), in
  place of an FFT of the whole axis and a slice.  Other rows take an FFT:
  plain WVD's N/2 lags the lag FFT (``_lag_fft_rows``: for an even
  fft_length n one packed complex FFT of n/2 points, two real bins per
  complex output), STFT's 128-tap frames ``np.fft.fft``.  The choice is a pure
  function of the taps and fft_length (the cost rule in ``_band_dft``), so
  a band scan and the full grid take the same path; a frame DFT
  (``_frame_dft``) and a lag DFT, band or FFT (``_lag_dft``), are built
  once per process.  Every product has one shape per
  transform, R rows x 2*taps x at most 128 columns with R and the columns
  at least 2, of at most 2**18 multiply-adds: OpenBLAS runs it on the
  calling thread as one dgemm, and a row's bits depend on neither its
  place in the product nor the other rows.  Chunks start at
  multiples of their width on the full axis and short products are
  zero-padded, so a bin's bits depend on neither the band, the block size
  nor the thread count (of tfbench or of OpenBLAS).  They do depend on the
  BLAS build and the machine: the band DFT's bits differ from the FFT's
  by a few 1e-15 of the grid peak.
* Producers make rows; the caller makes the grid or the band scan.  The
  producers, ``_wvd_family`` (WVD family) and ``_short_time`` (STFT and
  PCT), return a ``_Rows``: the axes, method and meta of the whole grid and
  a function that makes the bins of a band for a block of rows.
  ``_Rows.grid`` stores every bin (the public transforms return it);
  ``_Rows.scan(band_hz)`` makes only the bins with lo <= f <= hi (edges
  included) and reads them into a ``_BandScan``, so no grid is built; an
  empty band raises ValueError.  Those bins, their axis and the meta are
  the full grid's bit for bit.
* One runner, two ``add``s.  ``grid`` and ``scan`` both run the rows in
  blocks of about ``_BLOCK_BYTES`` of work through ``_in_rows``, on up to
  min(4, usable CPUs) threads, the caller's first: a one-block input never
  leaves the calling thread.  Each block goes to one ``add``: the grid's,
  which writes only the block's own rows, or the band scan's (the ``add``
  of ``_Rows.scan``), which keeps per row the argmax (first of equals) and
  the peak and per column the sum over rows.  A band scan
  (``_BandScan``) holds the band's axes, method and meta next to those
  reductions; it reads WVD-family values by magnitude.  A stored grid is
  scanned the same way, as the ``_Rows`` of its values
  (``_band_magnitudes``), for ``psd_from_tfd``, ``extract_ridge`` and
  ``dominant_frequency``.  Those two read the scan through ``_ridge`` and
  ``_dominant``, which PCT's kernel fit and ``compare`` call on scans no
  grid was built for, so the three read a ridge by one rule.
* Column sums: the rows of each of ``_SUM_RANGES`` fixed contiguous row
  ranges are added in order onto that range's running sum, and the ranges
  are added in order at the end, one column as any other.  A worker takes
  whole ranges.  So the sums hold O(k) values for k columns, and their
  bits, like every grid's, depend on neither the block size nor the thread
  count.
"""

from __future__ import annotations

import bisect
import copy
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import IFTrajectory, InsufficientDataError, SampledSignal, WindowSpec
from .core import _fraction, _increasing, _integer, _read_only, _store, analytic_signal
from .core import make_window

WVD_METHODS = ("wvd", "pwvd", "spwvd")

# bytes of one row block's work, small enough to stay in a core's cache
_BLOCK_BYTES = 1 << 19
_MAX_WORKERS = 4
# multiply-adds of one band DFT matrix product: OpenBLAS runs a dgemm of at
# most 65536 x 4 of them on the calling thread alone, whatever its threads
_GEMM_MACS = 1 << 18
# columns of a band DFT matrix: the bins of one chunk, or the real and
# imaginary parts of half as many
_DFT_COLS = 128
# a row takes the band DFT when that costs at most this many times the FFT
# (see _band_dft)
_DFT_COST = 14
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
        _increasing(times, "times_s")
        _increasing(freqs, "freqs_hz")
        _store(self, times_s=times, freqs_hz=freqs, values=values, meta=copy.deepcopy(self.meta))

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
        _store(self, freqs_hz=np.asarray(self.freqs_hz), power=np.asarray(self.power))


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


class _Rows(NamedTuple):
    """A transform's rows, not yet made: its axes (the whole frequency axis),
    method and meta, ``rows(at, band)``, the ``band`` bins of rows ``at`` as
    a block ``add`` may overwrite, and ``row_bytes(band)``, the bytes of work
    of one such row.  ``grid`` stores every bin, ``scan`` reads the bins of
    a band; both run the rows through ``_in_rows`` in blocks of
    ``_block_rows(row_bytes(band))`` rows, and either may be called again
    for the same bits."""

    times_s: np.ndarray
    freqs_hz: np.ndarray
    method: str
    meta: dict
    rows: Callable[[slice, slice], np.ndarray]
    row_bytes: Callable[[slice], int]

    def _run(self, band: slice, add: Callable[[slice, np.ndarray], None]) -> None:
        _in_rows(self.times_s.size, _block_rows(self.row_bytes(band)),
                 lambda at: self.rows(at, band), add)

    def grid(self) -> TFDGrid:
        """The grid of every row and bin."""
        values = np.empty((self.times_s.size, self.freqs_hz.size))
        self._run(slice(0, self.freqs_hz.size), values.__setitem__)
        return TFDGrid(self.times_s, self.freqs_hz, values, self.method, self.meta)

    def scan(self, band_hz: Optional[tuple]) -> _BandScan:
        """The ``_BandScan`` of the bins with lo <= f <= hi (every bin when
        ``band_hz`` is None), read block by block, so no grid is built; an
        empty band raises ValueError.  Its bins are the grid's bit for bit.

        Each block is read by ``add``: per row the argmax (first of equals)
        and the peak, per column the sum over rows.  WVD-family values are
        read by absolute value, so negative lobes count by magnitude; other
        values as they are.  Both are read in the block itself, since the
        magnitudes and the column sums are written into it: ``rows`` hands
        ``add`` blocks it may overwrite.

        Column sums run over ``_SUM_RANGES`` fixed contiguous ranges of rows.
        Each range's rows are added in order onto its running sum, whatever
        blocks they come in (``piece[0] += sum; piece.sum(axis=0, out=sum)``:
        numpy adds a piece whose rows are each contiguous row by row, a band
        DFT block's view of its products as a C-contiguous one), and the ranges
        are added in order at the end (``np.add.accumulate``).  A one-column
        piece is one column numpy would sum pairwise, so it is accumulated too.
        ``_in_rows`` gives each worker whole ranges, so the sums are the same
        bits for any block size and thread count, and they hold
        ``_SUM_RANGES`` rows of k, not one row per block.
        """
        band, n = _band_indices(self.freqs_hz, band_hz), self.times_s.size
        argmax, peak = np.empty(n, dtype=np.intp), np.empty(n)
        edges = [n * r // _SUM_RANGES for r in range(_SUM_RANGES + 1)]
        sums = np.zeros((_SUM_RANGES, band.stop - band.start))

        def add(at: slice, values: np.ndarray) -> None:
            if self.method in WVD_METHODS:
                np.abs(values, out=values)
            argmax[at] = best = values.argmax(axis=1)
            peak[at] = values[np.arange(best.size), best]
            r = bisect.bisect_right(edges, at.start) - 1
            while edges[r] < at.stop:
                piece = values[max(edges[r], at.start) - at.start : edges[r + 1] - at.start]
                if piece.size:
                    piece[0] += sums[r]
                    if piece.shape[1] > 1:
                        piece.sum(axis=0, out=sums[r])
                    else:
                        sums[r, 0] = np.add.accumulate(piece[:, 0])[-1]
                r += 1

        self._run(band, add)
        return _BandScan(self.times_s, self.freqs_hz[band], self.method, self.meta,
                         argmax, peak, np.add.accumulate(sums)[-1])


def _band_magnitudes(g: TFDGrid, band_hz: Optional[tuple]) -> _BandScan:
    """``_Rows.scan`` of a stored grid: WVD-family columns by absolute value,
    in blocks of ``_block_rows(8 * k)`` rows for k band columns, so a block's
    magnitudes stay in cache and no band-sized magnitude array is built."""
    # the scan overwrites its blocks, and the grid's rows are not its own
    return _Rows(g.times_s, g.freqs_hz, g.method, g.meta,
                 lambda at, band: g.values[at, band].copy(),
                 lambda band: 8 * max(band.stop - band.start, 1)).scan(band_hz)


class _BandDFT(NamedTuple):
    """A direct DFT of short rows, taken one column chunk of ``cols`` bins at
    a time (see ``_band_dft`` and ``_dft_rows``)."""

    matrix: np.ndarray  # 2 * taps x (cols, or 2 * cols with ``power``): bins 0..cols-1
    phases: np.ndarray  # chunks of the axis x taps: chunk j's exp(-2j*pi*j*cols*m/n)
    cols: int
    rows: int  # rows of every matrix product
    power: bool


def _band_dft(weights: np.ndarray, fft_length: int, power: bool) -> Optional[_BandDFT]:
    """The band DFT of rows of ``weights.size`` complex inputs u, or None
    where the FFT costs less.

    With ``power``, bin b of a row is |sum_t w_t u_t exp(-2j*pi*b*t/n)|^2, on
    the n//2 + 1 bins of [0, fs/2] (a frame and its window taps); without,
    it is sum_m w_m Re(u_m exp(-2j*pi*b*m/n)), on the n bins of [0, fs/2)
    (lags 0..L with the lag taper and the Hermitian weights 1, 2, 2, ...,
    the row ``_lag_fft_rows`` makes by FFT, lags past n included).
    n = fft_length.

    ``matrix`` holds bins 0..cols-1 with the weights built in, rows
    interleaved as a complex row viewed as floats: row 2m takes Re u_m, row
    2m+1 takes Im u_m; with ``power`` its first cols columns give Re and the
    next cols Im of each bin.  Chunk j, bins j*cols..(j+1)*cols-1, is the
    same matrix applied to u_m * ``phases[j, m]``, so only taps x cols of
    matrix is held.  Each product is ``rows`` x 2*taps x matrix columns,
    at most ``_GEMM_MACS`` multiply-adds, so it is a dgemm on the calling
    thread, and a row's bits depend on neither its place in the product
    nor the other rows in it.

    Cost rule: the band DFT is taken when its multiply-adds over the whole
    axis, 2*taps per real output (n outputs, or 2*(n//2 + 1) with
    ``power``), are at most ``_DFT_COST`` times n*log2(n) (a complex FFT),
    or half that without ``power`` (the packed lag FFT, one complex FFT of
    n/2 points), and its products have at least 2 rows and 2 columns.
    Per row on one thread of a 2-vCPU AVX-512 Xeon (OpenBLAS 0.3.31), the
    band DFT of the whole axis took, of the FFT's time: against the complex
    FFT (medians of 25 interleaved blocks), 0.73 at 12.8 by the rule (PCT's
    64-tap frames at n = 1024) and 1.19 at 16.1 (64-tap frames at
    n = 256); against the packed lag FFT (medians of 41 interleaved passes
    over 1280 rows, three runs), 0.80-0.89 at 9.8 and 0.73-0.77 at 11.6
    (SPWVD's 32 lags at n = 8192 and 2048), 4.0-4.3 at 58 (plain WVD's 160
    lags at n = 2048) and 18 at 197 (its 640 lags at n = 8192, in
    products past ``_GEMM_MACS``).  Over compare's bands PCT took 0.66
    (241 bins) and SPWVD 0.40-0.44 (3841 bins).  So the crossover sits
    near 12-15 by the rule on both sides: plain WVD's lags and STFT's
    128-tap frames (28.6 at n = 512) stay on the FFT.  The rule reads the
    whole axis, not the band, so a band scan reads the full grid's columns
    bit for bit."""
    n, taps = fft_length, weights.size
    bins = n // 2 + 1 if power else n
    outputs, fft_cost = (2 * bins, n * np.log2(n)) if power else (bins, n * np.log2(n) / 2)
    cols = min(_DFT_COLS // 2 if power else _DFT_COLS, bins)
    width = 2 * cols if power else cols
    rows = _GEMM_MACS // (2 * taps * width)
    if 2 * taps * outputs > _DFT_COST * fft_cost or min(rows, cols) < 2:
        return None
    lags = np.arange(taps)[:, None]
    angle = (2 * np.pi / n) * (lags * np.arange(cols) % n)
    cos, sin = weights[:, None] * np.cos(angle), weights[:, None] * np.sin(angle)
    matrix = np.empty((2 * taps, width))
    matrix[0::2, :cols], matrix[1::2, :cols] = cos, sin
    if power:
        matrix[0::2, cols:], matrix[1::2, cols:] = -sin, cos
    chunks = np.arange(-(-bins // cols))[:, None]
    phases = np.exp((-2j * np.pi / n) * (chunks * cols * lags.T % n))
    return _BandDFT(_read_only(matrix), _read_only(phases), cols, rows, power)


def _dft_row_bytes(dft: _BandDFT, band: slice) -> int:
    """Bytes of work of one row of ``_dft_rows``: its inputs moved to each
    chunk of the band and their products."""
    chunks = -(-band.stop // dft.cols) - band.start // dft.cols
    return 8 * chunks * sum(dft.matrix.shape)


def _dft_rows(u: np.ndarray, dft: _BandDFT, band: slice) -> np.ndarray:
    """The ``band`` bins of each row of ``u`` under ``dft``: a rows x band
    bins view whose rows are contiguous.

    Only the chunks that hold band bins are computed, chunk j always as
    bins j*cols..(j+1)*cols-1, so a bin's bits depend on neither the band
    nor the rows around it.  The rows moved to each chunk are stacked and
    zero-padded to whole products of ``dft.rows`` rows; one batched
    ``np.matmul`` multiplies each product by the one matrix, one dgemm
    call each."""
    first = band.start // dft.cols
    phases = dft.phases[first : -(-band.stop // dft.cols)]
    n_rows, taps = u.shape[0], phases.shape[1]
    stacked = n_rows * phases.shape[0]
    padded = -(-stacked // dft.rows) * dft.rows
    moved = np.empty((padded, taps), dtype=np.complex128)
    np.multiply(u[:, None, :], phases, out=moved[:stacked].reshape(n_rows, -1, taps))
    moved[stacked:] = 0.0
    out = np.matmul(moved.view(np.float64).reshape(-1, dft.rows, 2 * taps), dft.matrix)
    del moved
    out = out.reshape(padded, -1)[:stacked]
    if dft.power:
        power = np.square(out[:, : dft.cols])
        power += np.square(out[:, dft.cols :])
        out = power
    lo = band.start - first * dft.cols
    return out.reshape(n_rows, -1)[:, lo : lo + band.stop - band.start]


@functools.lru_cache(maxsize=8)
def _frame_dft(window: WindowSpec, fft_length: int) -> Optional[_BandDFT]:
    """``_band_dft`` of frames windowed by ``window``, built once per process
    for each (window, fft_length): None where the FFT costs less."""
    return _band_dft(make_window(window), fft_length, power=True)


def _short_time_checks(window: WindowSpec, hop_samples: int, fft_length: int) -> None:
    """The checks of ``_short_time``'s parameters that read no samples."""
    _integer(hop_samples, "hop_samples", 1)
    if window.length_samples > _integer(fft_length, "fft_length"):
        raise ValueError("window must not be longer than fft_length")


def _short_time(
    method: str,
    x: SampledSignal,
    window: WindowSpec,
    hop_samples: int,
    fft_length: int,
    shift_hz=None,
    **meta,
) -> _Rows:
    """The framing ``stft`` documents, as the rows of a grid named ``method``.

    ``shift_hz`` maps frame centers to Hz; when given, frame k is multiplied
    by exp(2j*pi*shift_hz(center_k)*t) at its sample times t before
    windowing.  ``meta`` adds or overrides grid meta keys.

    A block of rows (see ``_Rows``) takes its frames as rows of a strided
    view of the samples, every ``hop_samples``-th window, and shifts them
    (their sample times are the same view of ``x.times()``), then
    either takes the band DFT of the asked bins (``_dft_rows`` under
    ``_frame_dft``, the window taps in its matrix; PCT's 64-tap frames at
    fft_length 1024) or windows them, takes their FFT and keeps |.|^2 of the
    asked bins (STFT's 128-tap frames), by ``_band_dft``'s cost rule.  So no
    all-frames x fft_length spectrum is built.  A block holds 16 *
    fft_length bytes of work per frame on the FFT path and
    ``_dft_row_bytes`` on the band DFT's.  Frames that fit in one block, as
    those of ``compare``'s STFT of a 1 s record do, are transformed on the
    calling thread.
    """
    _short_time_checks(window, hop_samples, fft_length)
    wlen = window.length_samples
    if wlen > len(x):
        raise ValueError(f"window ({wlen}) longer than signal ({len(x)})")
    fs = x.sample_rate_hz
    freqs = np.arange(fft_length // 2 + 1) * fs / fft_length
    starts = np.arange(0, len(x) - wlen + 1, hop_samples)
    times = x.start_time_s + (starts + (wlen - 1) / 2.0) / fs
    taps = make_window(window)
    dft = _frame_dft(window, fft_length)
    shift_at = shift_hz(times) if shift_hz is not None else None
    all_frames = sliding_window_view(x.samples, wlen)[::hop_samples]
    frame_times = sliding_window_view(x.times(), wlen)[::hop_samples]

    def power(at: slice, band: slice) -> np.ndarray:
        frames = all_frames[at]
        if shift_at is not None:
            # not frames * shift: numpy may reuse the temporary and compute
            # shift * frames, which rounds differently on large grids
            frames = np.multiply(frames, np.exp(2j * np.pi * shift_at[at, None] * frame_times[at]))
        if dft is not None:
            return _dft_rows(frames, dft, band)
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
    def row_bytes(band: slice) -> int:
        return 16 * fft_length if dft is None else _dft_row_bytes(dft, band)

    return _Rows(times, freqs, method, meta, power, row_bytes)


def stft(x: SampledSignal, window: WindowSpec, hop_samples: int, fft_length: int) -> TFDGrid:
    """Short-time Fourier transform, squared magnitudes.

    Frame k covers samples ``[k*hop, k*hop + window length)``; each frame is
    windowed, zero-padded to ``fft_length`` and transformed.  The time stamp
    of a frame is the center of its window.
    """
    return _short_time("stft", x, window, hop_samples, fft_length).grid()


def _window_meta(spec: WindowSpec) -> dict:
    meta = {"kind": spec.kind, "length_samples": spec.length_samples}
    if spec.kind == "gaussian":
        meta["alpha"] = spec.alpha
    if spec.periodic:
        meta["periodic"] = True
    return meta


def _smooth_rows(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``fftconvolve(q, h[:, None], mode="same", axes=0)`` for complex ``q``
    and odd-length real ``h``, as a direct sum: row i is
    sum_k h_k q[i + half - k], half = (h.size - 1)//2, rows outside q zero.
    The terms are added in ascending k into one zeroed buffer, each onto
    the rows it reaches, so q is not copied and at most one temporary is
    live.  With SPWVD's unit-sum time window it lies within about 1e-15 of
    max |fftconvolve|."""
    n, half = q.shape[0], (h.size - 1) // 2
    out = np.zeros_like(q)
    for k in range(h.size):
        lo, hi = max(0, k - half), min(n, n + k - half)
        if lo < hi:
            out[lo:hi] += q[lo + half - k : hi + half - k] * h[k]
    return out


class _LagFFT(NamedTuple):
    """The real DFT of rows of lags by one complex FFT (see ``_lag_dft``)."""

    ahead: np.ndarray  # per lag m: the coefficient of q_m, added at m mod period
    back: np.ndarray  # per lag m: that of conj(q_m), added at -m mod period
    period: int  # n/2 for even n (the packed FFT), n for odd
    packed: bool  # even n: bins 2j and 2j+1 are bin j's real and imaginary parts


@functools.lru_cache(maxsize=16)
def _lag_dft(lags: int, freq_window: Optional[WindowSpec], fft_length: int) -> _BandDFT | _LagFFT:
    """The DFT of WVD-family rows of lags 0..lags-1 tapered by
    ``freq_window``, built once per process for each (lags, freq_window,
    fft_length), its arrays read-only: ``_band_dft``'s where its cost rule
    takes the band DFT, else a ``_LagFFT`` for ``_lag_fft_rows``.

    Bin b of a row q is r[b] = sum_m w_m Re(q_m e^(b*m)) with e = exp(-2j*pi/n),
    n = fft_length and w the Hermitian weights 1, 2, 2, ... times the lag
    taper.  r is the DFT of the Hermitian h = (a + c)/2, a_m = w_m q_m and
    c_(-m) = conj(a_m), indices modulo n.  For even n, with M = n/2, bins 2j
    and 2j+1 are the real and imaginary parts of bin j of the length-M FFT
    of d[k] = sum over p = k mod M of h_p (1 + i e^p) (Sorensen et al.,
    "Real-valued fast Fourier transform algorithms", 1987): q_m times
    ``ahead`` = w_m (1 + i e^m)/2 lands at m mod M, and conj(q_m) times
    ``back`` = w_m (1 + i e^-m)/2 at -m mod M, so lags past M wrap in the
    same sum.  For odd n, r is the length-n FFT of h itself, which is real:
    ``ahead`` = ``back`` = w_m/2, q_m added at m mod n and conj(q_m) at
    -m mod n, and r is the real part of the FFT."""
    weights = np.full(lags, 2.0)
    weights[0] = 1.0
    if freq_window is not None:
        weights *= make_window(freq_window)[(freq_window.length_samples - 1) // 2 :][:lags]
    dft = _band_dft(weights, fft_length, power=False)
    return dft if dft is not None else _lag_fft(weights, fft_length)


def _lag_fft(weights: np.ndarray, n: int) -> _LagFFT:
    """``_lag_dft``'s FFT of rows of lags 0..weights.size-1 at fft_length n:
    the pre-twiddled coefficients of the packed FFT for even n, and for odd
    n ``ahead`` = ``back`` = w/2 over a period of n."""
    half = _read_only(0.5 * weights)
    if n % 2:
        return _LagFFT(half, half, n, False)
    e = np.exp((-2j * np.pi / n) * (np.arange(weights.size) % n))
    return _LagFFT(_read_only(half * (1 + 1j * e)), _read_only(half * (1 + 1j * np.conj(e))),
                   n // 2, True)


def _lag_fft_rows(q: np.ndarray, fft: _LagFFT, band: slice) -> np.ndarray:
    """The ``band`` bins of each row of lags ``q`` under ``fft``, a rows x
    band bins array whose rows are contiguous; ``q`` is not written.

    Each row's lags are multiplied by their coefficients in one piece
    (numpy's complex product rounds differently in its vector loop and its
    scalar tail, so a product split across rows would make a row's bits
    depend on its block), q_m times ``ahead`` and conj(q_m) times ``back``
    are added into a zeroed rows x period complex block one period of lags
    at a time, at m and -m modulo the period, and the block takes one
    in-place FFT per row.  For even n the bins are the block viewed as
    floats, for odd n its real part."""
    period, lags = fft.period, q.shape[1]
    ahead = q * fft.ahead
    back = np.conj(q)
    back *= fft.back
    d = np.zeros((q.shape[0], period), dtype=np.complex128)
    for lo in range(0, lags, period):
        k = min(period, lags - lo)
        d[:, :k] += ahead[:, lo : lo + k]
        d[:, 0] += back[:, lo]
        d[:, period - 1 : period - k : -1] += back[:, lo + 1 : lo + k]  # lag lo + m at -m
    del ahead, back
    np.fft.fft(d, axis=1, out=d)
    if fft.packed:
        return d.view(np.float64)[:, band]
    return d.real[:, band].copy()


def _wvd_checks(fft_length: Optional[int], time_window: Optional[WindowSpec],
                freq_window: Optional[WindowSpec]) -> None:
    """The checks of ``_wvd_family``'s parameters that read no samples; an
    ``fft_length`` of None, one still to be chosen from the signal, passes."""
    if fft_length is not None:
        _integer(fft_length, "fft_length", 1)
    for name, spec in (("time_window", time_window), ("freq_window", freq_window)):
        if spec is not None and spec.length_samples % 2 == 0:
            raise ValueError(f"{name} length must be odd")
    if freq_window is not None and freq_window.periodic:
        raise ValueError("freq_window must be symmetric: a periodic lag window is not even "
                         "and would make the distribution complex")


def _wvd_family(
    method: str,
    x: SampledSignal,
    fft_length: int,
    use_analytic: bool,
    time_window: Optional[WindowSpec] = None,
    freq_window: Optional[WindowSpec] = None,
) -> _Rows:
    """The rows of a separable-kernel WVD: time smoothing ``time_window``,
    lag taper ``freq_window``; either may be absent.

    The lag product q[n, m] = z[n+m] conj(z[n-m]) is Hermitian in m, and the
    kernel is real and even in m, so only lags m = 0..L are built and bin b
    of row n is sum_m w_m g_m Re(q[n, m] exp(-2j*pi*b*m/fft_length)), with
    the Hermitian weights w = 1, 2, 2, ... and the lag taper g.  L = (N-1)//2,
    cut to the lag window's half-span; products that index outside the
    signal are zero.  Where ``_band_dft``'s cost rule allows (PWVD's and
    SPWVD's 32 lags at fft_length 2048 and 8192), a row takes that sum for
    the band's bins only, w and g built into the matrix (``_dft_rows``).
    Otherwise (plain WVD) it takes the lag FFT (``_lag_fft_rows``): for
    even fft_length n, bins 2j and 2j+1 are the real and imaginary parts
    of bin j of one n/2-point complex FFT of the lags times pre-twiddled
    w g, lags past n/2 wrapped into the same sum; for odd n (only a
    user-set fft_length), the real part of one n-point FFT of the
    Hermitian lag sequence, lags m and their conjugates at -m times w g / 2,
    wrapped modulo n.  Either DFT is built once per process for
    (L+1, lag window, fft_length) (``_lag_dft``), and neither writes the
    lag rows, so a smoothed product is read in place.

    Rows are made in blocks (see ``_Rows``), of 512 KiB of lag rows or
    packed FFT rows, 16 bytes a complex value, whichever is longer, on the
    FFT path and of moved rows and products on the band DFT's
    (``_dft_row_bytes``).  A block builds its own lag rows from two
    strided views of the signal and transforms them; only a kernel that
    smooths in time builds the whole N x (L+1) lag product first, here, and
    smooths it with ``_smooth_rows``, a direct sum over the unit-sum time
    window's taps.  Smoothing the whole product in one pass takes about
    2 ms at N = 1280; smoothing each block with a halo of the window made a
    band scan slower, since its small blocks rebuild many halo rows in many
    short numpy calls.
    """
    if len(x) < 4:
        raise ValueError(f"{method} needs at least 4 samples")
    _wvd_checks(fft_length, time_window, freq_window)
    fs = x.sample_rate_hz
    freqs = np.arange(fft_length) * fs / (2.0 * fft_length)
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
    dft = _lag_dft(max_lag + 1, freq_window, fft_length)
    band_dft = isinstance(dft, _BandDFT)

    def spectra(at: slice, band: slice) -> np.ndarray:
        q = fwd[at] * bwd[at] if smoothed is None else smoothed[at]
        return _dft_rows(q, dft, band) if band_dft else _lag_fft_rows(q, dft, band)

    times = x.start_time_s + np.arange(n) / fs
    meta = {
        "sample_rate_hz": fs,
        "hop_samples": 1,
        "fft_length": int(fft_length),
        "analytic_input": analytic,
        # real inputs fold at fs/4; the grid still spans [0, fs/2)
        "folding_hz": fs / 2.0 if analytic else fs / 4.0,
    }
    windows = {"time_window": time_window, "freq_window": freq_window}
    meta.update({name: _window_meta(spec) for name, spec in windows.items() if spec is not None})

    def row_bytes(band: slice) -> int:
        # on the FFT path, 16 bytes a complex value: a row's lag row or its
        # packed block, whichever is longer
        return _dft_row_bytes(dft, band) if band_dft else 16 * max(dft.period, max_lag + 1)

    return _Rows(times, freqs, method, meta, spectra, row_bytes)


def wvd(x: SampledSignal, fft_length: int, use_analytic: bool = True) -> TFDGrid:
    """Wigner-Ville distribution at per-sample time resolution (hop 1).

    The input is replaced by its analytic associate unless ``use_analytic``
    is False; real inputs then fold above a quarter of the sample rate.
    """
    return _wvd_family("wvd", x, fft_length, use_analytic).grid()


def pwvd(
    x: SampledSignal, freq_window: WindowSpec, fft_length: int, use_analytic: bool = True
) -> TFDGrid:
    """Pseudo-WVD: the lag product is tapered by ``freq_window`` before the
    DFT, smoothing the distribution along frequency."""
    return _wvd_family("pwvd", x, fft_length, use_analytic, freq_window=freq_window).grid()


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
    return _wvd_family("spwvd", x, fft_length, use_analytic, time_window, freq_window).grid()


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
    _fraction(amp_threshold_frac, "amp_threshold_frac")
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


def resolution_report(g: TFDGrid) -> ResolutionReport:
    """Axis spacings plus Nyquist and folding frequency for a grid, or for
    the ``_BandScan`` of one, stored or not.

    The frequency spacing comes from ``fft_length`` in the meta when it is
    there, so a band scan reports the bits of its full grid; otherwise it is
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
