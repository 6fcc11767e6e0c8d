from dataclasses import replace
from unittest import mock

import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from tfbench import pct, tfd
from tfbench.core import SampledSignal, WindowSpec, analytic_signal, make_window
from tfbench.evaluate import METHODS, CompareConfig, _scan_method, default_config
from tfbench.io import grid_meta_dict, write_json
from tfbench.pct import PCTConfig, PolynomialKernel, pct_transform
from tfbench.synth import gen_x1, gen_x2
from tfbench.tfd import (
    TFDGrid,
    next_pow2,
    psd_from_tfd,
    pwvd,
    resolution_report,
    spwvd,
    stft,
    wvd,
)


def analytic_tone(freq_hz, fs, n, amp=1.0):
    t = np.arange(n) / fs
    return SampledSignal(amp * np.exp(2j * np.pi * freq_hz * t), fs)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(320) == 512
    assert next_pow2(1024) == 1024
    assert next_pow2(1280) == 2048


def test_tfd_grid_validation():
    with pytest.raises(ValueError):
        TFDGrid([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)), "stft")
    with pytest.raises(ValueError):
        TFDGrid([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)), "stft")
    with pytest.raises(ValueError):
        TFDGrid([0.0, 1.0], [1.0, 1.0], np.zeros((2, 2)), "stft")


def test_tfd_grid_keeps_its_own_meta():
    meta = {"sample_rate_hz": 10.0}
    g = TFDGrid(np.arange(2.0), np.arange(3.0), np.zeros((2, 3)), "stft", meta)
    meta["sample_rate_hz"] = 20.0
    meta["warnings"] = ["added later"]
    assert g.meta == {"sample_rate_hz": 10.0}


def test_tfd_grid_copies_nested_meta():
    g = stft(analytic_tone(20.0, 320.0, 64), WindowSpec("hann", 15), 4, 64)
    g2 = replace(g, meta={**g.meta, "x": 1})
    g2.meta["window"]["kind"] = "bogus"
    assert g.meta["window"]["kind"] == "hann"


def test_tfd_grid_arrays_are_read_only():
    g = TFDGrid(np.arange(2.0), np.arange(3.0), np.zeros((2, 3)), "stft")
    for name in ("times_s", "freqs_hz", "values"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1.0


def test_stft_grid_axes():
    sig = SampledSignal(np.zeros(320), 320.0)
    g = stft(sig, WindowSpec("hann", 128), 4, 512)
    # frame center of the first window: (128-1)/2 samples in
    assert g.times_s[0] == pytest.approx(63.5 / 320.0)
    assert np.all(np.diff(g.times_s) == pytest.approx(4 / 320.0))
    assert g.freqs_hz[1] - g.freqs_hz[0] == pytest.approx(0.625)
    assert g.freqs_hz[-1] == pytest.approx(160.0)
    assert g.n_times == 49
    assert g.values.shape == (49, 257)
    assert g.method == "stft"
    assert g.meta["analytic_input"] is False


def test_stft_tone_ridge_and_peak_level():
    z = analytic_tone(40.0, 320.0, 320)
    spec = WindowSpec("hann", 128)
    g = stft(z, spec, 4, 512)
    ridge = g.freqs_hz[np.argmax(g.values, axis=1)]
    np.testing.assert_array_equal(ridge, 40.0)
    # on-bin analytic tone: frame peak equals (sum of window)^2
    wsum = make_window(spec).sum()
    np.testing.assert_allclose(np.max(g.values, axis=1), wsum**2, rtol=1e-9)


def test_stft_respects_start_time():
    x = SampledSignal(np.random.default_rng(0).normal(size=256), 128.0)
    y = SampledSignal(x.samples, 128.0, start_time_s=2.0)
    gx = stft(x, WindowSpec("hann", 64), 8, 128)
    gy = stft(y, WindowSpec("hann", 64), 8, 128)
    np.testing.assert_allclose(gy.times_s, gx.times_s + 2.0, atol=1e-12)
    np.testing.assert_array_equal(gy.values, gx.values)


def test_stft_validation():
    sig = SampledSignal(np.zeros(100), 100.0)
    with pytest.raises(ValueError):
        stft(sig, WindowSpec("hann", 128), 4, 512)  # window longer than signal
    with pytest.raises(ValueError):
        stft(sig, WindowSpec("hann", 64), 0, 128)
    with pytest.raises(ValueError):
        stft(sig, WindowSpec("hann", 64), 4, 32)  # window longer than fft
    for hop in (2.5, 4.0, True):
        with pytest.raises(ValueError, match="hop_samples must be an integer"):
            stft(sig, WindowSpec("hann", 64), hop, 128)
    for nfft in (512.0, 128.5, True):
        with pytest.raises(ValueError, match="fft_length must be an integer"):
            stft(sig, WindowSpec("hann", 1), 4, nfft)


def test_window_spec_stores_a_numpy_integer_length_as_int(tmp_path):
    """A numpy integer length is accepted and stored as ``int``, so a grid's
    meta, which carries the window, writes as JSON."""
    spec = WindowSpec("hann", np.int64(64))
    assert type(spec.length_samples) is int and spec == WindowSpec("hann", 64)
    x = SampledSignal(np.random.default_rng(0).normal(size=256), 128.0)
    g = stft(x, spec, np.int64(8), np.int64(128))
    assert g.meta["window"]["length_samples"] == 64
    write_json(tmp_path / "meta.json", grid_meta_dict(g))
    assert json.loads((tmp_path / "meta.json").read_text())["meta"]["window"] == {
        "kind": "hann", "length_samples": 64}


def _stft_whole(x, window, hop, nfft):
    """The STFT as one FFT over every frame, without row blocks."""
    wlen = window.length_samples
    starts = np.arange(0, len(x) - wlen + 1, hop)
    frames = x.samples[starts[:, None] + np.arange(wlen)[None, :]]
    spectra = np.fft.fft(frames * make_window(window)[None, :], n=nfft, axis=1)
    return np.abs(spectra[:, : nfft // 2 + 1]) ** 2


@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("hop", [1, 3])
@pytest.mark.parametrize("workers, rows", [(1, None), (3, None), (3, 1), (3, 7), (1, 7)])
def test_stft_grid_does_not_depend_on_thread_count(analytic, hop, workers, rows):
    """Serial, pooled, one-row and 7-row blocks give the unblocked grid bit
    for bit.  The frame counts, 101 at hop 1 and 34 at hop 3, leave a short
    last block for 7 rows; the budget's rows (``rows=None``) hold every frame
    in one block, which runs on the calling thread."""
    x = SampledSignal(np.random.default_rng(3).normal(size=164), 100.0, start_time_s=0.25)
    x = analytic_signal(x) if analytic else x
    window, nfft = WindowSpec("hann", 64), 256
    n_frames = len(range(0, len(x) - 63, hop))
    real_fft, threads = np.fft.fft, set()

    def fft(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real_fft(*args, **kwargs)

    budget = tfd._BLOCK_BYTES if rows is None else rows * 16 * nfft
    with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
        tfd, "_BLOCK_BYTES", budget
    ), mock.patch.object(tfd.np.fft, "fft", fft):
        block_rows = tfd._block_rows(16 * nfft)
        got = stft(x, window, hop, nfft)
    assert rows is not None or block_rows >= n_frames
    assert any(name.startswith("tfbench") for name in threads) == (
        workers > 1 and block_rows < n_frames
    )
    assert np.array_equal(got.values, _stft_whole(x, window, hop, nfft))
    assert np.array_equal(got.freqs_hz, np.arange(nfft // 2 + 1) * 100.0 / nfft)


def test_wvd_time_marginal_identity():
    """Summing a WVD row over frequency gives nfft * |z[n]|^2 exactly."""
    rng = np.random.default_rng(3)
    z = SampledSignal(rng.normal(size=64) + 1j * rng.normal(size=64), 64.0)
    g = wvd(z, 128)
    marginal = g.values.sum(axis=1)
    expected = 128 * np.abs(z.samples) ** 2
    np.testing.assert_allclose(marginal, expected, rtol=1e-10, atol=1e-10)


def test_wvd_tone_concentration():
    z = analytic_tone(80.0, 320.0, 128)
    g = wvd(z, 64)
    # axis spans [0, fs/2) in steps of fs/(2*nfft)
    assert g.freqs_hz[1] - g.freqs_hz[0] == pytest.approx(2.5)
    assert g.freqs_hz[-1] == pytest.approx(157.5)
    ridge = g.freqs_hz[np.argmax(g.values, axis=1)]
    interior = slice(32, -32)
    np.testing.assert_array_equal(ridge[interior], 80.0)
    assert g.meta["folding_hz"] == pytest.approx(160.0)
    assert g.meta["hop_samples"] == 1


def test_wvd_real_input_folding_meta():
    t = np.arange(128) / 320.0
    x = SampledSignal(np.cos(2 * np.pi * 60.0 * t), 320.0)
    g = wvd(x, 128, use_analytic=False)
    assert g.meta["analytic_input"] is False
    assert g.meta["folding_hz"] == pytest.approx(80.0)
    g2 = wvd(x, 128)  # analytic conversion on by default
    assert g2.meta["analytic_input"] is True
    assert g2.meta["folding_hz"] == pytest.approx(160.0)


def test_wvd_validation():
    with pytest.raises(ValueError):
        wvd(SampledSignal(np.ones(3), 8.0), 16)
    with pytest.raises(ValueError):
        wvd(SampledSignal(np.ones(16), 8.0), 0)
    for nfft in (512.5, 512.0, True):
        with pytest.raises(ValueError, match="fft_length must be an integer"):
            wvd(SampledSignal(np.ones(16), 8.0), nfft)


def test_pwvd_rectangular_taper_equals_wvd():
    rng = np.random.default_rng(9)
    z = SampledSignal(rng.normal(size=64) + 1j * rng.normal(size=64), 64.0)
    full_span = WindowSpec("rectangular", 63)  # covers every lag, M = 31
    a = pwvd(z, full_span, 128)
    b = wvd(z, 128)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12 * np.abs(b.values).max())


def test_pwvd_rejects_even_window():
    z = analytic_tone(10.0, 64.0, 64)
    with pytest.raises(ValueError):
        pwvd(z, WindowSpec("hann", 32), 128)


def test_wvd_family_rejects_periodic_lag_window():
    z = analytic_tone(10.0, 64.0, 64)
    periodic = WindowSpec("hann", 21, periodic=True)
    with pytest.raises(ValueError, match="freq_window"):
        pwvd(z, periodic, 128)
    with pytest.raises(ValueError, match="freq_window"):
        spwvd(z, WindowSpec("hann", 11), periodic, 128)
    # the time window only averages real weights, so periodic stays allowed
    g = spwvd(z, WindowSpec("hann", 11, periodic=True), WindowSpec("hann", 21), 128)
    assert g.meta["time_window"]["periodic"] is True


def _double_sum_wvd(z, nfft, time_window=None, freq_window=None):
    """W[n,k] = sum over |m| <= (N-1)//2 of (h*q)[n,m] g[m] exp(-j2pi km/nfft),
    with every term spelled out: q[n,m] = z[n+m] conj(z[n-m]), zero outside
    the record; h is the unit-sum time window, g the lag window (0 beyond its
    half-span).  Returned complex, so a non-real result shows."""
    n = z.size
    lags = np.arange(-((n - 1) // 2), (n - 1) // 2 + 1)
    q = np.zeros((n, lags.size), dtype=complex)
    for i in range(n):
        for j, m in enumerate(lags):
            if 0 <= i + m < n and 0 <= i - m < n:
                q[i, j] = z[i + m] * np.conj(z[i - m])
    if time_window is not None:
        h = make_window(time_window)
        h = h / h.sum()
        c = h.size // 2
        smoothed = np.zeros_like(q)
        for i in range(n):
            for k, w in enumerate(h):
                if 0 <= i + c - k < n:
                    smoothed[i] += w * q[i + c - k]
        q = smoothed
    g = np.ones(lags.size)
    if freq_window is not None:
        w, half = make_window(freq_window), freq_window.length_samples // 2
        g = np.array([w[half + m] if abs(m) <= half else 0.0 for m in lags])
    dft = np.exp(-2j * np.pi * np.outer(lags, np.arange(nfft)) / nfft)
    return (q * g) @ dft


# nfft 5 and 128 lie below and above every lag count used; 2L-1, 2L (lags
# folded) and 2L+1, 2L+2 (none folded) straddle the Hermitian half of
# L = (n-1)//2, and 13..16 that of the 15-tap lag window's L = 7
@pytest.mark.parametrize(
    "nfft, n",
    [(k, 33) for k in (5, 13, 14, 15, 16, 31, 32, 33, 34, 128)]
    + [(k, 64) for k in (5, 61, 62, 63, 64, 128)],
)
@pytest.mark.parametrize("method", ["wvd", "pwvd", "spwvd", "spwvd-periodic"])
def test_wvd_family_matches_double_sum(n, nfft, method):
    """A periodic time window is not symmetric, so it shows a time
    convolution run the wrong way round."""
    rng = np.random.default_rng(n)
    z = SampledSignal(rng.normal(size=n) + 1j * rng.normal(size=n), 64.0)
    tw = WindowSpec("hamming", 9, periodic=method == "spwvd-periodic")
    fw = WindowSpec("gaussian", 15)
    if method == "wvd":
        got, want = wvd(z, nfft), _double_sum_wvd(z.samples, nfft)
    elif method == "pwvd":
        got, want = pwvd(z, fw, nfft), _double_sum_wvd(z.samples, nfft, freq_window=fw)
    else:
        got, want = spwvd(z, tw, fw, nfft), _double_sum_wvd(z.samples, nfft, tw, fw)
    assert got.values.shape == (n, nfft)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_spwvd_degenerate_equals_wvd():
    rng = np.random.default_rng(1)
    z = SampledSignal(rng.normal(size=64) + 1j * rng.normal(size=64), 64.0)
    a = spwvd(z, WindowSpec("hann", 1), WindowSpec("rectangular", 63), 128)
    b = wvd(z, 128)
    np.testing.assert_allclose(a.values, b.values, atol=1e-9 * np.abs(b.values).max())


@pytest.mark.parametrize("n", [4, 100, 320, 1280, 1281])
@pytest.mark.parametrize("w", [1, 7, 31, 63])
def test_time_smoothing_equals_scipy_fftconvolve(n, w):
    """SPWVD's time smoothing, a direct sum, lies within 1e-14 of max
    |fftconvolve| of scipy's FFT convolution, for lag products as wide as
    the signal's Hermitian half, windows longer than the signal, and a
    periodic window, which is not symmetric."""
    rng = np.random.default_rng(n + w)
    q = rng.normal(size=(n, min(n // 2, 160))) + 1j * rng.normal(size=(n, min(n // 2, 160)))
    for spec in (WindowSpec("hamming", w), WindowSpec("gaussian", w),
                 WindowSpec("hann", w, periodic=True)):
        h = make_window(spec)
        h = h / h.sum()
        want = fftconvolve(q, h[:, None], mode="same", axes=0)
        got = tfd._smooth_rows(q, h)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_spwvd_suppresses_cross_term():
    fs, n = 320.0, 256
    t = np.arange(n) / fs
    z = SampledSignal(np.exp(2j * np.pi * 20 * t) + np.exp(2j * np.pi * 40 * t), fs)
    raw = wvd(z, 512)
    smooth = spwvd(z, WindowSpec("hann", 31), WindowSpec("hann", 63), 512)
    mid = np.argmin(np.abs(raw.freqs_hz - 30.0))
    interior = slice(n // 4, -n // 4)
    raw_cross = np.abs(raw.values[interior, mid]).mean()
    smooth_cross = np.abs(smooth.values[interior, mid]).mean()
    # normalize by each grid's own peak before comparing
    raw_cross /= np.abs(raw.values[interior]).max()
    smooth_cross /= np.abs(smooth.values[interior]).max()
    assert smooth_cross < 0.2 * raw_cross


def test_spwvd_window_meta():
    z = analytic_tone(20.0, 320.0, 64)
    g = spwvd(z, WindowSpec("hann", 11), WindowSpec("hann", 21), 128)
    assert g.method == "spwvd"
    assert g.meta["time_window"]["length_samples"] == 11
    assert g.meta["freq_window"]["length_samples"] == 21
    with pytest.raises(ValueError):
        spwvd(z, WindowSpec("hann", 10), WindowSpec("hann", 21), 128)


def test_psd_unit_sum_and_nonnegative():
    sig = gen_two_tone()
    g = stft(sig, WindowSpec("hann", 128), 4, 512)
    p = psd_from_tfd(g)
    assert p.power.sum() == pytest.approx(1.0)
    assert np.all(p.power >= 0.0)
    assert not p.all_zero


def test_psd_wvd_uses_magnitude():
    sig = gen_two_tone()
    g = wvd(sig, 1024)
    assert g.values.min() < 0.0  # bilinear grids go negative
    p = psd_from_tfd(g)
    assert np.all(p.power >= 0.0)
    assert p.power.sum() == pytest.approx(1.0)


def test_psd_arrays_are_read_only():
    p = psd_from_tfd(stft(gen_two_tone(), WindowSpec("hann", 128), 4, 512))
    for name in ("freqs_hz", "power"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[0] = 1.0


def test_psd_all_zero_grid():
    g = TFDGrid([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), "stft", {})
    p = psd_from_tfd(g)
    assert p.all_zero
    np.testing.assert_array_equal(p.power, 0.0)


def gen_two_tone():
    fs, n = 320.0, 320
    t = np.arange(n) / fs
    return SampledSignal(np.sin(2 * np.pi * 20 * t) + np.sin(2 * np.pi * 40 * t), fs)


def test_resolution_report_values():
    sig = gen_two_tone()
    g = stft(sig, WindowSpec("hann", 128), 4, 512)
    r = resolution_report(g)
    assert r.temporal_resolution_ms == pytest.approx(12.5)
    assert r.spectral_resolution_hz == pytest.approx(0.625)
    assert r.nyquist_hz == pytest.approx(160.0)
    assert r.folding_hz == pytest.approx(160.0)
    gw = wvd(sig, 2048)
    rw = resolution_report(gw)
    assert rw.temporal_resolution_ms == pytest.approx(3.125)
    assert rw.folding_hz == pytest.approx(160.0)  # analytic conversion applied


def test_resolution_report_folding_comes_from_meta():
    meta = {"sample_rate_hz": 320.0, "fft_length": 4, "analytic_input": False}
    g = TFDGrid([0.0, 1.0], [0.0, 40.0], np.zeros((2, 2)), "wvd", meta)
    # a hand-built grid without folding_hz reports Nyquist
    assert resolution_report(g).folding_hz == 160.0
    g_real = TFDGrid([0.0, 1.0], [0.0, 40.0], np.zeros((2, 2)), "wvd", {**meta, "folding_hz": 80.0})
    assert resolution_report(g_real).folding_hz == 80.0


def test_resolution_report_errors():
    g = TFDGrid([0.0], [0.0, 1.0], np.zeros((1, 2)), "stft", {"sample_rate_hz": 8.0})
    with pytest.raises(ValueError):
        resolution_report(g)
    g2 = TFDGrid([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), "stft", {})
    with pytest.raises(ValueError):
        resolution_report(g2)


def _wvd_method(method, x, nfft, tlen, flen, **kw):
    if method == "wvd":
        return wvd(x, nfft, **kw)
    if method == "pwvd":
        return pwvd(x, WindowSpec("hann", flen), nfft, **kw)
    return spwvd(x, WindowSpec("hamming", tlen), WindowSpec("gaussian", flen), nfft, **kw)


def _wvd_scan(method, x, nfft, tlen, flen, band_hz, use_analytic=True):
    """The band scan of ``_wvd_method``'s grid, straight from the producer's
    row blocks."""
    time_window = WindowSpec("hamming", tlen) if method == "spwvd" else None
    freq_window = {"wvd": None, "pwvd": WindowSpec("hann", flen),
                   "spwvd": WindowSpec("gaussian", flen)}[method]
    return tfd._wvd_family(method, x, nfft, use_analytic, time_window, freq_window).scan(band_hz)


def _same_scan(got, want):
    """Two band scans agree field for field and bit for bit."""
    return (got.method, got.meta) == (want.method, want.meta) and all(
        np.array_equal(a, b) for a, b in zip(got[:2] + got[4:], want[:2] + want[4:])
    )


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    method=st.sampled_from(["wvd", "pwvd", "spwvd"]),
    n=st.integers(4, 90),
    nfft=st.integers(1, 160),
    rows=st.integers(1, 40),
    kind=st.sampled_from(["real", "complex", "real, use_analytic=False"]),
    tlen=st.integers(0, 10),
    flen=st.integers(0, 60),
    bins=st.tuples(st.integers(0, 159), st.integers(0, 159)),
    between=st.tuples(st.booleans(), st.booleans()),
    limited=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_wvd_family_band_grid_equals_full_grid_columns(
    method, n, nfft, rows, kind, tlen, flen, bins, between, limited, seed
):
    """A band scan straight from the producer's row blocks is the scan of
    the full grid's columns lo <= f <= hi, bit for bit: band edges on bins
    and between them, folded lags, N below, at and across the block rows;
    an empty band raises a ValueError that names the band."""
    rng = np.random.default_rng(seed)
    fs = 100.0
    if kind == "complex":
        x = SampledSignal(rng.normal(size=n) + 1j * rng.normal(size=n), fs, start_time_s=0.25)
    else:
        x = SampledSignal(rng.normal(size=n), fs, start_time_s=0.25)
    kw = {"use_analytic": False} if kind.endswith("False") else {}
    tlen, flen = 2 * tlen + 1, 2 * flen + 1
    # one chunk: the lag FFT as a single call over every row
    full = _wvd_method(method, x, nfft, tlen, flen, **kw)
    f = full.freqs_hz
    lo_k, hi_k = sorted(min(b, nfft - 1) for b in bins)
    # a band edge on a bin, or halfway to the next one
    lo = f[lo_k] + (fs / (4.0 * nfft) if between[0] else 0.0)
    hi = f[hi_k] + (fs / (4.0 * nfft) if between[1] else 0.0)
    band_hz = (lo, hi) if limited else None
    keep = (f >= lo) & (f <= hi) if limited else np.ones(f.size, dtype=bool)
    # `rows` rows per block: N below, at and across block boundaries
    with mock.patch.object(tfd, "_block_rows", lambda row_bytes: rows):
        if not keep.any():
            with pytest.raises(ValueError, match="band"):
                _wvd_scan(method, x, nfft, tlen, flen, band_hz, **kw)
            return
        got = _wvd_scan(method, x, nfft, tlen, flen, band_hz, **kw)
    want = tfd._band_magnitudes(full, band_hz)
    assert np.array_equal(want.freqs_hz, f[keep])
    assert _same_scan(got, want)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    method=st.sampled_from(["wvd", "pwvd"]),
    n=st.integers(4, 90),
    flen=st.integers(0, 60),
    extra=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_wvd_family_time_marginal_property(method, n, flen, extra, seed):
    """With nfft > L no lag aliases onto lag 0, so every row sums over bins
    to nfft * |z[n]|^2, folded lags (L < nfft <= 2L) included."""
    rng = np.random.default_rng(seed)
    z = analytic_signal(SampledSignal(rng.normal(size=n), 100.0))
    max_lag = (n - 1) // 2 if method == "wvd" else min((n - 1) // 2, flen)
    nfft = max_lag + 1 + extra
    g = _wvd_method(method, z, nfft, 1, 2 * flen + 1)
    want = nfft * np.abs(z.samples) ** 2
    np.testing.assert_allclose(g.values.sum(axis=1), want, rtol=0, atol=1e-12 * want.max())


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    method=st.sampled_from(["wvd", "pwvd"]),
    core=st.integers(3, 40),
    margins=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    delay=st.integers(1, 20),
    nfft=st.integers(1, 160),
    flen=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_wvd_family_delay_shifts_rows(method, core, margins, delay, nfft, flen, seed):
    """A record delayed by s samples inside zero margins gives the same rows
    s rows later, bit for bit: each row reads only its own lag products."""
    rng = np.random.default_rng(seed)
    z = analytic_signal(SampledSignal(rng.normal(size=core), 100.0)).samples
    lead, trail = margins
    n = lead + core + delay + trail
    x = SampledSignal(np.concatenate([np.zeros(lead), z, np.zeros(delay + trail)]), 100.0)
    later = SampledSignal(np.concatenate([np.zeros(lead + delay), z, np.zeros(trail)]), 100.0)
    got, shifted = (_wvd_method(method, v, nfft, 1, 2 * flen + 1) for v in (x, later))
    assert np.array_equal(shifted.values[delay:], got.values[: n - delay])


@pytest.mark.parametrize("method", ["wvd", "pwvd", "spwvd"])
@pytest.mark.parametrize("band_hz", [None, (5.0, 30.0)])
@pytest.mark.parametrize("n, one_row_blocks", [(37, False), (64, False), (37, True)])
def test_wvd_family_grid_does_not_depend_on_thread_count(method, band_hz, n, one_row_blocks):
    """Serial (one worker) and three-worker grids, and band scans, are equal
    bit for bit, with N not a multiple of the block rows (three parts, 37 =
    12 + 12 + 13 rows in blocks of 13, 64 = 21 + 21 + 22 in blocks of 22)
    and with one-row blocks; a band scan is the scan of the full grid.
    PWVD's and SPWVD's 11 lags, and WVD's 19 at N=37, take the band DFT;
    WVD's 32 at N=64 take the packed lag FFT."""
    x = SampledSignal(np.random.default_rng(n).normal(size=n), 100.0)
    nfft = 64

    def transform():
        if band_hz is None:
            return _wvd_method(method, x, nfft, 5, 21)
        return _wvd_scan(method, x, nfft, 5, 21, band_hz)

    with mock.patch.object(tfd, "_workers", lambda: 1):
        serial = transform()
    real_lag_fft_rows, real_dft_rows, threads = tfd._lag_fft_rows, tfd._dft_rows, set()

    def lag_fft_rows(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real_lag_fft_rows(*args, **kwargs)

    def dft_rows(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real_dft_rows(*args, **kwargs)

    rows = 1 if one_row_blocks else -(-n // 3)
    with mock.patch.object(tfd, "_workers", lambda: 3), mock.patch.object(
        tfd, "_block_rows", lambda row_bytes: rows
    ), mock.patch.object(tfd, "_lag_fft_rows", lag_fft_rows), mock.patch.object(
        tfd, "_dft_rows", dft_rows
    ):
        pooled = transform()
    assert any(name.startswith("tfbench") for name in threads)  # the pool ran blocks
    if band_hz is None:
        assert np.array_equal(pooled.values, serial.values)
        assert np.array_equal(pooled.freqs_hz, serial.freqs_hz)
    else:
        assert _same_scan(pooled, serial)
        assert _same_scan(serial, tfd._band_magnitudes(_wvd_method(method, x, nfft, 5, 21), band_hz))


@pytest.mark.parametrize(
    "row_bytes, rows",
    [
        (16 * 1024, 32),  # PCT frames at nfft 1024
        (16 * 8192, 4),  # 8192 complex values a row
        (8 * 8192, 8),  # plain WVD at N=1280, nfft 8192: its packed lag FFT
        (16 * 512, 64),  # compare's STFT: its 49 or 289 frames in 1 or 5 blocks
        (8 * 241, 271),  # a scan of PCT's 241-column compare band
        (8 * 3841, 17),  # a scan of compare-long's WVD-family band
        (16 * 64, 512),  # the thread-count tests' nfft 64: all their rows in one block
        (1 << 30, 1),  # a row over budget is still one block
    ],
)
def test_block_rows_fill_the_budget(row_bytes, rows):
    assert tfd._block_rows(row_bytes) == rows
    assert rows == 1 or rows * row_bytes <= tfd._BLOCK_BYTES < (rows + 1) * row_bytes


def _check_in_rows(n, row_bytes, rows, workers):
    """Run ``_in_rows`` on n rows under a budget of ``rows`` rows of
    ``row_bytes`` and check its layout: each row is added once, from its own
    block; every block fits the budget; min(workers, blocks) parts, whose
    edges are ``_SUM_RANGES`` edges, are each cut into blocks from their
    start; the first part runs on the calling thread and the others on the
    pool; and a one-block input never asks for the pool."""
    budget, real_pool = rows * row_bytes, tfd._pool
    asked, parts, added = [], [], []

    class Pool:  # notes each part handed to the pool and runs it there
        def submit(self, run, lo, hi):
            parts.append((lo, hi))
            return real_pool().submit(run, lo, hi)

    def pool():
        asked.append(True)
        return Pool()

    def add(at, values):
        added.append((at, threading.current_thread()))
        assert np.array_equal(values, np.arange(at.start, at.stop, dtype=float)[:, None])

    with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
        tfd, "_BLOCK_BYTES", budget
    ), mock.patch.object(tfd, "_pool", pool):
        assert tfd._block_rows(row_bytes) == rows
        tfd._in_rows(n, rows, lambda at: np.arange(at.start, at.stop, dtype=float)[:, None], add)
    n_blocks = -(-n // rows)
    if n_blocks <= 1:
        assert not asked
    first = parts[0][0] if parts else n
    edges = [0, first] + [hi for _, hi in parts]
    assert [lo for lo, _ in parts] == edges[1:-1] and edges[-1] == n
    assert len(edges) - 1 == max(1, min(workers, n_blocks))
    assert set(edges) <= {n * r // tfd._SUM_RANGES for r in range(tfd._SUM_RANGES + 1)}
    blocks = sorted((at for at, _ in added), key=lambda at: at.start)
    assert blocks == [
        slice(start, min(start + rows, hi))
        for lo, hi in zip(edges, edges[1:])
        for start in range(lo, hi, rows)
    ]
    assert sorted(row for at in blocks for row in range(at.start, at.stop)) == list(range(n))
    assert all((at.stop - at.start) * row_bytes <= budget for at in blocks)
    caller = threading.current_thread()
    for at, thread in added:
        assert (thread is caller) == (at.stop <= first)
        assert thread is caller or thread.name.startswith("tfbench")


@pytest.mark.parametrize(
    "n, fft_length, workers, rows",
    [
        (1217, 1024, 2, 305),  # PCT at N=1280: 4 blocks, 2 + 2 per worker
        (1280, 8192, 2, 64),  # WVD family at N=1280: 20 blocks, 10 + 10
        (257, 1024, 3, 86),
        (37, 64, 3, 13),
        (5, 64, 4, 2),  # 3 blocks on 4 workers: one part each, one worker idle
        (1, 1 << 30, 4, 1),  # one block stays on the caller
    ],
)
def test_fft_rows_split_over_the_workers_within_the_budget(n, fft_length, workers, rows):
    """Transform rows of 16 * fft_length bytes of work, at a budget of
    ``rows`` of them, laid out as ``_check_in_rows`` says."""
    _check_in_rows(n, 16 * fft_length, rows, workers)


@pytest.mark.parametrize(
    "n, rows",
    [(0, 4), (1, 4), (5, 64), (37, 1), (37, 7), (64, 16), (257, 86), (1217, 305), (1280, 64)],
)
def test_in_rows_cuts_part_blocks_for_any_worker_count(n, rows):
    """Blocks never outgrow the budget and every row is added once on one
    to four workers; only where the blocks start depends on the count."""
    for workers in (1, 2, 3, 4):
        _check_in_rows(n, 8 * 30, rows, workers)


def test_one_block_stays_on_the_calling_thread():
    """compare's STFT of a 320-sample x1 record (Hann 128, hop 4, nfft 512) is
    49 frames, one block: it needs no pool even when three workers could
    run."""
    cfg, x = default_config("x1"), gen_x1().signal

    def no_pool():
        raise AssertionError("the pool was asked for")

    with mock.patch.object(tfd, "_workers", lambda: 3), mock.patch.object(tfd, "_pool", no_pool):
        got = stft(x, cfg.stft_window, cfg.stft_hop, cfg.stft_fft)
    assert (cfg.stft_window.length_samples, cfg.stft_hop, cfg.stft_fft) == (128, 4, 512)
    assert got.n_times == 49
    assert np.array_equal(got.values, _stft_whole(x, cfg.stft_window, 4, 512))


@pytest.mark.parametrize("method", ["pct", "band spwvd"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_transform_transient_is_a_few_blocks(method, workers):
    """On a 4 s x2 record (N = 1280), what a transform holds beyond the grid
    it returns, or compare's band scan of SPWVD beyond its reader's arrays
    (the per-row argmax and peak and the per-range column sums), is a few
    row blocks per worker, not a share of the grid."""
    x, cfg = gen_x2(duration_s=4.0, snr=10.0, seed=1).signal, default_config("x2")
    z = analytic_signal(x)
    transform = {
        "pct": lambda: pct_transform(z, PolynomialKernel.zero(2), PCTConfig()),
        "band spwvd": lambda: _scan_method(x, "spwvd", cfg),
    }[method]
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with mock.patch.object(tfd, "_workers", lambda: workers):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grid = transform()
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert grid.times_s.size >= 1217
    if isinstance(grid, TFDGrid):
        held = grid.values.nbytes
    else:
        held = grid.argmax.nbytes + grid.peak.nbytes + tfd._SUM_RANGES * grid.col_sum.nbytes
    assert peak - before - held < 4 * 2**20


def test_row_blocks_under_thread_switch_stress():
    """Four workers (more than most hosts' cores) on one-row transform and
    scan blocks, switching threads every microsecond: a lost or misplaced
    block would change the grids or the scans."""
    x = SampledSignal(np.random.default_rng(5).normal(size=61), 100.0)
    tw, fw = WindowSpec("hann", 5), WindowSpec("hann", 21)
    with mock.patch.object(tfd, "_workers", lambda: 1):
        want = spwvd(x, tw, fw, 64)
        want_scan = tfd._band_magnitudes(want, (5.0, 30.0))
        want_stft = stft(x, fw, 1, 64)
    got = []

    def run():
        with mock.patch.object(tfd, "_workers", lambda: 4), mock.patch.object(
            tfd, "_BLOCK_BYTES", 1
        ):
            for _ in range(20):
                g, g_stft = spwvd(x, tw, fw, 64), stft(x, fw, 1, 64)
                got.append((g, tfd._band_magnitudes(g, (5.0, 30.0)), g_stft))
                # rows scanned as they are made, without a grid
                scan = tfd._wvd_family("spwvd", x, 64, True, tw, fw).scan((5.0, 30.0))
                got.append((g, scan, g_stft))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(got) == 40
    for g, scan, g_stft in got:
        assert np.array_equal(g.values, want.values)
        assert np.array_equal(g_stft.values, want_stft.values)
        assert all(np.array_equal(a, b) for a, b in zip(scan[-3:], want_scan[-3:]))


def test_wvd_family_empty_band_raises():
    """A band with no bin raises one ValueError text from the rows of every
    method-table entry and from a stored grid; every axis here is the WVD
    family's, 1.25 Hz apart."""
    z = analytic_tone(40.0, 320.0, 64)
    df = 320.0 / (2 * 128)
    window = WindowSpec("hann", 31)
    cfg = CompareConfig(stft_window=window, stft_fft=256, wvd_fft=128,
                        spwvd_time_window=WindowSpec("hann", 11),
                        spwvd_freq_window=WindowSpec("hann", 21),
                        pct=PCTConfig(window=window, fft_length=256))
    made = [producer(z, cfg) for producer in METHODS.values()]
    stored = wvd(z, 128)
    assert {rows.freqs_hz[1] for rows in made} == {df}
    for band in [(200.0, 300.0), (10.2 * df, 10.7 * df), (-5.0, -1.0), (60.0, 50.0)]:
        errors = set()
        for scan in [rows.scan for rows in made] + [lambda b: tfd._band_magnitudes(stored, b)]:
            with pytest.raises(ValueError, match="band") as exc:
                scan(band)
            errors.add(str(exc.value))
        assert len(errors) == 1, errors


def test_resolution_report_band_grid_keeps_full_grid_spacing():
    """A band scan reports the full grid's spacing, from the meta, even
    where its first two bins are not that far apart to the bit or it has
    one bin."""
    fs = 1000.0 / 3.0
    x = SampledSignal(np.cos(2 * np.pi * 40.0 * np.arange(333) / fs), fs)
    full, band = wvd(x, 2048), _wvd_scan("wvd", x, 2048, 1, 1, (5.0, 80.0))
    # the premise: the first two band bins are not fs/(2 nfft) apart to the bit
    assert band.freqs_hz[1] - band.freqs_hz[0] != full.freqs_hz[1] - full.freqs_hz[0]
    assert resolution_report(band) == resolution_report(full)
    assert resolution_report(full).spectral_resolution_hz == full.freqs_hz[1] - full.freqs_hz[0]
    one_bin = _wvd_scan("wvd", x, 2048, 1, 1, (full.freqs_hz[300], full.freqs_hz[300]))
    assert one_bin.freqs_hz.size == 1
    assert resolution_report(one_bin) == resolution_report(full)


def _range_sum_reference(mags):
    """Column sums as the band scan defines them: rows added in order within
    each of ``_SUM_RANGES`` row ranges, then the ranges added in order."""
    n = mags.shape[0]
    edges = [n * r // tfd._SUM_RANGES for r in range(tfd._SUM_RANGES + 1)]
    ranges = np.zeros((tfd._SUM_RANGES, mags.shape[1]))
    for r in range(tfd._SUM_RANGES):
        for row in mags[edges[r] : edges[r + 1]]:
            ranges[r] = ranges[r] + row
    total = np.zeros(mags.shape[1])
    for r in range(tfd._SUM_RANGES):
        total = total + ranges[r]
    return total


@pytest.mark.parametrize("method", ["wvd", "stft"])
@pytest.mark.parametrize("n", [1, 5, 12, 61, 200])
def test_band_scan_sums_do_not_depend_on_blocks_or_threads(method, n):
    """The scan's column sums are the row-range sums, bit for bit, for blocks
    that cut across the ranges at any size and for any thread count, over
    22 columns and over one (which numpy would sum pairwise)."""
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n, 30)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
    g = TFDGrid(np.arange(n, dtype=float), 10.0 + np.arange(30), vals if method == "wvd"
                else np.abs(vals), method)
    for band_hz, cols in [((13.0, 34.0), slice(3, 25)), ((20.0, 20.0), slice(10, 11))]:
        mags = np.abs(g.values[:, cols])
        want = _range_sum_reference(mags)
        for rows in (1, 2, 5, 7, 17, n):
            for workers in (1, 2, 3, 4):
                with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
                    tfd, "_BLOCK_BYTES", rows * 8 * mags.shape[1]
                ):
                    scan = tfd._band_magnitudes(g, band_hz)
                assert np.array_equal(scan.freqs_hz, g.freqs_hz[cols])
                assert np.array_equal(scan.col_sum, want), (band_hz, rows, workers)
                assert np.array_equal(scan.argmax, np.argmax(mags, axis=1))
                assert np.array_equal(scan.peak, mags.max(axis=1))
        if mags.shape[1] > 1:
            assert not np.array_equal(want, mags.sum(axis=0)) or n <= 12  # the ranges matter


@pytest.mark.parametrize("workers, rows", [(1, None), (3, None), (3, 1), (4, 3)])
def test_transform_rows_into_a_reader_scan_their_grid(workers, rows):
    """Row blocks read as they are made give the scan of the grid they would
    fill, bit for bit, for any thread count and block size: every WVD-family
    kernel (the lag taper and the time smoothing paths, the last on the FFT
    path), with and without a band.  Rows made again give the same grid."""
    x = SampledSignal(np.random.default_rng(9).normal(size=97), 100.0)
    tw, fw = WindowSpec("hann", 11), WindowSpec("hann", 21)
    kernels = [("wvd", None, None), ("pwvd", None, fw), ("spwvd", tw, fw),
               ("spwvd", tw, WindowSpec("hann", 81))]
    budget = tfd._BLOCK_BYTES if rows is None else rows * 16 * 256
    for method, time_window, freq_window in kernels:
        made = tfd._wvd_family(method, x, 256, True, time_window, freq_window)
        grid = made.grid()
        for band in (None, (5.0, 30.0)):
            want = tfd._band_magnitudes(grid, band)
            with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
                tfd, "_BLOCK_BYTES", budget
            ):
                scan = made.scan(band)
            assert (scan.method, scan.meta) == (want.method, want.meta)
            for name in ("times_s", "freqs_hz", "argmax", "peak", "col_sum"):
                assert np.array_equal(getattr(scan, name), getattr(want, name)), (method, band)
            assert resolution_report(scan) == resolution_report(grid)
        assert np.array_equal(made.grid().values, grid.values)


def test_one_block_scan_stays_on_the_calling_thread():
    x = SampledSignal(np.random.default_rng(2).normal(size=40), 100.0)

    def no_pool():
        raise AssertionError("the pool was asked for")

    with mock.patch.object(tfd, "_workers", lambda: 4), mock.patch.object(tfd, "_pool", no_pool):
        scan = tfd._wvd_family("wvd", x, 64, True).scan(None)
    assert np.array_equal(scan.col_sum, tfd._band_magnitudes(wvd(x, 64), None).col_sum)


@pytest.mark.parametrize("method", ["wvd", "pwvd", "spwvd"])
@pytest.mark.parametrize("n, nfft", [(100, 16), (61, 5), (64, 40)])
def test_folded_lag_blocks_do_not_depend_on_the_block_size(method, n, nfft):
    """Lags past the Hermitian half are folded block by block: one-row and
    three-row blocks on three workers give the one-block grid bit for bit."""
    rng = np.random.default_rng(n + nfft)
    x = SampledSignal(rng.normal(size=n) + 1j * rng.normal(size=n), 64.0)
    with mock.patch.object(tfd, "_BLOCK_BYTES", 1 << 30):
        want = _wvd_method(method, x, nfft, 9, 41)
    lags = (n - 1) // 2 + 1 if method == "wvd" else min((n - 1) // 2, 20) + 1
    assert lags > (nfft + 1) // 2  # folded
    for rows in (1, 3):
        with mock.patch.object(tfd, "_workers", lambda: 3), mock.patch.object(
            tfd, "_BLOCK_BYTES", rows * 16 * max(nfft, lags)
        ):
            assert np.array_equal(_wvd_method(method, x, nfft, 9, 41).values, want.values)


def _lag_weights(lags):
    return np.r_[1.0, np.full(lags - 1, 2.0)]


def _hfft_folded(q, taper, nfft):
    """The lag DFT by numpy's Hermitian FFT: lags past the Hermitian half
    folded first (lag 0 halved, lags summed modulo nfft into p, then h[j] =
    p[j] + conj(p[-j mod nfft]) for j = 0..nfft//2)."""
    q = q * taper
    if q.shape[1] - 1 > (nfft - 1) // 2:
        half = np.arange(nfft // 2 + 1)
        q[:, 0] *= 0.5
        q = np.pad(q, ((0, 0), (0, -q.shape[1] % nfft)))
        q = q.reshape(q.shape[0], -1, nfft).sum(1)
        q = q[:, half] + np.conj(q[:, -half % nfft])
    return np.fft.hfft(q, n=nfft, axis=1)


def _extended_double_sum(q, weights, nfft):
    """sum_m w_m Re(q_m exp(-2j*pi*b*m/nfft)), angles and sums in extended
    precision, so the oracle's own rounding is far below a double's."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    angle = (2 * pi / nfft) * np.arange(nfft, dtype=np.longdouble)
    cos, sin = np.cos(angle), np.sin(angle)
    re, im = (part.astype(np.longdouble) * weights for part in (q.real, q.imag))
    bins, out = np.arange(nfft), np.zeros((q.shape[0], nfft), dtype=np.longdouble)
    for m in range(q.shape[1]):
        turn = m * bins % nfft
        out += re[:, m, None] * cos[turn] + im[:, m, None] * sin[turn]
    return out


# even and odd nfft, lags past the Hermitian half (nfft < 2L + 1) down to
# nfft = 1, 2 and 3, and the benchmark's plain WVD (161 lags at nfft 2048,
# 641 at 8192)
@pytest.mark.parametrize(
    "lags, nfft",
    [(1, 1), (1, 2), (2, 2), (4, 1), (5, 2), (5, 3), (10, 3), (20, 16), (20, 39), (20, 40),
     (33, 64), (33, 65), (160, 255), (160, 256), (161, 2048), (641, 8192)],
)
@pytest.mark.parametrize("tapered", [False, True])
def test_lag_fft_matches_hfft_and_double_sum(lags, nfft, tapered):
    """The lag FFT of a row is its double sum (in extended precision) and
    the folded hfft of it to 1e-15 of the row peak.  Where lags wrap
    (nfft < 2L + 1) the wrapped terms may cancel to far below their own
    size, so the scale there is the row's sum_m w_m |q_m|, which bounds
    its peak; every method rounds on that scale."""
    rng = np.random.default_rng(lags * 10007 + nfft)
    q = rng.normal(size=(8, lags)) + 1j * rng.normal(size=(8, lags))
    taper = np.hanning(2 * lags + 1)[lags:-1] if tapered else np.ones(lags)
    weights = _lag_weights(lags) * taper
    fft = tfd._lag_fft(weights, nfft)
    assert fft.period == (nfft // 2 if nfft % 2 == 0 else nfft)
    assert fft.back is not None
    got = tfd._lag_fft_rows(q, fft, slice(0, nfft))
    assert got.shape == (8, nfft)
    exact = _extended_double_sum(q, weights, nfft)
    if nfft >= 2 * lags - 1:
        scale = np.abs(exact).max(axis=1, keepdims=True)
    else:
        scale = (np.abs(q) * weights).sum(axis=1, keepdims=True)
    assert np.all(np.abs(got - exact) <= 1e-15 * scale)
    assert np.all(np.abs(got - _hfft_folded(q, taper, nfft)) <= 1e-15 * scale)


@pytest.mark.parametrize("method", ["wvd", "spwvd"])
@pytest.mark.parametrize("n, nfft", [(90, 256), (90, 255), (90, 64), (90, 33), (20, 1), (20, 2),
                                     (20, 3)])
def test_lag_fft_bits_do_not_depend_on_blocks_or_workers(method, n, nfft):
    """On the lag FFT path a row's bits depend on neither its block (one-row,
    7-row and budget blocks) nor the worker count (1 and 3): the grids and
    the band scans equal the one-block, one-worker grid's, for even and odd
    nfft and wrapped lags."""
    x = SampledSignal(np.random.default_rng(n + nfft).normal(size=n), 100.0)
    flen = 2 * n + 1  # spwvd: wvd's lags, under a taper
    taper = WindowSpec("gaussian", flen) if method == "spwvd" else None
    assert isinstance(tfd._lag_dft((n - 1) // 2 + 1, taper, nfft), tfd._LagFFT)
    with mock.patch.object(tfd, "_workers", lambda: 1), mock.patch.object(
        tfd, "_block_rows", lambda row_bytes: n
    ):
        want = _wvd_method(method, x, nfft, 7, flen)
    band_hz = (want.freqs_hz[nfft // 3], want.freqs_hz[-1])
    for rows in (1, 7, None):
        for workers in (1, 3):
            blocks = (lambda row_bytes: rows) if rows else tfd._block_rows
            with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
                tfd, "_block_rows", blocks
            ):
                full = _wvd_method(method, x, nfft, 7, flen)
                band = _wvd_scan(method, x, nfft, 7, flen, band_hz)
            assert np.array_equal(full.values, want.values)
            assert _same_scan(band, tfd._band_magnitudes(want, band_hz))


def test_lag_dft_is_built_once_and_read_only(monkeypatch):
    """Equal (lags, freq_window, fft_length) give the one cached object,
    whose arrays cannot be written: a second transform of the same shape
    builds no lag DFT.  The band DFT and the lag FFT are both cached."""
    fw = WindowSpec("hann", 63)
    for lags, window, nfft, kind in [(640, None, 8192, tfd._LagFFT), (161, None, 255, tfd._LagFFT),
                                     (32, fw, 2048, tfd._BandDFT)]:
        first = tfd._lag_dft(lags, window, nfft)
        assert isinstance(first, kind) and tfd._lag_dft(lags, window, nfft) is first
        for array in first[:2]:
            if array is not None:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
    x = gen_x1().signal
    wvd(x, 2048)
    spwvd(x, WindowSpec("hann", 31), fw, 2048)
    built = []
    monkeypatch.setattr(tfd, "_band_dft", lambda *args: built.append(args))
    monkeypatch.setattr(tfd, "_lag_fft", lambda *args: built.append(args))
    wvd(x, 2048)
    spwvd(x, WindowSpec("hann", 31), fw, 2048)
    assert built == []


@pytest.mark.parametrize(
    "power, taps, nfft, direct",
    [
        (False, 32, 8192, True),  # SPWVD's lags at N=1280
        (False, 32, 2048, True),  # SPWVD's lags at N=320
        (False, 640, 8192, False),  # plain WVD at N=1280
        (False, 160, 2048, False),  # plain WVD at N=320
        (True, 64, 1024, True),  # PCT's frames
        (True, 128, 512, False),  # STFT frames of x1
        (True, 128, 128, False),  # STFT frames of x2
        (True, 64, 256, False),  # the STFT thread-count tests' frames
        (False, 1, 1, False),  # a one-bin axis: no FFT cost to undercut
    ],
)
def test_band_dft_cost_rule(power, taps, nfft, direct):
    """The band DFT replaces the FFT where its multiply-adds over the whole
    axis are at most _DFT_COST times n log2 n (half that for the lag FFT), and
    every one of its products stays within OpenBLAS's one-thread size."""
    weights = np.hanning(taps) if power else _lag_weights(taps)
    dft = tfd._band_dft(weights, nfft, power)
    assert (dft is not None) == direct
    if dft is not None:
        assert dft.rows >= 2 and dft.cols >= 2
        assert dft.rows * dft.matrix.size <= tfd._GEMM_MACS
        assert dft.matrix.shape == (2 * taps, 2 * dft.cols if power else dft.cols)
        bins = nfft // 2 + 1 if power else nfft
        assert dft.phases.shape == (-(-bins // dft.cols), taps)


def _band_dft_grid(method, x, nfft, flen, band_hz=None):
    """The full grid, or with ``band_hz`` the band scan, of a transform whose
    rows take the band DFT."""
    if method == "pct":
        cfg = PCTConfig(window=WindowSpec("hann", flen), fft_length=nfft)
        made = pct._chirplet(x, PolynomialKernel((3.0, -7.5)), cfg)
        return made.grid() if band_hz is None else made.scan(band_hz)
    if band_hz is None:
        return _wvd_method(method, x, nfft, 7, flen)
    return _wvd_scan(method, x, nfft, 7, flen, band_hz)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    method=st.sampled_from(["pwvd", "spwvd", "pct"]),
    n=st.integers(70, 260),
    nfft=st.sampled_from([60, 64, 100, 256, 1000, 1024, 2048]),
    flen=st.sampled_from([9, 21, 33, 63]),
    analytic=st.booleans(),
    bins=st.tuples(st.integers(0, 2047), st.integers(0, 2047)),
    between=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_dft_bits_do_not_depend_on_blocks_workers_or_band(
    method, n, nfft, flen, analytic, bins, between, seed
):
    """On the band DFT path a row's bits depend on neither its block (its
    offset in the products, one-row, 7-row and budget blocks, a short last
    block), nor the worker count (1 and 3), nor the band: a band scan is the
    scan of the full grid's columns, band edges on bins or between them, the
    axis' last chunk short."""
    fs = 100.0
    x = SampledSignal(np.random.default_rng(seed).normal(size=n), fs, start_time_s=0.25)
    x = analytic_signal(x) if analytic else x
    power = method == "pct"
    taps = flen if power else min((n - 1) // 2, (flen - 1) // 2) + 1
    weights = np.hanning(taps) if power else _lag_weights(taps)
    assume(tfd._band_dft(weights, nfft, power) is not None)  # the FFT path has its own tests
    with mock.patch.object(tfd, "_workers", lambda: 1), mock.patch.object(
        tfd, "_block_rows", lambda row_bytes: n
    ):
        want = _band_dft_grid(method, x, nfft, flen)  # one block, one worker
    f = want.freqs_hz
    lo_k, hi_k = sorted(min(b, f.size - 1) for b in bins)
    step = fs / (2.0 * nfft) if power else fs / (4.0 * nfft)
    band_hz = (f[lo_k] + (step if between[0] else 0.0), f[hi_k] + (step if between[1] else 0.0))
    keep = (f >= band_hz[0]) & (f <= band_hz[1])
    for rows in (1, 7, None):
        for workers in (1, 3):
            blocks = (lambda row_bytes: rows) if rows else tfd._block_rows
            with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
                tfd, "_block_rows", blocks
            ):
                full = _band_dft_grid(method, x, nfft, flen)
                if not keep.any():
                    with pytest.raises(ValueError, match="band"):
                        _band_dft_grid(method, x, nfft, flen, band_hz)
                    continue
                band = _band_dft_grid(method, x, nfft, flen, band_hz)
            assert np.array_equal(full.values, want.values)
            assert np.array_equal(band.freqs_hz, f[keep])
            assert _same_scan(band, tfd._band_magnitudes(want, band_hz))


@pytest.mark.parametrize("method", ["pct", "spwvd"])
def test_band_dft_products_have_one_shape(method):
    """Every matrix product of one transform has one shape, R x 2*taps x
    columns with R and the columns at least 2 and at most _GEMM_MACS
    multiply-adds, whatever the band, block size or worker count: the full
    grid's and the band scans' products alike."""
    x = gen_x2(snr=10.0, seed=1).signal
    real_matmul, shapes = np.matmul, set()

    def matmul(a, b, *args, **kwargs):
        shapes.add((a.shape[1:], b.shape))
        return real_matmul(a, b, *args, **kwargs)

    cases = [(None, 1, None), ((5.0, 80.0), 3, 1), ((40.0, 40.0), 2, 7), ((0.5, 150.0), 3, None)]
    for band_hz, workers, rows in cases:
        blocks = (lambda row_bytes: rows) if rows else tfd._block_rows
        with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
            tfd, "_block_rows", blocks
        ), mock.patch.object(tfd.np, "matmul", matmul):
            if method == "pct":
                made = pct._chirplet(analytic_signal(x), PolynomialKernel((3.0, -7.5)),
                                     PCTConfig())
            else:
                made = tfd._wvd_family("spwvd", x, 2048, True, WindowSpec("hann", 31),
                                       WindowSpec("hann", 63))
            made.grid() if band_hz is None else made.scan(band_hz)
    assert len(shapes) == 1
    ((rows, inputs), (inputs_b, cols)), = shapes
    assert inputs == inputs_b and rows >= 2 and cols >= 2
    assert rows * inputs * cols <= tfd._GEMM_MACS


# n = 47 gives L = 10 for the 21-tap lag window: nfft 12, 16 and 20 fold
# lags past the Hermitian half, 21, 22 and 64 do not; each takes the band DFT
@pytest.mark.parametrize("nfft", [12, 16, 20, 21, 22, 64])
@pytest.mark.parametrize("method", ["pwvd", "spwvd"])
def test_band_dft_wvd_family_matches_double_sum(method, nfft):
    n = 47
    rng = np.random.default_rng(nfft)
    z = SampledSignal(rng.normal(size=n) + 1j * rng.normal(size=n), 64.0)
    tw, fw = WindowSpec("hann", 7), WindowSpec("hann", 21)
    assert tfd._band_dft(make_window(fw)[10:] * _lag_weights(11), nfft, False) is not None
    if method == "pwvd":
        got, want = pwvd(z, fw, nfft), _double_sum_wvd(z.samples, nfft, freq_window=fw)
    else:
        got, want = spwvd(z, tw, fw, nfft), _double_sum_wvd(z.samples, nfft, tw, fw)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _pct_fft_oracle(z, kernel, cfg):
    """PCT by the formula: rotate, shift each frame, window, numpy's FFT,
    |.|^2 of bins 0..nfft//2."""
    rotated = z.samples * np.exp(-2j * np.pi * kernel.trend_phase(z.times()))
    wlen, fs = cfg.window.length_samples, z.sample_rate_hz
    starts = np.arange(0, len(z) - wlen + 1, cfg.hop_samples)
    index = starts[:, None] + np.arange(wlen)
    centers = z.start_time_s + (starts + (wlen - 1) / 2.0) / fs
    shift = np.exp(2j * np.pi * kernel.local_if(centers)[:, None] * z.times()[index])
    frames = rotated[index] * shift * make_window(cfg.window)
    spectra = np.fft.fft(frames, n=cfg.fft_length, axis=1)[:, : cfg.fft_length // 2 + 1]
    return np.abs(spectra) ** 2


@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("coeffs", [(0.0, 0.0), (3.0, -7.5), (-430.0, 2610.0)])
@pytest.mark.parametrize("hop", [1, 3])
def test_band_dft_pct_matches_fft_oracle(analytic, coeffs, hop):
    x = gen_x2(snr=10.0, seed=2).signal
    z = analytic_signal(x) if analytic else x
    cfg = PCTConfig(hop_samples=hop)
    assert tfd._frame_dft(cfg.window, cfg.fft_length) is not None
    kernel = PolynomialKernel(coeffs)
    got, want = pct_transform(z, kernel, cfg), _pct_fft_oracle(z, kernel, cfg)
    assert got.values.shape == want.shape
    assert np.max(np.abs(got.values - want)) <= 1e-14 * want.max()


def test_frame_dft_is_built_once_and_read_only():
    """Equal (window, fft_length) give the one cached object, whose arrays
    cannot be written; a window the FFT serves gives None."""
    first = tfd._frame_dft(WindowSpec("hann", 64), 1024)
    again = tfd._frame_dft(WindowSpec("hann", 64), 1024)
    assert again is first
    assert not first.matrix.flags.writeable and not first.phases.flags.writeable
    with pytest.raises(ValueError):
        first.matrix[0, 0] = 1.0
    want = tfd._band_dft(make_window(WindowSpec("hann", 64)), 1024, power=True)
    assert np.array_equal(first.matrix, want.matrix) and np.array_equal(first.phases, want.phases)
    assert tfd._frame_dft(WindowSpec("hann", 128), 512) is None
    assert tfd._frame_dft(WindowSpec("hann", 32), 1024) is not first
