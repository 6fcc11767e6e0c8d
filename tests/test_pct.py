import cmath
import itertools
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfbench.core import (
    WINDOW_KINDS,
    InsufficientDataError,
    SampledSignal,
    WindowSpec,
    analytic_signal,
    make_window,
)
from tfbench import pct, tfd
from tfbench.evaluate import METHODS, CompareConfig, compare_methods
from tfbench.pct import (
    PCTConfig,
    PolynomialKernel,
    estimate_kernel,
    pct_auto,
    pct_transform,
)
from tfbench.synth import gen_x1, gen_x2
from tfbench.tfd import stft


def linear_chirp(f0=20.0, slope=30.0, fs=320.0, n=320):
    t = np.arange(n) / fs
    return SampledSignal(np.exp(2j * np.pi * (f0 * t + 0.5 * slope * t * t)), fs)


def ridge_width_bins(row, half_level=0.5):
    """Contiguous bin count around the argmax staying above half the peak."""
    peak = row.max()
    if peak == 0.0:
        return 0
    k = int(np.argmax(row))
    lo = k
    while lo > 0 and row[lo - 1] >= half_level * peak:
        lo -= 1
    hi = k
    while hi < row.size - 1 and row[hi + 1] >= half_level * peak:
        hi += 1
    return hi - lo + 1


def test_polynomial_kernel_basics():
    k = PolynomialKernel((30.0,))
    assert k.order == 1
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(k.trend_phase(t), [0.0, 3.75, 15.0])
    np.testing.assert_allclose(k.local_if(t), [0.0, 15.0, 30.0])
    z = PolynomialKernel.zero(3)
    assert z.coeffs == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PolynomialKernel(())
    with pytest.raises(ValueError):
        PolynomialKernel((np.nan,))
    with pytest.raises(ValueError):
        PolynomialKernel.zero(0)


def test_quadratic_kernel_phase_integral():
    k = PolynomialKernel((-430.0, 2610.0))
    t = np.array([0.1])
    # integral of -430 t + 2610 t^2 is -215 t^2 + 870 t^3
    np.testing.assert_allclose(k.trend_phase(t), [-215.0 * 0.01 + 870.0 * 0.001])


def test_pct_config_validation():
    with pytest.raises(ValueError):
        PCTConfig(order=0)
    with pytest.raises(ValueError):
        PCTConfig(max_iterations=0)
    for tol in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="convergence_tol_hz"):
            PCTConfig(convergence_tol_hz=tol)
    with pytest.raises(ValueError):
        PCTConfig(hop_samples=0)
    with pytest.raises(ValueError):
        PCTConfig(window=WindowSpec("hann", 2048))
    with pytest.raises(ValueError):
        PCTConfig(amp_threshold_frac=1.0)
    for name, value in (("order", 2.0), ("order", True), ("max_iterations", 2.5),
                        ("hop_samples", 1.5), ("fft_length", 1024.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PCTConfig(**{name: value})
    cfg = PCTConfig(order=np.int64(3), max_iterations=np.int32(4))
    assert (type(cfg.order), type(cfg.max_iterations)) == (int, int)


def test_zero_kernel_equals_stft():
    rng = np.random.default_rng(2)
    z = SampledSignal(rng.normal(size=256) + 1j * rng.normal(size=256), 128.0)
    cfg = PCTConfig(order=2, window=WindowSpec("hann", 64), hop_samples=4, fft_length=128)
    g_pct = pct_transform(z, PolynomialKernel.zero(2), cfg)
    g_stft = stft(z, cfg.window, cfg.hop_samples, cfg.fft_length)
    scale = g_stft.values.max()
    assert np.max(np.abs(g_pct.values - g_stft.values)) <= 1e-12 * scale
    np.testing.assert_array_equal(g_pct.times_s, g_stft.times_s)
    np.testing.assert_array_equal(g_pct.freqs_hz, g_stft.freqs_hz)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    kind=st.sampled_from(WINDOW_KINDS),
    periodic=st.booleans(),
    wlen=st.integers(1, 48),
    extra_samples=st.integers(0, 150),
    hop=st.integers(1, 7),
    extra_fft=st.integers(0, 40),
    analytic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_kernel_equals_stft_property(kind, periodic, wlen, extra_samples, hop, extra_fft,
                                          analytic, seed):
    rng = np.random.default_rng(seed)
    x = SampledSignal(rng.normal(size=wlen + extra_samples), 100.0, start_time_s=rng.uniform(-1, 1))
    z = analytic_signal(x) if analytic and len(x) >= 2 else x
    window = WindowSpec(kind, wlen, periodic=periodic)
    cfg = PCTConfig(order=2, window=window, hop_samples=hop, fft_length=wlen + extra_fft)
    g_pct = pct_transform(z, PolynomialKernel.zero(2), cfg)
    g_stft = stft(z, window, hop, cfg.fft_length)
    np.testing.assert_array_equal(g_pct.times_s, g_stft.times_s)
    np.testing.assert_array_equal(g_pct.freqs_hz, g_stft.freqs_hz)
    assert np.max(np.abs(g_pct.values - g_stft.values)) <= 1e-12 * g_stft.values.max()
    assert g_pct.meta == {**g_stft.meta, "kernel_coeffs": [0.0, 0.0]}


def pct_by_loops(z, coeffs, window, hop, nfft):
    """Brute-force PCT: rotate every sample by the integrated IF model, shift
    each frame by the model IF at its center, window, then a direct DFT sum."""
    fs = z.sample_rate_hz
    wlen = window.length_samples
    win = make_window(window)
    rotated = []
    for i, sample in enumerate(z.samples):
        t = z.start_time_s + i / fs
        trend = sum(a * t ** (k + 1) / (k + 1) for k, a in enumerate(coeffs, start=1))
        rotated.append(sample * cmath.exp(-2j * cmath.pi * trend))
    rows = []
    for start in range(0, len(z) - wlen + 1, hop):
        center = z.start_time_s + (start + (wlen - 1) / 2) / fs
        shift_hz = sum(a * center**k for k, a in enumerate(coeffs, start=1))
        frame = []
        for i in range(wlen):
            t = z.start_time_s + (start + i) / fs
            frame.append(win[i] * rotated[start + i] * cmath.exp(2j * cmath.pi * shift_hz * t))
        row = []
        for m in range(nfft // 2 + 1):
            acc = sum(v * cmath.exp(-2j * cmath.pi * m * i / nfft) for i, v in enumerate(frame))
            row.append(abs(acc) ** 2)
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("n", [33, 64])
@pytest.mark.parametrize("coeffs", [(25.0,), (-30.0, 90.0)])
@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("hop", [1, 3])
def test_pct_matches_per_frame_loops(n, coeffs, analytic, hop):
    fs = 64.0
    t = 0.3 + np.arange(n) / fs
    x = SampledSignal(np.cos(2 * np.pi * (6.0 * t + 4.0 * t * t)) + 0.3 * np.sin(2 * np.pi * 19.0 * t),
                      fs, start_time_s=0.3)
    z = analytic_signal(x) if analytic else x
    window = WindowSpec("hann", 15)
    cfg = PCTConfig(order=len(coeffs), window=window, hop_samples=hop, fft_length=24)
    g = pct_transform(z, PolynomialKernel(coeffs), cfg)
    expected = pct_by_loops(z, coeffs, window, hop, cfg.fft_length)
    assert g.values.shape == expected.shape
    assert np.max(np.abs(g.values - expected)) <= 1e-12 * expected.max()


def test_matched_kernel_concentrates_chirp():
    """A kernel equal to the true IF slope must sharpen the ridge."""
    z = linear_chirp()
    cfg = PCTConfig(order=1, window=WindowSpec("hann", 64), hop_samples=4, fft_length=512)
    matched = pct_transform(z, PolynomialKernel((30.0,)), cfg)
    plain = pct_transform(z, PolynomialKernel.zero(1), cfg)
    w_matched = np.array([ridge_width_bins(r) for r in matched.values])
    w_plain = np.array([ridge_width_bins(r) for r in plain.values])
    assert w_matched.mean() < w_plain.mean()
    # matched ridge tracks 20 + 30 t within one bin
    df = matched.freqs_hz[1] - matched.freqs_hz[0]
    ridge = matched.freqs_hz[np.argmax(matched.values, axis=1)]
    expected = 20.0 + 30.0 * matched.times_s
    assert np.max(np.abs(ridge - expected)) <= df + 1e-9


def test_mismatched_kernel_defocuses():
    z = linear_chirp()
    cfg = PCTConfig(order=1, window=WindowSpec("hann", 64), hop_samples=4, fft_length=512)
    matched = pct_transform(z, PolynomialKernel((30.0,)), cfg)
    wrong = pct_transform(z, PolynomialKernel((-30.0,)), cfg)
    w_matched = np.mean([ridge_width_bins(r) for r in matched.values])
    w_wrong = np.mean([ridge_width_bins(r) for r in wrong.values])
    assert w_wrong > w_matched


def test_pct_transform_validation():
    z = linear_chirp(n=64)
    cfg = PCTConfig(order=2, window=WindowSpec("hann", 32), fft_length=64)
    with pytest.raises(ValueError):
        pct_transform(z, PolynomialKernel((1.0,)), cfg)  # order mismatch
    with pytest.raises(ValueError):
        pct_transform(linear_chirp(n=16), PolynomialKernel.zero(2), cfg)


def _same_scan(got, want):
    """Two band scans agree field for field and bit for bit."""
    return (got.method, got.meta) == (want.method, want.meta) and all(
        np.array_equal(a, b) for a, b in zip(got[:2] + got[4:], want[:2] + want[4:])
    )


@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize(
    "band_hz",
    [(5.0, 70.0), (0.0, 160.0), (40.0, 40.0), (40.1, 40.5), (39.9, 40.0), (-3.0, 0.2), (150.0, 900.0)],
)
def test_pct_band_grid_equals_full_grid_columns(analytic, band_hz):
    """A band scan straight from the transform's row blocks, band edges on a
    bin (40.0 Hz at 0.3125 Hz spacing), between bins and outside the axis,
    is the scan of the full grid's columns lo <= f <= hi bit for bit."""
    x = SampledSignal(np.random.default_rng(4).normal(size=333), 320.0, start_time_s=0.1)
    z = analytic_signal(x) if analytic else x
    kernel, cfg = PolynomialKernel((3.0, -7.5)), PCTConfig()
    full = pct_transform(z, kernel, cfg)
    keep = (full.freqs_hz >= band_hz[0]) & (full.freqs_hz <= band_hz[1])
    got = pct._chirplet(z, kernel, cfg).scan(band_hz)
    assert np.array_equal(got.freqs_hz, full.freqs_hz[keep])
    assert _same_scan(got, tfd._band_magnitudes(full, band_hz))


def test_pct_auto_band_grid_equals_full_grid_columns():
    """compare's PCT scans only its band: the scan of pct_auto's full final
    grid, its columns, axis and meta, from the same kernel fit."""
    x, band = gen_x2(snr=10.0, seed=1).signal, (5.0, 80.0)
    full, got = pct_auto(x), pct._pct(x, PCTConfig()).scan(band)
    keep = (full.freqs_hz >= band[0]) & (full.freqs_hz <= band[1])
    assert 0 < keep.sum() < full.n_freqs
    assert np.array_equal(got.freqs_hz, full.freqs_hz[keep])
    assert _same_scan(got, tfd._band_magnitudes(full, band))


def test_pct_empty_band_raises():
    """A band with no bin raises one ValueError text from the rows of every
    method-table entry and from a stored grid; every axis here is PCT's,
    0.3125 Hz apart."""
    z, cfg = linear_chirp(), CompareConfig(stft_fft=1024, wvd_fft=512)
    made = [producer(z, cfg) for producer in METHODS.values()]
    stored = pct_transform(z, PolynomialKernel.zero(2), PCTConfig())
    assert {rows.freqs_hz[1] for rows in made} == {stored.freqs_hz[1]} == {0.3125}
    for band in [(40.1, 40.2), (200.0, 300.0), (-5.0, -1.0), (60.0, 50.0), (np.nan, 50.0)]:
        errors = set()
        for scan in [rows.scan for rows in made] + [lambda b: tfd._band_magnitudes(stored, b)]:
            with pytest.raises(ValueError, match="band") as exc:
                scan(band)
            errors.add(str(exc.value))
        assert len(errors) == 1, errors


@pytest.mark.parametrize("band_hz", [None, (5.0, 70.0)])
@pytest.mark.parametrize("workers, rows", [(3, None), (3, 1), (3, 7), (1, 1), (1, 7)])
def test_pct_grid_does_not_depend_on_thread_count(band_hz, workers, rows):
    """Pooled, one-row and 7-row blocks give the serial one-block grid, or
    band scan, bit for bit; the 257 frames leave a short last block for 7
    rows and for the budget's rows (28 over the whole axis, 64 over the
    band).  The frames take the band DFT."""
    z = analytic_signal(gen_x2(snr=10.0, seed=1).signal)
    kernel, cfg = PolynomialKernel((-430.0, 2610.0)), PCTConfig()
    n_frames = len(z) - cfg.window.length_samples + 1
    dft = tfd._frame_dft(cfg.window, cfg.fft_length)
    band = tfd._band_indices(np.arange(cfg.fft_length // 2 + 1) * 320.0 / cfg.fft_length,
                             band_hz)
    scan = band_hz is not None
    made = pct._chirplet(z, kernel, cfg)
    with mock.patch.object(tfd, "_workers", lambda: 1), mock.patch.object(
        tfd, "_block_rows", lambda row_bytes: n_frames
    ):
        serial = made.scan(band_hz) if scan else made.grid()  # one block
    real_dft_rows, threads = tfd._dft_rows, set()

    def dft_rows(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real_dft_rows(*args, **kwargs)

    assert tfd._block_rows(tfd._dft_row_bytes(dft, band)) == (28 if band_hz is None else 64)
    blocks = tfd._block_rows if rows is None else (lambda row_bytes: rows)
    with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
        tfd, "_block_rows", blocks
    ), mock.patch.object(tfd, "_dft_rows", dft_rows):
        got = made.scan(band_hz) if scan else made.grid()
    assert any(name.startswith("tfbench") for name in threads) == (workers > 1)
    if scan:
        assert _same_scan(got, serial)
        assert _same_scan(serial, tfd._band_magnitudes(pct_transform(z, kernel, cfg), band_hz))
    else:
        assert np.array_equal(got.values, serial.values)
        assert np.array_equal(got.freqs_hz, serial.freqs_hz)
        assert got.meta == serial.meta


@pytest.mark.parametrize("signal", ["x1", "x2-snr10", "chirp"])
@pytest.mark.parametrize("compare_cfg", [False, True])
def test_estimate_kernel_band_iterations_equal_full_grid_iterations(monkeypatch, signal,
                                                                    compare_cfg):
    """Iterations on ridge-band scans give the fit and the final grid of
    iterations on full grids, bit for bit; only the final transform is a
    grid, and a full one."""
    z = {
        "x1": lambda: analytic_signal(gen_x1().signal),
        "x2-snr10": lambda: analytic_signal(gen_x2(snr=10.0, seed=1).signal),
        "chirp": linear_chirp,
    }[signal]()
    cc = CompareConfig()
    cfg = PCTConfig(ridge_band_hz=cc.band_hz, amp_threshold_frac=cc.amp_threshold_frac) \
        if compare_cfg else PCTConfig()
    real, calls = pct._chirplet, []

    def spy(z, kernel, cfg, **meta):
        # the rows, their grid and band scans recorded as (band_hz, scan)
        made = real(z, kernel, cfg, **meta)
        return SimpleNamespace(
            grid=lambda: calls.append((None, False)) or made.grid(),
            scan=lambda band_hz: calls.append((band_hz, True)) or made.scan(band_hz),
        )

    monkeypatch.setattr(pct, "_chirplet", spy)
    got = estimate_kernel(z, cfg)
    assert calls == [(cfg.ridge_band_hz, True)] * got.iterations + [(None, False)]

    def full_grids(z, kernel, cfg, **meta):
        # every transform builds its full grid; an iteration reads the ridge
        # band of it, as extract_ridge reads a grid
        grid = real(z, kernel, cfg, **meta).grid()
        return SimpleNamespace(grid=lambda: grid,
                               scan=lambda band_hz: tfd._band_magnitudes(grid, band_hz))

    monkeypatch.setattr(pct, "_chirplet", full_grids)
    want = estimate_kernel(z, cfg)
    assert (got.iterations, got.converged, got.if_coeffs) == (
        want.iterations, want.converged, want.if_coeffs
    )
    assert got.kernel == want.kernel
    assert np.array_equal(got.grid.values, want.grid.values)
    assert np.array_equal(got.grid.freqs_hz, want.grid.freqs_hz)
    assert np.array_equal(got.grid.times_s, want.grid.times_s)
    assert got.grid.meta == want.grid.meta


def test_frame_fft_error_becomes_the_pct_error_row():
    """A ValueError in one pooled frame-transform block is pct's error row,
    raised after every block of that transform ran, and the pool still
    serves the next compare."""
    sig = gen_x1()
    real_dft_rows, calls = tfd._dft_rows, itertools.count()

    def dft_rows(*args, **kwargs):
        # one call per frame block: PCT's frames take the band DFT
        if next(calls) == 1:
            raise ValueError("fft failed on the second block")
        return real_dft_rows(*args, **kwargs)

    n_frames = len(sig.signal) - PCTConfig().window.length_samples + 1
    with mock.patch.object(tfd, "_workers", lambda: 3), mock.patch.object(
        tfd, "_block_rows", lambda row_bytes: -(-n_frames // 3)  # one block per worker
    ):
        with mock.patch.object(tfd, "_dft_rows", dft_rows):
            failed = compare_methods(sig.signal, sig.true_if, methods=("pct",))
        assert next(calls) == 3  # every block of the first transform ran
        again = compare_methods(sig.signal, sig.true_if, methods=("pct",))
        want = compare_methods(sig.signal, sig.true_if, methods=("pct",))
    assert failed.results[0].error == "fft failed on the second block"
    assert again.results[0].error is None
    assert again.to_dict() == want.to_dict()


def test_estimate_kernel_stationary_tone():
    fs, n = 320.0, 320
    t = np.arange(n) / fs
    z = SampledSignal(np.exp(2j * np.pi * 40.0 * t), fs)
    fit = estimate_kernel(z, PCTConfig(order=1))
    assert abs(fit.kernel.coeffs[0]) < 1.0  # slope of a tone is zero
    assert fit.iterations <= 10
    assert fit.converged


def test_estimate_kernel_linear_chirp():
    fit = estimate_kernel(linear_chirp(), PCTConfig(order=2))
    tt = fit.grid.times_s
    err = fit.fitted_if_hz(tt) - (20.0 + 30.0 * tt)
    assert np.sqrt(np.mean(err**2)) < 0.5
    assert abs(fit.if_coeffs[2]) < 5.0  # quadratic term stays near zero


def test_estimate_kernel_deterministic():
    a = estimate_kernel(linear_chirp(), PCTConfig(order=2))
    b = estimate_kernel(linear_chirp(), PCTConfig(order=2))
    assert a.kernel.coeffs == b.kernel.coeffs
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.grid.values, b.grid.values)


def test_estimate_kernel_single_iteration_flagged():
    # one pass can never certify convergence; best iterate is still returned
    fit = estimate_kernel(linear_chirp(), PCTConfig(order=1, max_iterations=1))
    assert fit.iterations == 1
    assert not fit.converged
    assert fit.grid.meta["converged"] is False
    assert fit.grid.meta["iterations"] == 1


def test_estimate_kernel_insufficient_data():
    z = SampledSignal(np.zeros(320, dtype=complex), 320.0)
    with pytest.raises(InsufficientDataError):
        estimate_kernel(z, PCTConfig(order=2))


def test_pct_auto_on_real_signal():
    fs, n = 320.0, 320
    t = np.arange(n) / fs
    x = SampledSignal(np.sin(2 * np.pi * (20.0 * t + 15.0 * t * t)), fs)
    g = pct_auto(x, PCTConfig(order=2))
    assert g.method == "pct"
    assert g.meta["analytic_input"] is True
    assert "kernel_coeffs" in g.meta
    ridge = g.freqs_hz[np.argmax(g.values, axis=1)]
    expected = 20.0 + 30.0 * g.times_s
    interior = slice(10, -10)
    assert np.sqrt(np.mean((ridge[interior] - expected[interior]) ** 2)) < 2.0


def _script_fits(monkeypatch, script):
    """Make each ridge fit return the next scripted (IF coeffs, residual)."""
    fits = iter([(np.array(coeffs), residual) for coeffs, residual in script])
    monkeypatch.setattr(pct, "_fit_ridge_poly", lambda grid, cfg: next(fits))


def test_estimate_kernel_keeps_lowest_residual_without_convergence(monkeypatch):
    # each fit moves the IF by up to ~0.9 Hz, far above the 0.1 Hz tolerance
    _script_fits(monkeypatch, [([10.0, 1.0, 0.0], 3.0), ([10.0, 2.0, 0.0], 1.0),
                               ([10.0, 3.0, 0.0], 2.0)])
    z, cfg = linear_chirp(), PCTConfig(order=2, max_iterations=3)
    fit = estimate_kernel(z, cfg)
    assert (fit.iterations, fit.converged) == (3, False)
    assert fit.if_coeffs == (10.0, 2.0, 0.0)
    assert fit.kernel == PolynomialKernel((2.0, 0.0))
    expected = pct_transform(z, PolynomialKernel((2.0, 0.0)), cfg)
    np.testing.assert_array_equal(fit.grid.values, expected.values)
    assert fit.grid.meta == {**expected.meta, "iterations": 3, "converged": False}


def test_estimate_kernel_keeps_converged_fit_over_lower_residual(monkeypatch):
    _script_fits(monkeypatch, [([10.0, 1.0, 0.0], 1.0), ([10.0, 4.0, 0.0], 3.0),
                               ([10.0, 4.0, 0.0], 2.0), ([0.0, 0.0, 0.0], 0.0)])
    z, cfg = linear_chirp(), PCTConfig(order=2, max_iterations=5)
    fit = estimate_kernel(z, cfg)
    assert (fit.iterations, fit.converged) == (3, True)
    assert fit.if_coeffs == (10.0, 4.0, 0.0)
    assert fit.kernel == PolynomialKernel((4.0, 0.0))
    expected = pct_transform(z, PolynomialKernel((4.0, 0.0)), cfg)
    np.testing.assert_array_equal(fit.grid.values, expected.values)
    assert fit.grid.meta["converged"] is True


def test_pct_builds_no_frame_dft_once_one_is_cached(monkeypatch):
    """Every transform of a PCT run, the kernel iterations' and the final
    one, takes the one frame DFT cached for its window and fft_length: after
    a first run, estimate_kernel and compare's PCT scan build none."""
    x, cfg = gen_x2(snr=10.0, seed=1).signal, PCTConfig()
    pct_auto(x, cfg)
    real, built = tfd._band_dft, []

    def band_dft(*args, **kwargs):
        built.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(tfd, "_band_dft", band_dft)
    fit = estimate_kernel(analytic_signal(x), cfg)
    pct._pct(x, cfg).scan((5.0, 80.0))
    assert fit.iterations >= 2
    assert built == []
