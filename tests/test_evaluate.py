import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from tfbench.core import IFTrajectory, InsufficientDataError, SampledSignal, WindowSpec, decimate
from tfbench.evaluate import (
    CompareConfig,
    ComparisonReport,
    MethodResult,
    compare_methods,
    default_config,
    nrmse,
    rmse,
    run_transform,
)
from tfbench import evaluate, tfd
from tfbench.pct import PCTConfig
from tfbench.synth import gen_x1, gen_x2
from tfbench.tfd import (
    ResolutionReport,
    TFDGrid,
    _band_indices,
    _band_magnitudes,
    _BandScan,
    dominant_frequency,
    extract_ridge,
    psd_from_tfd,
    resolution_report,
    spwvd,
    stft,
    wvd,
)


def traj(freqs, valid=None, times=None):
    freqs = np.asarray(freqs, dtype=float)
    if times is None:
        times = np.arange(freqs.size, dtype=float)
    if valid is None:
        valid = np.ones(freqs.size, dtype=bool)
    return IFTrajectory(times, freqs, valid)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        IFTrajectory([0.0, 1.0], [1.0], [True, True])
    with pytest.raises(ValueError):
        IFTrajectory([], [], [])
    with pytest.raises(ValueError):
        IFTrajectory([1.0, 0.5], [1.0, 2.0], [True, True])
    with pytest.raises(ValueError):
        IFTrajectory([0.0, 1.0], [1.0, -2.0], [True, True])
    # junk values are fine while masked invalid
    t = IFTrajectory([0.0, 1.0], [1.0, np.nan], [True, False])
    assert len(t) == 2


def test_resample_nearest_neighbor():
    t = traj([10.0, 20.0, 30.0], valid=[True, False, True], times=[0.0, 1.0, 2.0])
    r = t.resample(np.array([0.1, 0.9, 1.6, 2.5]))
    np.testing.assert_array_equal(r.freqs_hz, [10.0, 20.0, 30.0, 30.0])
    np.testing.assert_array_equal(r.valid, [True, False, True, True])
    # exact midpoint resolves to the left neighbor
    mid = t.resample(np.array([0.5]))
    assert mid.freqs_hz[0] == 10.0
    single = traj([7.0], times=[3.0]).resample(np.array([0.0, 10.0]))
    np.testing.assert_array_equal(single.freqs_hz, [7.0, 7.0])


def test_rmse_hand_values():
    assert rmse(traj([20.0, 20.0]), traj([20.0, 20.0])) == 0.0
    assert rmse(traj([20.0] * 5), traj([22.0] * 5)) == pytest.approx(2.0, abs=1e-12)
    assert rmse(traj([10.0, 20.0]), traj([12.0, 16.0])) == pytest.approx(
        math.sqrt(10.0), abs=1e-12
    )


def test_nrmse_hand_values():
    assert nrmse(traj([20.0] * 3), traj([22.0] * 3)) == pytest.approx(0.1, abs=1e-12)
    assert nrmse(traj([10.0, 20.0]), traj([12.0, 16.0])) == pytest.approx(
        math.sqrt(10.0) / 15.0, abs=1e-12
    )
    assert nrmse(traj([5.0, 5.0]), traj([5.0, 5.0])) == 0.0


def test_metrics_respect_joint_mask():
    a = traj([10.0, 99.0, 30.0], valid=[True, False, True])
    b = traj([12.0, 20.0, 34.0], valid=[True, True, True])
    # middle sample is masked out of the average entirely
    assert rmse(a, b) == pytest.approx(math.sqrt((4.0 + 16.0) / 2.0))


def test_metrics_error_paths():
    with pytest.raises(ValueError):
        rmse(traj([1.0, 2.0]), traj([1.0, 2.0], times=[0.0, 2.0]))
    with pytest.raises(InsufficientDataError):
        rmse(traj([1.0, 2.0], valid=[True, False]), traj([1.0, 2.0], valid=[False, True]))
    zero = traj([0.0, 0.0])
    with pytest.raises(ValueError):
        nrmse(zero, traj([1.0, 1.0]))


def grid_from_rows(rows, freqs, method="stft"):
    rows = np.asarray(rows, dtype=float)
    times = np.arange(rows.shape[0], dtype=float)
    return TFDGrid(times, np.asarray(freqs, dtype=float), rows, method, {})


def test_extract_ridge_argmax_and_band():
    g = grid_from_rows(
        [[0.0, 1.0, 0.2], [0.9, 0.1, 0.0], [0.0, 0.2, 0.8]], [10.0, 20.0, 30.0]
    )
    r = extract_ridge(g)
    np.testing.assert_array_equal(r.freqs_hz, [20.0, 10.0, 30.0])
    assert r.valid.all()
    banded = extract_ridge(g, band_hz=(15.0, 25.0))
    np.testing.assert_array_equal(banded.freqs_hz, [20.0, 20.0, 20.0])


def test_extract_ridge_threshold_masks_weak_frames():
    g = grid_from_rows([[1.0, 0.0], [0.01, 0.02], [0.5, 0.6]], [10.0, 20.0])
    r = extract_ridge(g, amp_threshold_frac=0.05)
    np.testing.assert_array_equal(r.valid, [True, False, True])


def test_extract_ridge_wvd_uses_magnitude():
    rows = [[-5.0, 3.0], [-1.0, 2.0]]
    as_wvd = extract_ridge(grid_from_rows(rows, [10.0, 20.0], method="wvd"))
    np.testing.assert_array_equal(as_wvd.freqs_hz, [10.0, 20.0])
    as_stft = extract_ridge(grid_from_rows(rows, [10.0, 20.0], method="stft"))
    np.testing.assert_array_equal(as_stft.freqs_hz, [20.0, 20.0])


def test_extract_ridge_degenerate_cases():
    zeros = grid_from_rows(np.zeros((3, 2)), [10.0, 20.0])
    r = extract_ridge(zeros, amp_threshold_frac=0.1)
    assert not r.valid.any()
    g = grid_from_rows([[1.0, 2.0]], [10.0, 20.0])
    with pytest.raises(ValueError):
        extract_ridge(g, band_hz=(50.0, 60.0))
    with pytest.raises(ValueError):
        extract_ridge(g, amp_threshold_frac=1.5)


def test_dominant_frequency_of_tone():
    fs, n = 320.0, 320
    t = np.arange(n) / fs
    sig = SampledSignal(np.sin(2 * np.pi * 40.0 * t), fs)
    g = stft(sig, WindowSpec("hann", 128), 4, 512)
    assert dominant_frequency(g) == pytest.approx(40.0, abs=0.625)
    assert dominant_frequency(g, band_hz=(5.0, 80.0)) == pytest.approx(40.0, abs=0.625)


def test_dominant_frequency_all_zero_grid_raises():
    g = stft(SampledSignal(np.zeros(320), 320.0), WindowSpec("hann", 128), 4, 512)
    with pytest.raises(InsufficientDataError):
        dominant_frequency(g, band_hz=(5.0, 80.0))
    row = compare_methods(SampledSignal(np.zeros(320), 320.0), methods=("stft",)).results[0]
    assert row.dominant_freq_hz is None and "all zero" in row.error


@pytest.mark.parametrize(
    "freqs",
    [np.arange(2048) * 320.0 / 4096.0, np.arange(257) * (1000.0 / 3.0) / 512, np.array([7.5])],
)
@pytest.mark.parametrize(
    "band",
    [None, (5.0, 80.0), (0.0, 160.0), (-1.0, 0.0), (7.5, 7.5), (10.0, 10.01),
     (10.0, 10.1), (79.9, 1e9), (-np.inf, np.inf), (200.0, 300.0), (np.nan, 80.0),
     (5.0, np.nan)],
)
def test_band_indices_slice_selects_the_band_mask(freqs, band):
    if band is None:
        assert np.array_equal(np.arange(freqs.size)[_band_indices(freqs, band)],
                              np.arange(freqs.size))
        return
    mask = (freqs >= band[0]) & (freqs <= band[1])
    if not mask.any():
        with pytest.raises(ValueError, match="contains no grid frequencies"):
            _band_indices(freqs, band)
        return
    band_slice = _band_indices(freqs, band)
    assert isinstance(band_slice, slice)
    assert np.array_equal(np.arange(freqs.size)[band_slice], np.nonzero(mask)[0])


def test_dominant_frequency_judges_the_band_only():
    # power outside the band, none inside: no in-band dominant frequency
    g = grid_from_rows([[0.0, 0.0, 5.0], [0.0, 0.0, 4.0]], [10.0, 20.0, 30.0])
    with pytest.raises(InsufficientDataError, match="all zero"):
        dominant_frequency(g, band_hz=(10.0, 20.0))
    assert dominant_frequency(g, band_hz=(10.0, 30.0)) == 30.0
    w = grid_from_rows([[0.0, -3.0, 2.0], [0.0, -1.0, 1.0]], [10.0, 20.0, 30.0], "wvd")
    assert dominant_frequency(w, band_hz=(5.0, 25.0)) == 20.0  # by magnitude


def test_band_grids_give_the_full_grids_ridge_and_dominant_frequency():
    """The WVD family's band scans, made from its row blocks, give the ridge
    and dominant frequency that the public readers find in the full grid."""
    sig = gen_x1().signal
    band = (5.0, 80.0)
    tw, fw = WindowSpec("hann", 31), WindowSpec("hann", 63)
    for method, time_window, freq_window in (("wvd", None, None), ("spwvd", tw, fw)):
        full = (wvd(sig, 1280) if method == "wvd" else spwvd(sig, tw, fw, 1280))
        limited = tfd._wvd_family(method, sig, 1280, True, time_window, freq_window).scan(band)
        assert limited.freqs_hz.size < full.n_freqs
        assert tfd._dominant(limited) == dominant_frequency(full, band)
        a, b = extract_ridge(full, band, 0.05), tfd._ridge(limited, 0.05)
        assert np.array_equal(a.freqs_hz, b.freqs_hz) and np.array_equal(a.valid, b.valid)


def _random_grid(method, shape, ties, seed):
    """Signed values for the WVD family, non-negative ones for STFT; with
    ``ties`` a few integers, so rows repeat their maximum."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(-3, 4, size=shape).astype(float) if ties else rng.normal(size=shape)
    vals = vals if method == "wvd" else np.abs(vals)
    return grid_from_rows(vals, 10.0 + np.arange(shape[1]), method)


@pytest.mark.parametrize("method", ["wvd", "stft"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (12, 1), (23, 17), (40, 6)])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("scan_rows", [1, 5, 1000])
def test_band_scans_match_whole_array_references(method, shape, ties, workers, scan_rows):
    g = _random_grid(method, shape, ties, seed=sum(shape))
    mags = np.abs(g.values) if method == "wvd" else g.values
    with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
        tfd, "_BLOCK_BYTES", scan_rows * 8 * shape[1]
    ):
        ridge = extract_ridge(g, amp_threshold_frac=0.5)
        psd = psd_from_tfd(g)
        dominant = dominant_frequency(g) if mags.any() else None
    arg = np.argmax(mags, axis=1)  # first of equals
    peaks = mags[np.arange(shape[0]), arg]
    assert np.array_equal(ridge.freqs_hz, g.freqs_hz[arg])
    global_peak = max(peaks.max(), 0.0)
    assert np.array_equal(ridge.valid, (peaks >= 0.5 * global_peak) & (global_peak > 0))
    if dominant is not None:
        assert dominant == g.freqs_hz[np.argmax(mags.mean(axis=0))]
    mean = mags.mean(axis=0)
    want = mean / mean.sum() if mags.any() else mean
    np.testing.assert_allclose(psd.power, want, rtol=1e-15, atol=0.0)


def test_band_scans_do_not_depend_on_thread_count():
    g = _random_grid("wvd", (50, 30), ties=False, seed=7)
    got = []
    for workers in (1, 2, 3):
        with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
            tfd, "_BLOCK_BYTES", 4 * 8 * 30
        ):
            got.append((tfd._band_magnitudes(g, (12.0, 30.0)), psd_from_tfd(g).power))
    for scan, power in got[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(scan[1:], got[0][0][1:]))
        assert np.array_equal(power, got[0][1])


def test_band_scans_of_an_all_zero_band():
    vals = np.random.default_rng(3).normal(size=(20, 8))
    vals[:, 2:5] = 0.0
    g = grid_from_rows(vals, 10.0 + np.arange(8), "wvd")
    with mock.patch.object(tfd, "_workers", lambda: 3), mock.patch.object(
        tfd, "_BLOCK_BYTES", 3 * 8 * 3
    ):
        ridge = extract_ridge(g, band_hz=(12.0, 14.0))
        with pytest.raises(InsufficientDataError, match="all zero"):
            dominant_frequency(g, band_hz=(12.0, 14.0))
    assert not ridge.valid.any()
    assert np.array_equal(ridge.freqs_hz, np.full(20, 12.0))


def test_worker_error_becomes_the_method_error_row():
    """A ValueError in a pooled lag-transform block is that method's error
    row, and the pool still serves the next transform."""
    sig, methods = gen_x1(), ("stft", "spwvd")
    real_dft_rows, calls = tfd._dft_rows, itertools.count()

    def dft_rows(*args, **kwargs):
        # one call per lag block: SPWVD's 32 lags take the band DFT
        if next(calls) == 1:
            raise ValueError("hfft failed on the second block")
        return real_dft_rows(*args, **kwargs)

    n = len(sig.signal)
    with mock.patch.object(tfd, "_workers", lambda: 3), mock.patch.object(
        tfd, "_block_rows", lambda row_bytes: -(-n // 3)  # one block per worker
    ):
        with mock.patch.object(tfd, "_dft_rows", dft_rows):
            failed = compare_methods(sig.signal, sig.true_if, methods=methods)
        again = compare_methods(sig.signal, sig.true_if, methods=methods)
        want = compare_methods(sig.signal, sig.true_if, methods=methods)
    assert next(calls) == 3  # every block ran
    assert failed.results[0].error is None
    assert failed.results[1].error == "hfft failed on the second block"
    assert again.results[1].error is None
    assert again.to_dict() == want.to_dict()


def test_compare_methods_on_x1():
    sig = gen_x1()
    report = compare_methods(sig.signal, sig.true_if, signal_id="x1")
    assert report.signal_id == "x1"
    by_method = {r.method: r for r in report.results}
    assert set(by_method) == {"stft", "pct", "wvd", "spwvd"}
    for r in by_method.values():
        assert r.error is None
        assert r.nrmse is not None and r.nrmse >= 0.0
        assert r.n_scored > 0
        assert r.resolution is not None
        assert r.ridge is not None
    # tuned defaults keep the sharp estimators accurate on the clean signal
    assert by_method["stft"].nrmse < 0.10
    assert by_method["wvd"].nrmse > by_method["spwvd"].nrmse


def test_compare_methods_without_truth():
    sig = gen_x1()
    report = compare_methods(sig.signal, methods=("stft",))
    r = report.results[0]
    assert r.nrmse is None
    assert r.dominant_freq_hz is not None
    assert r.ridge is not None


def test_compare_methods_unknown_method_is_captured():
    sig = gen_x1()
    report = compare_methods(sig.signal, sig.true_if, methods=("stft", "wavelet"))
    rows = {r.method: r for r in report.results}
    assert rows["stft"].error is None
    assert "unknown method" in rows["wavelet"].error
    with pytest.raises(ValueError):
        compare_methods(sig.signal, sig.true_if, methods=())


def test_compare_methods_rejects_empty_truth():
    sig = gen_x1()
    with pytest.raises(ValueError, match="at least one trajectory"):
        compare_methods(sig.signal, [], methods=("stft",))


@pytest.mark.parametrize("frac", [-0.5, 1.0, math.nan])
def test_compare_methods_rejects_an_out_of_range_threshold_before_any_method(frac):
    sig = gen_x2(snr=10.0, seed=1)
    cfg = default_config("x2")
    cfg.amp_threshold_frac = frac
    cfg.pct = PCTConfig(ridge_band_hz=cfg.band_hz)
    with mock.patch.object(evaluate, "_run_method", side_effect=AssertionError("a method ran")):
        with pytest.raises(ValueError, match=r"amp_threshold_frac must lie in \[0, 1\)"):
            compare_methods(sig.signal, sig.true_if, config=cfg)


def test_compare_methods_score_component():
    sig = gen_x1()
    cfg = default_config("x1")
    cfg.score_component = 1
    forced = compare_methods(sig.signal, sig.true_if, methods=("stft",), config=cfg)
    free = compare_methods(sig.signal, sig.true_if, methods=("stft",))
    # free matching may use either tone, fixed matching only the 40 Hz one
    assert forced.results[0].nrmse >= free.results[0].nrmse
    cfg.score_component = 5
    with pytest.raises(ValueError, match="score_component 5 out of range"):
        compare_methods(sig.signal, sig.true_if, methods=("stft",), config=cfg)
    for component in (1.0, True):
        cfg.score_component = component
        with pytest.raises(ValueError, match="score_component must be an integer"):
            compare_methods(sig.signal, sig.true_if, methods=("stft",), config=cfg)
    cfg.score_component = np.int64(1)
    assert compare_methods(sig.signal, sig.true_if, methods=("stft",),
                           config=cfg).results[0].nrmse == forced.results[0].nrmse
    # a non-integer size is the method's own error row, not an escaped IndexError
    cfg.score_component, cfg.stft_hop, cfg.wvd_fft = None, 2.5, 512.5
    rows = compare_methods(sig.signal, sig.true_if, methods=("stft", "wvd"), config=cfg).results
    assert [r.error for r in rows] == ["hop_samples must be an integer, got 2.5",
                                       "fft_length must be an integer, got 512.5"]


def test_default_config_profiles():
    x1 = default_config("x1")
    x2 = default_config("x2")
    assert x1.stft_fft == 512
    assert x2.stft_fft == 128
    assert x1.band_hz == (5.0, 80.0)


def test_run_transform_methods():
    sig = gen_x1()
    cfg = CompareConfig()
    for method in ("stft", "wvd", "pwvd", "spwvd"):
        g = run_transform(sig.signal, method, cfg)
        assert g.method == method
    with pytest.raises(ValueError):
        run_transform(sig.signal, "melspec", cfg)


def test_report_serialization():
    sig = gen_x1()
    report = compare_methods(sig.signal, sig.true_if, methods=("stft", "bogus"))
    doc = report.to_dict()
    assert doc["signal_id"] == "signal"
    assert doc["results"][0]["method"] == "stft"
    assert "nrmse" in doc["results"][0]
    assert "resolution" in doc["results"][0]
    assert "error" in doc["results"][1]
    table = report.format_table()
    assert "stft" in table and "bogus" in table
    assert table.endswith("\n")


def test_method_result_row_holds_its_set_fields():
    ridge = IFTrajectory([0.0, 1.0], [10.0, 11.0], [True, True])
    row = MethodResult(
        "pct", nrmse=0.25, n_scored=2, resolution=ResolutionReport(12.5, 0.625, 160.0, 80.0),
        converged=False, ridge=ridge,
    ).to_dict()
    # False is a value, not an absent field; None fields and the ridge are never written
    assert row == {
        "method": "pct",
        "nrmse": 0.25,
        "n_scored": 2,
        "converged": False,
        "resolution": {
            "temporal_resolution_ms": 12.5,
            "spectral_resolution_hz": 0.625,
            "nyquist_hz": 160.0,
            "folding_hz": 80.0,
        },
    }
    assert MethodResult("wvd", error="no band").to_dict() == {"method": "wvd", "error": "no band"}


def test_if_trajectory_arrays_are_read_only():
    traj = IFTrajectory([0.0, 1.0], [10.0, 11.0], [True, False])
    for name in ("times_s", "freqs_hz", "valid"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 1


def test_method_table_names_every_method():
    assert set(evaluate.DEFAULT_METHODS) <= set(evaluate.METHODS)
    assert set(evaluate.METHODS) == {"stft", "wvd", "pwvd", "spwvd", "pct"}


def test_compare_methods_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the transform")

    sig = gen_x1()
    with monkeypatch.context() as patched:
        # compare's STFT scan runs numpy's FFT on its frames
        patched.setattr(np.fft, "fft", broken)
        with pytest.raises(TypeError, match="bug in the transform"):
            compare_methods(sig.signal, sig.true_if, methods=("stft",))
    # data and parameter errors still become error rows
    row = compare_methods(SampledSignal(np.zeros(320), 320.0), methods=("wvd",)).results[0]
    assert "all zero" in row.error


@pytest.mark.parametrize("method", ["pct", "spwvd"])
def test_compare_methods_propagates_band_dft_programming_errors(monkeypatch, method):
    """A TypeError in a pooled block's band DFT is a bug, not an error row."""
    real_dft_rows, calls = tfd._dft_rows, itertools.count()

    def broken(*args, **kwargs):
        if next(calls) == 1:
            raise TypeError("bug in the band DFT")
        return real_dft_rows(*args, **kwargs)

    sig = gen_x1()
    monkeypatch.setattr(tfd, "_workers", lambda: 3)
    monkeypatch.setattr(tfd, "_block_rows", lambda row_bytes: 100)
    monkeypatch.setattr(tfd, "_dft_rows", broken)
    with pytest.raises(TypeError, match="bug in the band DFT"):
        compare_methods(sig.signal, sig.true_if, methods=(method,))
    assert next(calls) > 2  # the other blocks of that transform still ran


ALL_METHODS = ("stft", "wvd", "pwvd", "spwvd", "pct")


def _long_x2():
    """compare-long's record: 4 s of x2 at 1600 Hz, SNR 10, decimated to N=1280."""
    sig = gen_x2(sample_rate_hz=1600.0, duration_s=4.0, snr=10.0, seed=1)
    return decimate(sig.signal, 5), sig.true_if


COMPARE_SIGNALS = {
    "x1": lambda: (gen_x1().signal, gen_x1().true_if),
    "x2-snr10": lambda: (gen_x2(snr=10.0, seed=1).signal, gen_x2(snr=10.0, seed=1).true_if),
    "x2-long": _long_x2,
}


def _collected_grid_report(x, truth, cfg, signal_id):
    """compare's report from full-width grids read through the public readers."""
    results = []
    for method in ALL_METHODS:
        grid = run_transform(x, method, cfg)
        ridge = extract_ridge(grid, cfg.band_hz, cfg.amp_threshold_frac)
        result = MethodResult(
            method,
            converged=grid.meta.get("converged"),
            resolution=resolution_report(grid),
            dominant_freq_hz=dominant_frequency(grid, cfg.band_hz),
            ridge=ridge,
        )
        result.rmse_hz, result.nrmse, result.n_scored = evaluate._score(ridge, truth, None)
        results.append(result)
    return ComparisonReport(signal_id, results)


@pytest.fixture(scope="module")
def collected_reports():
    reports = {}
    for signal_id, make in COMPARE_SIGNALS.items():
        x, truth = make()
        cfg = default_config(signal_id[:2])
        reports[signal_id] = (x, truth, cfg, _collected_grid_report(x, truth, cfg, signal_id))
    return reports


@pytest.mark.parametrize("signal_id", list(COMPARE_SIGNALS))
@pytest.mark.parametrize("workers, one_row_blocks", [(1, False), (3, False), (3, True)])
def test_compare_report_equals_the_collected_grid_report(collected_reports, signal_id, workers,
                                                         one_row_blocks):
    """compare reads each method in one band scan, the WVD family's straight
    from its row blocks; its report and ridges are those of full grids read
    by extract_ridge, dominant_frequency and resolution_report."""
    x, truth, cfg, want = collected_reports[signal_id]
    budget = 1 if one_row_blocks else tfd._BLOCK_BYTES
    with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
        tfd, "_BLOCK_BYTES", budget
    ):
        got = compare_methods(x, truth, ALL_METHODS, cfg, signal_id=signal_id)
    assert got.to_dict() == want.to_dict()
    assert got.format_table() == want.format_table()
    for a, b in zip(got.results, want.results):
        assert a.error is None
        assert np.array_equal(a.ridge.times_s, b.ridge.times_s)
        assert np.array_equal(a.ridge.freqs_hz, b.ridge.freqs_hz)
        assert np.array_equal(a.ridge.valid, b.ridge.valid)


def test_compare_wvd_family_memory_is_bounded_by_blocks_not_by_n_squared():
    """At N=1280 and N=2560, compare's WVD and SPWVD together hold less than
    one N=1280 band grid: their rows are scanned block by block."""
    cfg = default_config("x2")
    k = _band_indices(np.arange(8192) * 320.0 / 16384, cfg.band_hz)
    one_band_grid = 1280 * (k.stop - k.start) * 8  # 1280 x 3841 float64, 39 MB
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for duration in (4.0, 8.0):
            x = decimate(gen_x2(sample_rate_hz=1600.0, duration_s=duration, snr=10.0).signal, 5)
            assert len(x) == 320 * duration
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = compare_methods(x, None, ("wvd", "spwvd"), cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert all(r.error is None for r in report.results)
            assert peak < one_band_grid
    finally:
        if not tracing:
            tracemalloc.stop()


def test_compare_methods_rejects_a_duplicate_method_before_any_runs(monkeypatch):
    ran = []
    real = evaluate._scan_method
    monkeypatch.setattr(evaluate, "_scan_method",
                        lambda x, method, cfg: ran.append(method) or real(x, method, cfg))
    sig = gen_x1()
    with pytest.raises(ValueError, match=r"^duplicate methods \['pct', 'stft'\]$"):
        compare_methods(sig.signal, sig.true_if, ("stft", "pct", "wvd", "pct", "stft"))
    assert ran == []


@pytest.fixture(scope="module")
def stored_grid_scans():
    """Each signal's band scans of every method, read from run_transform's
    full grids."""
    scans = {}
    for signal_id, make in COMPARE_SIGNALS.items():
        x, _ = make()
        cfg = default_config(signal_id[:2])
        for method in ALL_METHODS:
            grid = run_transform(x, method, cfg)
            scans[signal_id, method] = (x, cfg, _band_magnitudes(grid, cfg.band_hz))
            del grid
    return scans


@pytest.mark.parametrize("signal_id", list(COMPARE_SIGNALS))
@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", [None, 20000])
def test_streamed_scan_equals_the_scan_of_the_stored_grid(stored_grid_scans, signal_id, method,
                                                          workers, budget):
    """compare's scans of every method, PCT's kernel iterations included, are
    streamed from row blocks; they are the band scans of run_transform's
    stored full grids field for field and bit for bit, for any thread count
    and block size (20000 bytes is one or two rows of a 512- or 1024-point
    FFT): the method table's grid use and scan use agree."""
    x, cfg, want = stored_grid_scans[signal_id, method]
    with mock.patch.object(tfd, "_workers", lambda: workers), mock.patch.object(
        tfd, "_BLOCK_BYTES", tfd._BLOCK_BYTES if budget is None else budget
    ):
        got = evaluate._scan_method(x, method, cfg)
    assert isinstance(got, _BandScan)
    assert (got.method, got.meta) == (want.method, want.meta)
    for name in ("times_s", "freqs_hz", "argmax", "peak", "col_sum"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_compare_builds_no_grid(monkeypatch):
    def no_grid(self):
        raise ValueError("compare built a grid")

    monkeypatch.setattr(TFDGrid, "__post_init__", no_grid)
    for signal_id in ("x1", "x2-snr10"):
        x, truth = COMPARE_SIGNALS[signal_id]()
        report = compare_methods(x, truth, ALL_METHODS, default_config(signal_id[:2]))
        assert [r.method for r in report.results] == list(ALL_METHODS)
        assert [r.error for r in report.results] == [None] * len(ALL_METHODS)
    with pytest.raises(ValueError, match="compare built a grid"):
        run_transform(x, "stft", default_config("x2"))


def test_compare_pct_memory_is_bounded_by_blocks_not_by_grids():
    """compare's PCT on the 4 s record holds no grid: the kernel iterations
    and the final transform are read in row blocks.  One 1217 x 241 band
    grid alone is 2.3 MB; two workers' blocks stay under 2 MiB."""
    x, _ = _long_x2()
    cfg = default_config("x2")
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with mock.patch.object(tfd, "_workers", lambda: 2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scan = evaluate._scan_method(x, "pct", cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert scan.times_s.size == 1217 and scan.freqs_hz.size == 241
    assert peak < 2 * 1024 * 1024
