import math

import numpy as np
import pytest

from tfbench.core import InsufficientDataError, SampledSignal, WindowSpec
from tfbench.evaluate import (
    CompareConfig,
    IFTrajectory,
    compare_methods,
    default_config,
    dominant_frequency,
    extract_ridge,
    nrmse,
    rmse,
    run_transform,
)
from tfbench import evaluate
from tfbench.synth import gen_x1
from tfbench.tfd import TFDGrid, stft


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


def test_compare_methods_score_component():
    sig = gen_x1()
    cfg = default_config("x1")
    cfg.score_component = 1
    forced = compare_methods(sig.signal, sig.true_if, methods=("stft",), config=cfg)
    free = compare_methods(sig.signal, sig.true_if, methods=("stft",))
    # free matching may use either tone, fixed matching only the 40 Hz one
    assert forced.results[0].nrmse >= free.results[0].nrmse
    cfg.score_component = 5
    bad = compare_methods(sig.signal, sig.true_if, methods=("stft",), config=cfg)
    assert "out of range" in bad.results[0].error


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


def test_method_table_names_every_method():
    assert set(evaluate.DEFAULT_METHODS) <= set(evaluate.METHODS)
    assert set(evaluate.METHODS) == {"stft", "wvd", "pwvd", "spwvd", "pct"}


def test_compare_methods_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the transform")

    monkeypatch.setattr(evaluate, "stft", broken)
    sig = gen_x1()
    with pytest.raises(TypeError, match="bug in the transform"):
        compare_methods(sig.signal, sig.true_if, methods=("stft",))
    # data and parameter errors still become error rows
    row = compare_methods(SampledSignal(np.zeros(320), 320.0), methods=("wvd",)).results[0]
    assert "all zero" in row.error
