"""End-to-end acceptance checks.

Each test prints (and records for the terminal summary) one pass/fail line,
so a full run gives a ten-line scoreboard of the benchmark's headline
behaviors: NRMSE orderings on both synthetic signals, cross-term and
aliasing reproduction, grid resolutions, marginal and degeneracy identities,
metric hand values, and kernel recovery.
"""

import math
import time

import numpy as np

from tfbench.core import IFTrajectory, SampledSignal, WindowSpec, analytic_signal
from tfbench.evaluate import compare_methods, default_config, nrmse, rmse, run_transform
from tfbench.pct import PCTConfig, PolynomialKernel, estimate_kernel, pct_transform
from tfbench.synth import gen_x1, gen_x2
from tfbench.tfd import psd_from_tfd, resolution_report, spwvd, stft, wvd


def nrmse_by_method(sig, config):
    report = compare_methods(sig.signal, sig.true_if, config=config)
    out = {}
    for r in report.results:
        assert r.error is None, f"{r.method}: {r.error}"
        out[r.method] = r.nrmse
    return out


def local_maxima_db(grid):
    """(freq, level-dB-re-peak) of every interior local maximum of the PSD."""
    p = psd_from_tfd(grid)
    db = 10.0 * np.log10(np.maximum(p.power, 1e-300) / p.power.max())
    out = []
    for i in range(1, p.power.size - 1):
        if p.power[i] > p.power[i - 1] and p.power[i] >= p.power[i + 1]:
            out.append((p.freqs_hz[i], db[i]))
    return out


def test_criterion_1_x1_ordering_and_runtime(record_criterion):
    sig = gen_x1()
    t0 = time.perf_counter()
    scores = nrmse_by_method(sig, default_config("x1"))
    elapsed = time.perf_counter() - t0
    ok = (
        scores["stft"] < 0.10
        and scores["pct"] < 0.10
        and scores["spwvd"] < 0.10
        and scores["wvd"] > 0.30
        and elapsed < 10.0
    )
    detail = (
        f"x1 NRMSE stft={scores['stft']:.4f} pct={scores['pct']:.4f} "
        f"spwvd={scores['spwvd']:.4f} (<0.10), wvd={scores['wvd']:.4f} (>0.30), "
        f"runtime {elapsed:.2f}s (<10s)"
    )
    record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_2_x2_ordering_across_seeds(record_criterion):
    holds = 0
    per_seed = []
    for seed in range(5):
        sig = gen_x2(snr=10.0, seed=seed)
        s = nrmse_by_method(sig, default_config("x2"))
        good = s["pct"] < s["stft"] < s["wvd"] and s["spwvd"] < s["stft"]
        holds += good
        per_seed.append(f"seed{seed}:{'ok' if good else 'no'}")
    ok = holds >= 4
    detail = (
        f"x2 ordering pct<stft<wvd and spwvd<stft held in {holds}/5 seeds "
        f"({', '.join(per_seed)}); need >=4"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_wvd_cross_term(record_criterion):
    sig = gen_x1()
    cfg = default_config("x1")
    cross = [
        (f, d) for f, d in local_maxima_db(run_transform(sig.signal, "wvd", cfg))
        if 29.0 <= f <= 31.0 and d > -20.0
    ]
    clean = {}
    for method in ("stft", "pct", "spwvd"):
        grid = run_transform(sig.signal, method, cfg)
        clean[method] = [
            (f, d) for f, d in local_maxima_db(grid) if 25.0 <= f <= 35.0 and d > -20.0
        ]
    ok = bool(cross) and not any(clean.values())
    detail = (
        f"WVD cross-term maxima near 30 Hz above -20 dB: {len(cross)}; "
        f"spurious 25-35 Hz maxima in stft/pct/spwvd: "
        f"{[len(v) for v in clean.values()]} (all must be 0)"
    )
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_grid_resolutions(record_criterion):
    sig = gen_x1()
    cfg1 = default_config("x1")
    cfg2 = default_config("x2")
    r1 = resolution_report(run_transform(sig.signal, "stft", cfg1))
    r2 = resolution_report(run_transform(sig.signal, "stft", cfg2))
    checks = [
        round(r1.temporal_resolution_ms, 4) == 12.5,
        round(r1.spectral_resolution_hz, 4) == 0.625,
        round(r2.spectral_resolution_hz, 4) == 2.5,
    ]
    for method in ("wvd", "spwvd"):
        rw = resolution_report(run_transform(sig.signal, method, cfg1))
        checks.append(round(rw.temporal_resolution_ms, 4) == 3.125)
    ok = all(checks)
    detail = (
        f"stft x1 grid {r1.temporal_resolution_ms:.4f} ms / "
        f"{r1.spectral_resolution_hz:.4f} Hz, stft x2 grid "
        f"{r2.spectral_resolution_hz:.4f} Hz, wvd-family 3.1250 ms"
    )
    record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_5_wvd_marginals(record_criterion):
    fs, n = 128.0, 128
    t = np.arange(n) / fs
    z = SampledSignal(np.exp(2j * np.pi * 32.0 * t), fs)
    g = wvd(z, n // 2)
    tm = g.values.sum(axis=1)
    expect_tm = (n // 2) * np.abs(z.samples) ** 2
    interior = slice(1, -1)
    rel_t = float(
        np.linalg.norm(tm[interior] - expect_tm[interior])
        / np.linalg.norm(expect_tm[interior])
    )
    fm = g.values.sum(axis=0)
    spec = np.abs(np.fft.fft(z.samples, n))[: n // 2] ** 2
    rel_f = float(np.linalg.norm(fm / np.linalg.norm(fm) - spec / np.linalg.norm(spec)))
    ok = rel_t < 1e-6 and rel_f < 1e-6
    detail = (
        f"128-sample tone: time marginal vs |z[n]|^2 rel L2 {rel_t:.2e}, "
        f"frequency marginal vs |Z(f)|^2 rel L2 {rel_f:.2e} (both < 1e-6)"
    )
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_degenerate_identities(record_criterion):
    z = analytic_signal(gen_x1().signal)
    cfg = PCTConfig(order=2, window=WindowSpec("hann", 128), hop_samples=4, fft_length=512)
    g_pct = pct_transform(z, PolynomialKernel.zero(2), cfg)
    g_stft = stft(z, cfg.window, cfg.hop_samples, cfg.fft_length)
    pct_err = float(np.max(np.abs(g_pct.values - g_stft.values)) / g_stft.values.max())

    n = len(z)
    full_span = WindowSpec("rectangular", 2 * ((n - 1) // 2) + 1)
    g_sp = spwvd(z, WindowSpec("hann", 1), full_span, 2048)
    g_wv = wvd(z, 2048)
    sp_err = float(np.max(np.abs(g_sp.values - g_wv.values)) / np.abs(g_wv.values).max())

    ok = pct_err <= 1e-12 and sp_err <= 1e-9
    detail = (
        f"PCT(zero kernel) vs STFT max rel diff {pct_err:.2e} (<=1e-12); "
        f"SPWVD(degenerate windows) vs WVD {sp_err:.2e} (<=1e-9)"
    )
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_metric_hand_values(record_criterion):
    def traj(freqs):
        freqs = np.asarray(freqs, dtype=float)
        return IFTrajectory(np.arange(freqs.size, dtype=float), freqs, np.ones(freqs.size, bool))

    vals = [
        (rmse(traj([20.0, 20.0, 20.0]), traj([22.0, 22.0, 22.0])), 2.0),
        (nrmse(traj([20.0, 20.0, 20.0]), traj([22.0, 22.0, 22.0])), 0.1),
        (rmse(traj([10.0, 20.0]), traj([12.0, 16.0])), math.sqrt(10.0)),
        (nrmse(traj([10.0, 20.0]), traj([12.0, 16.0])), math.sqrt(10.0) / 15.0),
    ]
    errs = [abs(got - want) for got, want in vals]
    ok = all(e <= 1e-12 for e in errs)
    detail = (
        "rmse/nrmse hand values 2.0, 0.1, sqrt(10), sqrt(10)/15 "
        f"reproduced, max abs err {max(errs):.2e} (<=1e-12)"
    )
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_kernel_recovery(record_criterion):
    fs = 320.0
    t = np.arange(320) / fs
    chirp = SampledSignal(np.exp(2j * np.pi * (20.0 * t + 15.0 * t * t)), fs)
    fit = estimate_kernel(chirp, PCTConfig(order=2))
    tt = fit.grid.times_s
    rms_lin = float(np.sqrt(np.mean((fit.fitted_if_hz(tt) - (20.0 + 30.0 * tt)) ** 2)))

    # the quadratic-IF burst: envelope and phase restart at onset 0.25 s
    tau = t - 0.25
    active = (t > 0.25) & (t <= 0.40)
    env = np.where(active, 0.5 - 0.5 * np.cos(2.0 * np.pi * 7.0 * tau), 0.0)
    phase = 2.0 * np.pi * ((870.0 * tau - 215.0) * tau + 20.0) * tau
    burst = SampledSignal(env * np.exp(1j * phase), fs)
    cfg = PCTConfig(
        order=2,
        ridge_band_hz=(0.5, 40.0),
        window=WindowSpec("hann", 21),
        hop_samples=1,
        fft_length=1024,
    )
    fit2 = estimate_kernel(burst, cfg)
    tt2 = fit2.grid.times_s
    interior = (tt2 > 0.27) & (tt2 <= 0.38)
    truth = 2610.0 * (tt2 - 0.25) ** 2 - 430.0 * (tt2 - 0.25) + 20.0
    rms_burst = float(np.sqrt(np.mean((fit2.fitted_if_hz(tt2) - truth)[interior] ** 2)))

    ok = rms_lin <= 0.5 and rms_burst <= 1.0
    detail = (
        f"linear chirp 20+30t fitted IF RMS {rms_lin:.4f} Hz (<=0.5); "
        f"quadratic burst chirp interior RMS {rms_burst:.4f} Hz (<=1.0)"
    )
    record_criterion(8, ok, detail)
    assert ok, detail


def test_criterion_9_analytic_contract(record_criterion):
    fs, n = 320.0, 320
    t = np.arange(n) / fs
    rng = np.random.default_rng(12)
    zr = analytic_signal(SampledSignal(rng.normal(size=n), fs))
    spec = np.fft.fft(zr.samples)
    suppression = float(np.max(np.abs(spec[1 : n // 2])) / max(np.max(np.abs(spec[n // 2 + 1 :])), 1e-300))

    zc = analytic_signal(SampledSignal(np.cos(2 * np.pi * 50.0 * t), fs))
    expected = np.exp(2j * np.pi * 50.0 * t)
    interior = slice(n // 10, -n // 10)
    max_err = float(np.max(np.abs(zc.samples[interior] - expected[interior])))

    ok = suppression > 1e9 and max_err < 1e-6
    detail = (
        f"negative-frequency suppression {suppression:.2e} (>1e9); "
        f"cos->exp interior max error {max_err:.2e} (<1e-6)"
    )
    record_criterion(9, ok, detail)
    assert ok, detail


def test_criterion_10_wvd_aliasing_of_real_input(record_criterion):
    fs, n, f0 = 320.0, 320, 100.0
    t = np.arange(n) / fs
    x = SampledSignal(np.cos(2 * np.pi * f0 * t), fs)
    # bilinear kernel of a real input folds about fs/4: 100 Hz aliases to 60
    g_wvd = wvd(x, 2048, use_analytic=False)
    folded = [
        (d, f) for f, d in local_maxima_db(g_wvd) if 55.0 <= f <= 65.0 and d > -20.0
    ]
    g_stft = stft(x, WindowSpec("hann", 128), 4, 512)
    p = psd_from_tfd(g_stft)
    below = p.power[p.freqs_hz < 80.0]
    stft_leak_db = float(10.0 * np.log10(below.max() / p.power.max()))
    ok = bool(folded) and stft_leak_db <= -20.0
    peak = max(folded) if folded else (float("nan"), float("nan"))
    detail = (
        f"real 100 Hz tone: WVD shows a folded peak at {peak[1]:.2f} Hz, "
        f"{peak[0]:.1f} dB re peak (>-20); STFT max below 80 Hz is "
        f"{stft_leak_db:.1f} dB (<=-20)"
    )
    record_criterion(10, ok, detail)
    assert ok, detail
