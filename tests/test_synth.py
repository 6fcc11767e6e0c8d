import math

import numpy as np
import pytest

from tfbench.core import IFTrajectory
from tfbench.synth import SyntheticSignal, chirp_if_hz, gen_x1, gen_x2, true_if


@pytest.mark.parametrize("t_ref_mode", ["onset", "shared"])
def test_x1_burst_support_and_envelope(t_ref_mode):
    """Each burst is a non-negative 7 Hz raised cosine on the half-open
    (onset, end]; under "shared" a burst would start at nonzero amplitude, so
    the onset samples show the support is open there."""
    sig = gen_x1(t_ref_mode=t_ref_mode, shared_t_ref_s=0.75)
    t = sig.signal.times()
    tone = np.sin(2.0 * np.pi * 20.0 * t + 94.0)
    env = np.zeros_like(t)
    for onset, end, peak in ((0.25, 0.40, 1.0), (0.70, 0.83, 0.90)):
        support = (t > onset) & (t <= end)
        t_ref = 0.75 if t_ref_mode == "shared" else onset
        env[support] = peak * (0.5 - 0.5 * np.cos(2.0 * np.pi * 7.0 * (t[support] - t_ref)))
    np.testing.assert_allclose(sig.components[0].samples, -env * tone, rtol=1e-12, atol=1e-15)
    # comp0 = -A(t) * tone, so -comp0 * tone = A(t) * tone**2 has A's sign
    assert np.all(-sig.components[0].samples * tone >= 0.0)
    valid = sig.true_if[0].valid
    np.testing.assert_array_equal(valid, env > 0.0)
    # samples 80, 128 and 224 fall exactly on 0.25, 0.40 and 0.70 s
    assert (t[80], t[128], t[224]) == (0.25, 0.40, 0.70)
    assert valid[[81, 128, 225]].all() and not valid[[80, 129, 224]].any()
    assert sig.signal.samples[80] == 0.0 and sig.signal.samples[224] == 0.0


def test_x1_structure():
    sig = gen_x1()
    assert sig.signal_id == "x1"
    assert len(sig.signal) == 320
    assert sig.signal.sample_rate_hz == 320.0
    assert len(sig.components) == 2
    # noiseless: observed signal is the clean sum
    np.testing.assert_array_equal(sig.signal.samples, sig.clean.samples)
    total = sig.components[0].samples + sig.components[1].samples
    np.testing.assert_allclose(sig.signal.samples, total, atol=1e-15)


def test_x1_silence_outside_bursts():
    sig = gen_x1()
    t = sig.signal.times()
    gap = (t <= 0.25) | ((t > 0.40) & (t <= 0.70)) | (t > 0.83)
    np.testing.assert_array_equal(sig.signal.samples[gap], 0.0)
    assert np.any(sig.signal.samples != 0.0)


def test_x1_burst_peaks():
    sig = gen_x1()
    t = sig.signal.times()
    env0 = np.abs(sig.components[0].samples)  # |comp0| <= envelope
    b1 = (t > 0.25) & (t <= 0.40)
    b2 = (t > 0.70) & (t <= 0.83)
    assert 0.9 < env0[b1].max() <= 1.0
    assert 0.75 < env0[b2].max() <= 0.9


def test_x1_component_power_ratio():
    # second tone is scaled 0.9, so its power is 0.81x the first's
    sig = gen_x1()
    p0 = np.mean(sig.components[0].samples ** 2)
    p1 = np.mean(sig.components[1].samples ** 2)
    assert p1 / p0 == pytest.approx(0.81, rel=0.05)


def test_x1_truth_trajectories():
    sig = gen_x1()
    t0 = true_if(sig, 0)
    t1 = true_if(sig, 1)
    np.testing.assert_array_equal(t0.freqs_hz, 20.0)
    np.testing.assert_array_equal(t1.freqs_hz, 40.0)
    # truth is valid exactly where the shared envelope is nonzero, and no
    # tone sample on this grid falls on a zero of its sine
    np.testing.assert_array_equal(t0.valid, t1.valid)
    np.testing.assert_array_equal(t0.valid, sig.components[0].samples != 0.0)
    with pytest.raises(ValueError):
        true_if(sig, 2)
    with pytest.raises(ValueError):
        true_if(sig, -1)


def test_x1_deterministic():
    a = gen_x1()
    b = gen_x1()
    np.testing.assert_array_equal(a.signal.samples, b.signal.samples)


def test_x1_shared_reference_mode():
    # "shared" evaluates every burst cosine against t = 0.75
    sig = gen_x1(t_ref_mode="shared", shared_t_ref_s=0.75)
    t = sig.signal.times()
    b1 = (t > 0.25) & (t <= 0.40)
    env = np.abs(sig.components[0].samples / np.sin(2 * np.pi * 20.0 * t + 94.0))
    expected = 0.5 - 0.5 * np.cos(14.0 * np.pi * (t[b1] - 0.75))
    np.testing.assert_allclose(env[b1], expected, atol=1e-9)
    onset = gen_x1()
    assert not np.allclose(onset.signal.samples[b1], sig.signal.samples[b1])
    with pytest.raises(ValueError):
        gen_x1(t_ref_mode="center")


def test_grid_validation():
    with pytest.raises(ValueError):
        gen_x1(sample_rate_hz=100.0)
    with pytest.raises(ValueError):
        gen_x1(duration_s=0.5)


def test_chirp_if_values():
    # IF = 3*870*tau^2 + 2*(-215)*tau + 20
    assert chirp_if_hz(0.0) == pytest.approx(20.0)
    assert chirp_if_hz(0.10) == pytest.approx(3.1)
    assert chirp_if_hz(0.15) == pytest.approx(14.225)
    tau_vertex = 430.0 / 5220.0
    # parabola minimum: 20 - 430^2 / (4 * 2610)
    assert chirp_if_hz(tau_vertex) == pytest.approx(2.28927, abs=1e-4)


def test_chirp_if_matches_phase_derivative():
    """Finite-difference the phase polynomial as an independent IF oracle."""
    tau = np.linspace(0.005, 0.145, 57)
    h = 1e-6

    def phase(u):
        return 2.0 * np.pi * (870.0 * u**2 - 215.0 * u + 20.0) * u

    fd = (phase(tau + h) - phase(tau - h)) / (2.0 * h) / (2.0 * np.pi)
    np.testing.assert_allclose(chirp_if_hz(tau), fd, atol=0.5)


def test_x2_structure_and_noise():
    sig = gen_x2(seed=0)
    assert sig.signal_id == "x2"
    assert len(sig.signal) == 320
    # noisy observation differs from the clean sum
    assert not np.array_equal(sig.signal.samples, sig.clean.samples)
    total = sig.components[0].samples + sig.components[1].samples
    np.testing.assert_allclose(sig.clean.samples, total, atol=1e-15)


def test_x2_noiseless_and_seeding():
    clean = gen_x2(snr=math.inf)
    np.testing.assert_array_equal(clean.signal.samples, clean.clean.samples)
    a = gen_x2(seed=5)
    b = gen_x2(seed=5)
    c = gen_x2(seed=6)
    np.testing.assert_array_equal(a.signal.samples, b.signal.samples)
    assert not np.array_equal(a.signal.samples, c.signal.samples)


def test_synthetic_arrays_are_read_only():
    # the two components share one valid mask, and a noiseless record one
    # SampledSignal as signal and clean, so neither may be written through
    sig = gen_x1()
    with pytest.raises(ValueError, match="read-only"):
        sig.true_if[0].valid[0] = True
    with pytest.raises(ValueError, match="read-only"):
        sig.signal.samples[0] = 9.0
    assert not sig.true_if[1].valid[0]
    clean = gen_x2(snr=math.inf)
    with pytest.raises(ValueError, match="read-only"):
        clean.signal.samples[0] = 9.0


def test_x2_snr_calibration():
    sig = gen_x2(snr=10.0, seed=1)
    noise = sig.signal.samples - sig.clean.samples
    # a 320-sample draw is coarse; allow a wide band around the target ratio
    ratio = np.mean(sig.clean.samples**2) / np.mean(noise**2)
    assert 6.0 < ratio < 16.0


def test_x2_chirp_truth_restarts_per_burst():
    sig = gen_x2(snr=math.inf)
    t = sig.signal.times()
    traj = true_if(sig, 1)
    b1 = (t > 0.25) & (t <= 0.40)
    b2 = (t > 0.70) & (t <= 0.83)
    np.testing.assert_allclose(traj.freqs_hz[b1], chirp_if_hz(t[b1] - 0.25), atol=1e-12)
    np.testing.assert_allclose(traj.freqs_hz[b2], chirp_if_hz(t[b2] - 0.70), atol=1e-12)
    # IF starts at 20 Hz at each onset and dips toward the vertex
    assert traj.freqs_hz[b1][0] == pytest.approx(20.0, abs=1.5)
    assert traj.freqs_hz[b1].min() < 3.0


def test_x2_tone_truth_constant():
    sig = gen_x2()
    traj = true_if(sig, 0)
    np.testing.assert_array_equal(traj.freqs_hz, 40.0)


def test_x2_burst_peaks():
    sig = gen_x2(snr=math.inf)
    t = sig.signal.times()
    env_tone = np.abs(sig.components[0].samples)
    b2 = (t > 0.70) & (t <= 0.83)
    # second burst peaks at 0.5, tone scale is -0.5
    assert env_tone[b2].max() == pytest.approx(0.25, abs=0.02)


def test_x2_parameter_validation():
    with pytest.raises(ValueError):
        gen_x2(snr=0.0)
    with pytest.raises(ValueError):
        gen_x2(tone_hz=200.0)
    with pytest.raises(ValueError):
        # vertex of the IF parabola dives below zero for a small c0
        gen_x2(chirp_coeffs=(870.0, -215.0, 5.0))


def test_synthetic_signal_length_validation():
    sig = gen_x1()
    t0 = sig.true_if[0]
    short = IFTrajectory(t0.times_s[:100], t0.freqs_hz[:100], t0.valid[:100])
    with pytest.raises(ValueError):
        SyntheticSignal(
            signal=sig.signal,
            clean=sig.clean,
            components=sig.components,
            true_if=(short, sig.true_if[1]),
            signal_id="broken",
            params={},
        )


def test_package_exports_resolve():
    import tfbench

    assert len(set(tfbench.__all__)) == len(tfbench.__all__)
    for name in tfbench.__all__:
        assert hasattr(tfbench, name), name
