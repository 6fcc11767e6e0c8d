import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import filtfilt, firwin

from tfbench.core import (
    SampledSignal,
    WindowSpec,
    add_white_noise,
    analytic_signal,
    decimate,
    make_window,
)


def test_sampled_signal_times_and_duration():
    x = SampledSignal([1.0, 2.0, 3.0, 4.0], 8.0, start_time_s=0.5)
    assert len(x) == 4
    assert x.duration_s == pytest.approx(0.5)
    np.testing.assert_allclose(x.times(), [0.5, 0.625, 0.75, 0.875])


def test_sampled_signal_validation():
    with pytest.raises(ValueError):
        SampledSignal([], 8.0)
    with pytest.raises(ValueError):
        SampledSignal([[1.0, 2.0]], 8.0)
    with pytest.raises(ValueError):
        SampledSignal([1.0], 0.0)
    with pytest.raises(ValueError):
        SampledSignal([1.0], -5.0)
    # a non-finite rate or start would give frames non-finite or equal times
    rate_name, start_name = "sample_rate_hz", "start_time_s"
    for rate, start, name in ((math.inf, 0.0, rate_name), (math.nan, 0.0, rate_name),
                              (320.0, math.nan, start_name), (320.0, -math.inf, start_name)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SampledSignal(np.ones(300), rate, start)


def test_sampled_signal_keeps_complex_samples():
    z = SampledSignal(np.array([1.0 + 2.0j, -1.0j]), 4.0)
    assert z.samples.dtype == np.complex128
    np.testing.assert_array_equal(z.samples.imag, [2.0, -1.0])
    assert SampledSignal([1, 2], 4.0).samples.dtype == np.float64
    assert SampledSignal(np.arange(3, dtype=np.float32), 4.0).samples.dtype == np.float64


def test_sampled_signal_samples_are_a_read_only_view():
    data = np.array([1.0, 2.0, 3.0])
    x = SampledSignal(data, 4.0)
    with pytest.raises(ValueError, match="read-only"):
        x.samples[0] = 9.0
    # no copy is made, and the caller's own array keeps its flags
    assert np.shares_memory(x.samples, data)
    assert data.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_sampled_signal_rejects_non_finite(bad):
    samples = np.zeros(8, dtype=type(bad))
    samples[3] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledSignal(samples, 8.0)


def test_analytic_signal_rejects_complex_input():
    with pytest.raises(ValueError, match="real"):
        analytic_signal(SampledSignal(np.asarray([1.0, 2.0, 3.0], dtype=complex), 8.0))


def test_complex_signal_dtype():
    z = SampledSignal(np.asarray([1.0, 2.0], dtype=complex), 4.0)
    assert z.samples.dtype == np.complex128
    assert z.duration_s == pytest.approx(0.5)


def test_hann_window_length_5():
    # 0.5 - 0.5*cos(2*pi*k/4) at k=0..4
    w = make_window(WindowSpec("hann", 5))
    np.testing.assert_allclose(w, [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-12)


def test_window_symmetry_and_center():
    for kind in ("hann", "hamming", "gaussian", "rectangular"):
        w = make_window(WindowSpec(kind, 33))
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)
        assert w[16] == pytest.approx(1.0)


def test_hamming_endpoints():
    w = make_window(WindowSpec("hamming", 21))
    assert w[0] == pytest.approx(0.08)
    assert w[-1] == pytest.approx(0.08)


def test_length_one_window_is_unit():
    for kind in ("hann", "hamming", "gaussian", "rectangular"):
        np.testing.assert_array_equal(make_window(WindowSpec(kind, 1)), [1.0])


def test_periodic_hann_matches_longer_symmetric():
    # DFT-periodic N-window = first N points of the symmetric (N+1)-window
    per = make_window(WindowSpec("hann", 16, periodic=True))
    sym = make_window(WindowSpec("hann", 17))
    np.testing.assert_allclose(per, sym[:16], atol=1e-15)
    assert per[0] == 0.0


def test_gaussian_alpha_controls_width():
    narrow = make_window(WindowSpec("gaussian", 31, alpha=4.0))
    wide = make_window(WindowSpec("gaussian", 31, alpha=2.0))
    assert narrow[0] < wide[0]
    assert narrow[15] == pytest.approx(1.0)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec("blackman", 8)
    with pytest.raises(ValueError):
        WindowSpec("hann", 0)
    with pytest.raises(ValueError):
        WindowSpec("gaussian", 8, alpha=0.0)
    # an infinite alpha would make the centre sample inf * 0, a NaN window
    for alpha in (np.inf, float("1e400"), -np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            WindowSpec("gaussian", 8, alpha=alpha)
    # a length must be an integer: a float would index frames with floats,
    # and True would be a one-sample window
    for length in (64.5, 64.0, True, np.float64(64), "64", None):
        with pytest.raises(ValueError, match="window length must be an integer"):
            WindowSpec("hann", length)


def test_analytic_signal_of_cosine():
    """cos(2*pi*f*t) should become exp(j*2*pi*f*t) to high accuracy."""
    fs, f, n = 320.0, 50.0, 320
    t = np.arange(n) / fs
    x = SampledSignal(np.cos(2 * np.pi * f * t), fs)
    z = analytic_signal(x)
    expected = np.exp(2j * np.pi * f * t)
    interior = slice(n // 10, -n // 10)
    assert np.max(np.abs(z.samples[interior] - expected[interior])) < 1e-6
    # real part must round-trip bit for bit
    np.testing.assert_array_equal(z.samples.real, x.samples)


def test_analytic_signal_negative_frequency_suppression():
    rng = np.random.default_rng(7)
    x = SampledSignal(rng.normal(size=256), 256.0)
    z = analytic_signal(x)
    spec = np.fft.fft(z.samples)
    pos = np.max(np.abs(spec[1:128]))
    neg = np.max(np.abs(spec[129:]))
    assert neg < pos * 1e-9


def test_analytic_signal_odd_length():
    fs, n = 321.0, 321
    t = np.arange(n) / fs
    x = SampledSignal(np.cos(2 * np.pi * 30.0 * t), fs)
    z = analytic_signal(x)
    spec = np.fft.fft(z.samples)
    pos = np.max(np.abs(spec[1 : (n + 1) // 2]))
    neg = np.max(np.abs(spec[(n + 1) // 2 :]))
    assert neg < pos * 1e-9
    np.testing.assert_array_equal(z.samples.real, x.samples)


def test_analytic_signal_envelope_of_tone_is_flat():
    fs, n = 320.0, 320
    t = np.arange(n) / fs
    x = SampledSignal(np.sin(2 * np.pi * 40.0 * t), fs)
    env = np.abs(analytic_signal(x).samples)
    interior = slice(16, -16)
    np.testing.assert_allclose(env[interior], 1.0, atol=1e-6)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    samples=hnp.arrays(
        np.float64,
        st.integers(2, 300),
        # bounded so the FFT cannot overflow; zeros of both signs are common
        elements=st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e100, 1e100)),
    )
)
def test_analytic_signal_real_part_is_the_input(samples):
    z = analytic_signal(SampledSignal(samples, 100.0)).samples
    assert np.array_equal(z.real, samples)
    assert np.array_equal(np.signbit(z.real), np.signbit(samples))


def test_analytic_signal_needs_two_samples():
    with pytest.raises(ValueError):
        analytic_signal(SampledSignal([1.0], 8.0))


def test_decimate_factor_one_copies():
    x = SampledSignal([1.0, 2.0, 3.0], 9.0, start_time_s=1.0)
    y = decimate(x, 1)
    np.testing.assert_array_equal(y.samples, x.samples)
    assert y.samples is not x.samples
    assert y.sample_rate_hz == 9.0
    assert y.start_time_s == 1.0


def test_decimate_validation():
    x = SampledSignal(np.ones(100), 100.0)
    with pytest.raises(ValueError):
        decimate(x, 0)
    with pytest.raises(ValueError):
        decimate(x, 2.5)
    with pytest.raises(ValueError):
        decimate(x, 100)  # would leave a single sample
    # a size is an integer, as every window length, hop and FFT length is
    for factor in (True, 2.0, math.inf, np.float64(2.0)):
        with pytest.raises(ValueError, match="^decimation factor must be an integer, got "):
            decimate(x, factor)


def test_decimate_preserves_passband_tone():
    fs, factor = 3200.0, 10
    t = np.arange(6400) / fs
    x = SampledSignal(np.cos(2 * np.pi * 50.0 * t), fs)
    y = decimate(x, factor)
    assert y.sample_rate_hz == pytest.approx(320.0)
    assert len(y) == 640
    expected = np.cos(2 * np.pi * 50.0 * y.times())
    interior = slice(32, -32)
    # zero-phase filtering: the tone must come through unshifted
    np.testing.assert_allclose(y.samples[interior], expected[interior], atol=0.01)


def test_decimate_rejects_out_of_band_tone():
    fs, factor = 3200.0, 10
    t = np.arange(6400) / fs
    x = SampledSignal(np.cos(2 * np.pi * 1000.0 * t), fs)
    y = decimate(x, factor)
    in_power = np.mean(x.samples**2)
    out_power = np.mean(y.samples[32:-32] ** 2)
    # stopband suppression well past 40 dB
    assert out_power < in_power * 1e-4


@pytest.mark.parametrize(
    "fs, factor, n",
    [(1600.0, 2, 3200), (1000.5, 3, 2001), (1600.0, 5, 6400), (4000.0, 12, 4000),
     # padlen = N - 1; below N = taps the passes' initial state reaches the output
     (1600.0, 5, 400), (1600.0, 5, 200), (1600.0, 12, 100)],
)
def test_decimate_equals_filtfilt_bit_for_bit(fs, factor, n):
    x = SampledSignal(np.random.default_rng(factor).normal(size=n), fs, start_time_s=0.5)
    taps = 64 * factor + 1
    b = firwin(taps, 0.8 * (fs / factor / 2.0), window="hamming", fs=fs)
    padlen = min(3 * taps, n - 1)
    y = decimate(x, factor)
    assert np.array_equal(y.samples, filtfilt(b, [1.0], x.samples, padlen=padlen)[::factor])
    assert y.sample_rate_hz == fs / factor and y.start_time_s == 0.5


@pytest.mark.parametrize("factor", range(2, 17))
def test_decimate_equals_scipy_firwin_and_filtfilt_for_every_factor(factor):
    """The written-out FIR design and filter passes give scipy's bits at
    every factor, for rates from 1 kHz to 48 kHz."""
    for fs in (1000.0, 1600.0, 8000.0, 22050.0, 48000.0):
        n = int(fs) // 2
        x = SampledSignal(np.random.default_rng(factor).normal(size=n), fs)
        taps = 64 * factor + 1
        b = firwin(taps, 0.8 * (fs / factor / 2.0), window="hamming", fs=fs)
        want = filtfilt(b, [1.0], x.samples, padlen=min(3 * taps, n - 1))[::factor]
        assert np.array_equal(decimate(x, factor).samples, want)


def test_add_white_noise_power_calibration():
    fs = 1000.0
    t = np.arange(100000) / fs
    x = SampledSignal(np.sin(2 * np.pi * 50.0 * t), fs)
    y = add_white_noise(x, 10.0, seed=3)
    noise_power = np.mean((y.samples - x.samples) ** 2)
    signal_power = np.mean(x.samples**2)
    assert noise_power == pytest.approx(signal_power / 10.0, rel=0.05)


def test_add_white_noise_db_interpretation():
    x = SampledSignal(np.sin(np.arange(50000)), 1.0)
    lin = add_white_noise(x, 10.0, seed=11)
    db = add_white_noise(x, 10.0, seed=11, db=True)
    # 10 dB is a ratio of 10, so both calls draw identical noise
    np.testing.assert_array_equal(lin.samples, db.samples)
    db3 = add_white_noise(x, 3.0, seed=11, db=True)
    noise_db3 = np.mean((db3.samples - x.samples) ** 2)
    assert noise_db3 == pytest.approx(np.mean(x.samples**2) / 10 ** 0.3, rel=0.05)


def test_add_white_noise_deterministic_and_inf():
    x = SampledSignal(np.arange(64, dtype=float), 8.0)
    a = add_white_noise(x, 5.0, seed=42)
    b = add_white_noise(x, 5.0, seed=42)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = add_white_noise(x, float("inf"), seed=42)
    np.testing.assert_array_equal(c.samples, x.samples)
    with pytest.raises(ValueError):
        add_white_noise(x, 0.0, seed=1)


@pytest.mark.parametrize("snr", [0.0, -3.0, -300.0])
def test_add_white_noise_takes_zero_and_negative_db(snr):
    """In dB any value whose power ratio 10^(snr/10) is positive is valid."""
    x = SampledSignal(np.sin(np.arange(50000)), 1.0)
    y = add_white_noise(x, snr, seed=5, db=True)
    np.testing.assert_array_equal(y.samples, add_white_noise(x, 10 ** (snr / 10), seed=5).samples)


@pytest.mark.parametrize("snr", [3083.0, 5000.0, 1e308, math.inf])
def test_add_white_noise_db_ratio_past_the_float_range_is_noiseless(snr):
    x = SampledSignal(np.arange(64, dtype=float), 8.0)
    np.testing.assert_array_equal(add_white_noise(x, snr, seed=1, db=True).samples, x.samples)


@pytest.mark.parametrize("snr, db, message", [
    (math.nan, True, "snr in dB must give a positive power ratio, got nan dB"),
    (-math.inf, True, "snr in dB must give a positive power ratio, got -inf dB"),
    (-5000.0, True, "snr in dB must give a positive power ratio, got -5000.0 dB"),
    (math.nan, False, "snr must be positive, got nan"),
    (-math.inf, False, "snr must be positive, got -inf"),
    (-1.0, False, "snr must be positive, got -1.0"),
], ids=["db-nan", "db-minus-inf", "db-underflow", "nan", "minus-inf", "negative"])
def test_add_white_noise_refuses_an_snr_without_a_positive_ratio(snr, db, message):
    """-5000 dB is a ratio that underflows to 0, which is no positive ratio."""
    x = SampledSignal(np.arange(64, dtype=float), 8.0)
    with pytest.raises(ValueError) as raised:
        add_white_noise(x, snr, seed=1, db=db)
    assert str(raised.value) == message


def test_add_white_noise_rejects_complex_samples():
    z = SampledSignal(np.exp(2j * np.pi * np.arange(64) / 8), 8.0)
    with pytest.raises(ValueError, match="real samples"):
        add_white_noise(z, 5.0, seed=1)
