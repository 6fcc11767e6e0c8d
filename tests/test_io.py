import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile

from tfbench.core import SampledSignal, WindowSpec
from tfbench.io import (
    grid_meta_dict,
    read_grid_csv,
    read_signal_csv,
    read_truth_json,
    read_wav,
    render_pgm,
    write_grid_csv,
    write_json,
    write_pgm,
    write_signal_csv,
    write_truth_json,
    write_wav,
)
from tfbench.synth import gen_x1, gen_x2
from tfbench.tfd import TFDGrid, resolution_report, stft


def random_signal(n=64, fs=320.0, seed=0):
    rng = np.random.default_rng(seed)
    return SampledSignal(rng.normal(size=n), fs)


def test_signal_csv_roundtrip(tmp_path):
    x = random_signal()
    p = tmp_path / "sig.csv"
    write_signal_csv(p, x)
    y = read_signal_csv(p)
    # repr() serialization reproduces every float bit for bit
    np.testing.assert_array_equal(y.samples, x.samples)
    assert y.sample_rate_hz == pytest.approx(320.0, rel=1e-9)
    assert y.start_time_s == pytest.approx(0.0, abs=1e-12)
    assert (p.read_text().splitlines()[0]) == "time_s,amplitude"


def test_signal_csv_start_time_roundtrip(tmp_path):
    x = SampledSignal(np.arange(16, dtype=float), 100.0, start_time_s=3.5)
    p = tmp_path / "sig.csv"
    write_signal_csv(p, x)
    y = read_signal_csv(p)
    assert y.start_time_s == pytest.approx(3.5)


def test_signal_csv_rejects_bad_inputs(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_s,amplitude\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(p)  # non-uniform times
    p.write_text("t,a\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(p)  # wrong header
    p.write_text("time_s,amplitude\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(p)  # single sample


def test_wav_float32_roundtrip(tmp_path):
    x = random_signal(n=128)
    p = tmp_path / "sig.wav"
    write_wav(p, x)
    y = read_wav(p)
    assert y.sample_rate_hz == 320.0
    np.testing.assert_allclose(y.samples, x.samples, atol=1e-6)


def test_wav_int16_roundtrip(tmp_path):
    fs = 320.0
    t = np.arange(64) / fs
    x = SampledSignal(0.8 * np.sin(2 * np.pi * 20 * t), fs)
    p = tmp_path / "sig.wav"
    write_wav(p, x, dtype="int16")
    y = read_wav(p)
    np.testing.assert_allclose(y.samples, x.samples, atol=1.0 / 32767)


def test_wav_validation(tmp_path):
    big = SampledSignal([0.0, 2.0], 320.0)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "a.wav", big, dtype="int16")
    frac_rate = SampledSignal([0.0, 1.0], 320.5)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "b.wav", frac_rate)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "c.wav", random_signal(), dtype="int8")
    stereo = tmp_path / "stereo.wav"
    wavfile.write(stereo, 320, np.zeros((16, 2), dtype=np.int16))
    with pytest.raises(ValueError):
        read_wav(stereo)


def test_signal_csv_rejects_complex_samples(tmp_path):
    z = SampledSignal(np.exp(2j * np.pi * np.arange(8) / 8), 8.0)
    path = tmp_path / "z.csv"
    with pytest.raises(ValueError, match="real samples"):
        write_signal_csv(path, z)
    assert not path.exists()


def test_wav_rejects_complex_samples(tmp_path):
    z = SampledSignal(0.5 * np.exp(2j * np.pi * np.arange(8) / 8), 8.0)
    path = tmp_path / "z.wav"
    for dtype in ("float32", "int16"):
        with pytest.raises(ValueError, match="real samples"):
            write_wav(path, z, dtype=dtype)
    assert not path.exists()


def test_truth_json_roundtrip(tmp_path):
    sig = gen_x2(seed=4)
    p = tmp_path / "x2.truth.json"
    write_truth_json(p, sig)
    trajectories, meta = read_truth_json(p)
    assert meta["signal_id"] == "x2"
    assert meta["sample_rate_hz"] == 320.0
    assert meta["n_samples"] == 320
    assert meta["params"]["seed"] == 4
    assert len(trajectories) == 2
    for got, want in zip(trajectories, sig.true_if):
        np.testing.assert_array_equal(got.times_s, want.times_s)
        np.testing.assert_array_equal(got.freqs_hz, want.freqs_hz)
        np.testing.assert_array_equal(got.valid, want.valid)


def test_truth_json_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_truth_json(a, gen_x1())
    write_truth_json(b, gen_x1())
    assert a.read_bytes() == b.read_bytes()


def test_grid_csv_roundtrip(tmp_path):
    sig = gen_x1()
    g = stft(sig.signal, WindowSpec("hann", 64), 16, 128)
    p = tmp_path / "grid.csv"
    write_grid_csv(p, g)
    h = read_grid_csv(p, method="stft", meta={"sample_rate_hz": 320.0})
    np.testing.assert_array_equal(h.times_s, g.times_s)
    np.testing.assert_array_equal(h.freqs_hz, g.freqs_hz)
    np.testing.assert_array_equal(h.values, g.values)
    assert resolution_report(h).spectral_resolution_hz == pytest.approx(2.5)


def test_grid_csv_rejects_missing_corner(tmp_path):
    p = tmp_path / "grid.csv"
    p.write_text("10.0,20.0\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_grid_csv(p)


@pytest.mark.parametrize("row", ["0.5,1.0", "0.5,1.0,2.0,3.0"])
def test_grid_csv_rejects_ragged_row(tmp_path, row):
    p = tmp_path / "grid.csv"
    p.write_text(f",10.0,20.0\n0.0,1.0,2.0\n\n{row}\n")
    with pytest.raises(ValueError, match=r"grid\.csv: line 4 has \d fields, the header has 3"):
        read_grid_csv(p)


# subnormal, largest and negative-zero cells besides any finite float
_CELLS = st.one_of(
    st.sampled_from([5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# axis steps must stay finite for TFDGrid's increasing-axis check
_AXIS = st.one_of(st.sampled_from([5e-324, -2.5e-310, -0.0]), st.floats(-1e300, 1e300))


@st.composite
def _grids(draw):
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 16))
    times = sorted(draw(st.lists(_AXIS, min_size=rows, max_size=rows, unique=True)))
    freqs = sorted(draw(st.lists(_AXIS, min_size=cols, max_size=cols, unique=True)))
    values = draw(hnp.arrays(np.float64, (rows, cols), elements=_CELLS))
    return TFDGrid(times, freqs, values, "wvd")


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(
    g=_grids(),
    samples=hnp.arrays(np.float64, st.integers(2, 200), elements=_CELLS),
    rate=st.floats(1.0, 1e4),
    # times() stamps the first sample start + 0.0, which is never -0.0
    start=st.floats(-10.0, 10.0).map(lambda v: v + 0.0),
)
def test_grid_and_signal_csv_round_trip_bit_for_bit(tmp_path_factory, g, samples, rate, start):
    path = tmp_path_factory.mktemp("codec") / "grid.csv"
    write_grid_csv(path, g)
    h = read_grid_csv(path, method="wvd")
    assert _same_bits(h.times_s, g.times_s)
    assert _same_bits(h.freqs_hz, g.freqs_hz)
    assert _same_bits(h.values, g.values)

    x = SampledSignal(samples, rate, start_time_s=start)
    path = path.with_name("signal.csv")
    write_signal_csv(path, x)
    y = read_signal_csv(path)
    assert _same_bits(y.samples, x.samples)
    assert _same_bits(y.start_time_s, x.start_time_s)
    assert y.sample_rate_hz == pytest.approx(rate, rel=1e-9)


def test_grid_meta_dict():
    g = TFDGrid([0.0, 0.5], [0.0, 2.0, 4.0], np.zeros((2, 3)), "wvd", {"fft_length": 8})
    d = grid_meta_dict(g)
    assert d["method"] == "wvd"
    assert d["n_times"] == 2 and d["n_freqs"] == 3
    assert d["time_step_s"] == pytest.approx(0.5)
    assert d["freq_step_hz"] == pytest.approx(2.0)
    assert d["meta"]["fft_length"] == 8


def test_write_json(tmp_path):
    p = tmp_path / "doc.json"
    write_json(p, {"b": 1, "a": [1.5, 2.5]})
    text = p.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1.5, 2.5], "b": 1}
    # keys are sorted for stable diffs
    assert text.index('"a"') < text.index('"b"')


def test_render_pgm_linear():
    g = TFDGrid([0.0, 1.0], [0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [4.0, 0.0, 2.0]], "stft", {})
    payload, info = render_pgm(g)
    assert payload.startswith(b"P5\n2 3\n255\n")
    body = payload[len(b"P5\n2 3\n255\n"):]
    assert len(body) == 6
    img = np.frombuffer(body, dtype=np.uint8).reshape(3, 2)
    # top row is the highest frequency, columns follow time
    np.testing.assert_array_equal(img, [[128, 128], [64, 0], [0, 255]])
    assert info["scale"] == "linear"
    assert info["rows"] == "freq_descending"


def test_render_pgm_signed_and_db():
    g = TFDGrid([0.0, 1.0], [0.0, 1.0], [[-4.0, 2.0], [4.0, 0.0]], "wvd", {})
    _, info = render_pgm(g)
    assert info["scale"] == "signed_symmetric"
    assert info["zero_gray"] == 128
    payload, info_db = render_pgm(g, db=True)
    assert info_db["mode"] == "db"
    assert info_db["floor_db"] == -60.0
    img = np.frombuffer(payload[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    assert img.max() == 255  # peak maps to white
    with pytest.raises(ValueError):
        render_pgm(g, db=True, floor_db=10.0)


def test_render_pgm_all_zero():
    g = TFDGrid([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), "stft", {})
    payload, _ = render_pgm(g)
    img = np.frombuffer(payload[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    np.testing.assert_array_equal(img, 0)


def test_write_pgm(tmp_path):
    sig = gen_x1()
    g = stft(sig.signal, WindowSpec("hann", 64), 16, 128)
    p = tmp_path / "grid.pgm"
    info = write_pgm(p, g, db=True)
    data = p.read_bytes()
    assert data.startswith(b"P5\n")
    assert info["mode"] == "db"
    w, h = data.split(b"\n")[1].split(b" ")
    assert int(w) == g.n_times and int(h) == g.n_freqs
