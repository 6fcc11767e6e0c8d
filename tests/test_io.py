import json
import struct
import tracemalloc

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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["time_s", "amplitude"])
def test_signal_csv_rejects_non_finite_cells_by_line(tmp_path, cell, column):
    p = tmp_path / "bad.csv"
    rows = [["0.0", "1.0"], ["0.1", "2.0"], ["0.2", "3.0"], ["0.3", "4.0"]]
    rows[2][column == "amplitude"] = cell
    p.write_text("time_s,amplitude\n" + "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=f"bad.csv: line 4: {column} must be finite, got {cell}"):
        read_signal_csv(p)


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


def _wav_bytes(tag, width, payload, order="<", extensible=False, extra=b"",
               byte_rate=None) -> bytes:
    """A one-channel 800 Hz WAV of ``payload`` with ``extra`` chunks before its
    fmt chunk, whose byte rate is 800 x ``width`` unless ``byte_rate`` is given."""
    rif, u32 = (b"RIFF", "<I") if order == "<" else (b"RIFX", ">I")
    fmt = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, 1, 800,
                      byte_rate or 800 * width, width, 8 * width)
    if extensible:
        guid = struct.pack(order + "I", tag) + (
            b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71" if order == "<"
            else b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71")
        fmt += struct.pack(order + "HHI", 22, 8 * width, 4) + guid
    body = (b"WAVE" + extra + b"fmt " + struct.pack(u32, len(fmt)) + fmt
            + b"data" + struct.pack(u32, len(payload)) + payload)
    return rif + struct.pack(u32, len(body)) + body


@pytest.mark.parametrize(
    "name, contents, message",
    [
        ("truncated", b"RIFF\0\0", "truncated WAV header"),
        ("empty", np.zeros(0, dtype=np.float32), "non-empty"),
        ("nan", np.array([0.0, np.nan, 0.5], dtype=np.float32), "finite"),
        ("not-riff", b"hello, not a WAV file", "not understood"),
        # the header ends after the fmt chunk
        ("no-data", _wav_bytes(1, 2, b"")[:-8], "truncated WAV header: no data chunk"),
        ("short-fmt", b"RIFF" + struct.pack("<I", 34) + b"WAVEfmt " + struct.pack("<I", 14)
         + struct.pack("<HHIIH", 1, 1, 800, 1600, 2) + b"data" + struct.pack("<I", 0),
         "truncated WAV header: fmt chunk of 14 bytes"),
        ("byte-rate", _wav_bytes(1, 2, bytes(8), byte_rate=1601),
         "1601 bytes/s, not rate x block align = 800 x 2"),
        ("float16", _wav_bytes(3, 2, bytes(8)), "unsupported WAV sample format: tag 0x3, 16 bits"),
        ("a-law", _wav_bytes(6, 1, bytes(8)), "unsupported WAV sample format: tag 0x6, 8 bits"),
    ],
)
def test_bad_wav_raises_value_error_naming_the_file(tmp_path, name, contents, message):
    path = tmp_path / f"{name}.wav"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        wavfile.write(path, 320, contents)
    with pytest.raises(ValueError, match=message) as raised:
        read_wav(path)
    assert str(raised.value).startswith(f"{path}: ")


@pytest.mark.parametrize("dtype", ["float32", "int16"])
@pytest.mark.parametrize("n", [1, 2, 101, 4096])
def test_wav_writer_bytes_equal_scipy(tmp_path, dtype, n):
    x = SampledSignal(np.clip(random_signal(n=n, seed=n).samples / 4.0, -1.0, 1.0), 1600.0)
    write_wav(tmp_path / "ours.wav", x, dtype=dtype)
    data = x.samples.astype(np.float32) if dtype == "float32" else np.round(
        x.samples * 32767.0).astype(np.int16)
    wavfile.write(tmp_path / "scipy.wav", 1600, data)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def _scaled(data: np.ndarray) -> np.ndarray:
    """Samples of a ``wavfile.read`` result, scaled as ``read_wav`` scales them."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype.kind == "i":
        return data / 2.0 ** (8 * data.dtype.itemsize - 1)
    return data.astype(np.float64)


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize(
    "tag, width", [(1, 1), (1, 2), (1, 3), (1, 4), (3, 4), (3, 8)],
    ids=["pcm8", "pcm16", "pcm24", "pcm32", "float32", "float64"],
)
def test_wav_reader_samples_equal_scipy(tmp_path, tag, width, extensible, order):
    """Every format read_wav reads, plain and extensible, little- and
    big-endian, after an odd-sized unknown chunk and its pad byte."""
    rng = np.random.default_rng(width)
    if tag == 3:
        payload = rng.normal(size=37).astype(f"{order}f{width}").tobytes()
    else:
        payload = rng.integers(0, 256, 37 * width, dtype=np.uint8).tobytes()
    path = tmp_path / "x.wav"
    unknown = b"LIST" + struct.pack(order + "I", 3) + b"abc\0"
    path.write_bytes(_wav_bytes(tag, width, payload, order, extensible, extra=unknown))
    rate, data = wavfile.read(path)
    got = read_wav(path)
    assert got.sample_rate_hz == rate == 800
    assert np.array_equal(got.samples, _scaled(data))


def test_wav_roundtrip_through_scipy_reader(tmp_path):
    x = SampledSignal(np.clip(random_signal(n=257).samples / 4.0, -1.0, 1.0), 1600.0)
    for dtype in ("float32", "int16"):
        write_wav(tmp_path / "x.wav", x, dtype=dtype)
        assert np.array_equal(read_wav(tmp_path / "x.wav").samples,
                              _scaled(wavfile.read(tmp_path / "x.wav")[1]))


def test_wav_with_a_short_data_chunk_is_rejected(tmp_path):
    """A file cut short holds fewer data bytes than its header says: a
    4 s 1600 Hz x2 WAV cut to half its bytes."""
    path = tmp_path / "x2.wav"
    write_wav(path, gen_x2(snr=10.0, sample_rate_hz=1600.0, duration_s=4.0).signal)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    held = len(blob) // 2 - 58  # a float32 WAV's header is 58 bytes
    with pytest.raises(ValueError, match=f"^{path}: data chunk holds {held} bytes, "
                                         f"header says {4 * 6400}$"):
        read_wav(path)


def test_wav_data_chunk_before_fmt_is_rejected(tmp_path):
    path = tmp_path / "x.wav"
    body = b"WAVE" + b"data" + struct.pack("<I", 4) + b"\0" * 4
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(ValueError, match=f"^{path}: data chunk before the fmt chunk"):
        read_wav(path)


def test_missing_wav_is_not_a_value_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "none.wav")


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


def test_truth_json_rejects_no_components(tmp_path):
    p = tmp_path / "x1.truth.json"
    write_truth_json(p, gen_x1())
    doc = json.loads(p.read_text())
    p.write_text(json.dumps({**doc, "components": []}))
    with pytest.raises(ValueError, match=r"x1\.truth\.json: truth file has no components"):
        read_truth_json(p)


@pytest.mark.parametrize("signal_id", [5, None, ["x1"]])
def test_truth_json_rejects_a_signal_id_that_is_not_a_string(tmp_path, signal_id):
    p = tmp_path / "x1.truth.json"
    write_truth_json(p, gen_x1())
    doc = json.loads(p.read_text())
    p.write_text(json.dumps({**doc, "signal_id": signal_id}))
    with pytest.raises(ValueError, match=r"x1\.truth\.json: signal_id must be a string, got "):
        read_truth_json(p)


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


def test_grid_csv_is_written_a_row_at_a_time(tmp_path):
    """Writing a grid holds one row as Python floats, not the whole grid: the
    traced peak stays below the grid's own array."""
    g = TFDGrid(np.arange(500.0), np.arange(1000.0),
                np.random.default_rng(0).normal(size=(500, 1000)), "stft")
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_grid_csv(tmp_path / "grid.csv", g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < g.values.nbytes


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


def test_grid_csv_rejects_non_numeric_cell(tmp_path):
    p = tmp_path / "grid.csv"
    p.write_text(",10.0,20.0\n0.0,1.0,2.0\n0.5,abc,2.0\n")
    with pytest.raises(ValueError, match=r"grid\.csv: line 3: .*'abc'"):
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


def test_render_pgm_all_zero():
    g = TFDGrid([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), "stft", {})
    payload, _ = render_pgm(g)
    img = np.frombuffer(payload[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    np.testing.assert_array_equal(img, 0)


def test_write_pgm():
    # the payload `analyze --pgm --db` writes as it is
    sig = gen_x1()
    g = stft(sig.signal, WindowSpec("hann", 64), 16, 128)
    data, info = render_pgm(g, db=True)
    assert data.startswith(b"P5\n")
    assert info["mode"] == "db"
    w, h = data.split(b"\n")[1].split(b" ")
    assert int(w) == g.n_times and int(h) == g.n_freqs
