"""File formats: signal CSV/WAV, ground-truth JSON, grid CSV/JSON, PGM heatmaps.

All text output uses repr() for floats so reruns are byte-identical and
values round-trip exactly.  Binary output (WAV, PGM) is little-endian or
byte-valued.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from typing import Optional

import numpy as np

from .core import IFTrajectory, SampledSignal
from .synth import SyntheticSignal
from .tfd import TFDGrid

# relative spread of sample intervals tolerated when inferring a rate
_UNIFORMITY_TOL = 1e-6

# the lowest level, in dB below the peak, that a dB heatmap shows
_PGM_FLOOR_DB = -60.0

# WAV format tags; WAVE_FORMAT_EXTENSIBLE holds the plain tag in the first
# four bytes of a subformat GUID that ends in fields 0, 0x10, then these bytes
_WAV_PCM, _WAV_FLOAT, _WAV_EXTENSIBLE = 1, 3, 0xFFFE
_WAV_GUID_END = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _real_samples(x: SampledSignal, where: str) -> np.ndarray:
    if np.iscomplexobj(x.samples):
        raise ValueError(f"{where} needs real samples; pass the part to keep, e.g. the real part")
    return x.samples


def _write_table(path, header: str, times: np.ndarray, columns: np.ndarray) -> None:
    """CSV of one header line, then per row its time and its ``columns`` row."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        # a row at a time: the whole grid as Python floats is 4x its array
        for t, row in zip(times.tolist(), columns):
            fh.write(",".join(map(repr, [t, *row.tolist()])) + "\n")


def _read_table(path, leading: list, expected: str, finite: int = 0) -> tuple:
    """(header cells, float matrix) of a CSV whose header starts with the
    ``leading`` cells; empty lines are skipped and every other row must be
    as wide as the header.  The first ``finite`` columns must be finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[: len(leading)]] != leading:
            raise ValueError(f"{path}: expected {expected}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            for name, value in zip(leading[:finite], values):
                if not math.isfinite(value):
                    raise ValueError(f"{path}: line {reader.line_num}: {name} must be finite, "
                                     f"got {value}")
            rows.append(values)
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def write_signal_csv(path, x: SampledSignal) -> None:
    _write_table(path, "time_s,amplitude", x.times(), _real_samples(x, "signal CSV")[:, None])


def read_signal_csv(path) -> SampledSignal:
    """Read a `time_s,amplitude` CSV; the rate is inferred from the time
    column, which must be uniformly spaced.  Both columns must be finite; a
    cell that is not names its file and line.  Further columns are ignored."""
    _, table = _read_table(path, ["time_s", "amplitude"], "header 'time_s,amplitude'", finite=2)
    if len(table) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    t = table[:, 0]
    dt = np.diff(t)
    mean_dt = float(dt.mean())
    if mean_dt <= 0 or np.max(np.abs(dt - mean_dt)) > _UNIFORMITY_TOL * mean_dt:
        raise ValueError(f"{path}: time column is not uniformly sampled")
    return SampledSignal(np.ascontiguousarray(table[:, 1]), 1.0 / mean_dt, start_time_s=t[0])


def write_wav(path, x: SampledSignal, dtype: str = "float32") -> None:
    """Single-channel WAV; dtype 'float32' or 'int16' (values scaled by 2^15),
    with the bytes ``scipy.io.wavfile.write`` gives them."""
    samples = _real_samples(x, "WAV")
    rate = x.sample_rate_hz
    if abs(rate - round(rate)) > 1e-9:
        raise ValueError(f"WAV requires an integer sample rate, got {rate}")
    rate = int(round(rate))
    if dtype == "float32":
        data = samples.astype("<f4")
        tag, fmt_tail, fact = _WAV_FLOAT, b"\0\0", b"fact" + struct.pack("<II", 4, data.size)
    elif dtype == "int16":
        peak = float(np.max(np.abs(samples))) or 1.0
        if peak > 1.0:
            raise ValueError("int16 WAV needs samples within [-1, 1]")
        data = np.round(samples * 32767.0).astype("<i2")
        tag, fmt_tail, fact = _WAV_PCM, b"", b""
    else:
        raise ValueError(f"unsupported WAV dtype {dtype!r}")
    width = data.itemsize
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width) + fmt_tail
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
            + b"data" + struct.pack("<I", data.nbytes) + data.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def read_wav(path) -> SampledSignal:
    """Read a single-channel WAV; integer PCM is scaled to [-1, 1].

    Reads RIFF (little-endian) and RIFX (big-endian) files of PCM at 8
    (unsigned), 16, 24 or 32 bits or IEEE float at 32 or 64 bits, plain or
    as WAVE_FORMAT_EXTENSIBLE; chunks other than fmt and data are skipped.
    A file that does not parse, whose data chunk is shorter than its header
    says, or whose samples are no valid signal (none, or one not finite)
    raises ValueError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        rate, samples = _parse_wav(blob)
        return SampledSignal(samples, float(rate))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_wav(blob: bytes) -> tuple:
    """(rate, float64 samples) of the bytes of a single-channel WAV file."""
    if len(blob) < 12:
        raise ValueError(f"truncated WAV header ({len(blob)} bytes)")
    order = {b"RIFF": "<", b"RIFX": ">"}.get(blob[:4])
    if order is None or blob[8:12] != b"WAVE":
        raise ValueError(f"file format {blob[:4]!r} {blob[8:12]!r} not understood; "
                         "expected a RIFF or RIFX WAVE file")
    fmt, at = None, 12
    while True:
        if at + 8 > len(blob):
            raise ValueError("truncated WAV header: no data chunk")
        chunk, (size,) = blob[at : at + 4], struct.unpack(order + "I", blob[at + 4 : at + 8])
        body = blob[at + 8 : at + 8 + size]
        if chunk == b"fmt ":
            if len(body) < 16:
                raise ValueError(f"truncated WAV header: fmt chunk of {len(body)} bytes")
            fmt = body
        elif chunk == b"data":
            break
        at += 8 + size + size % 2  # chunks start at even offsets
    if fmt is None:
        raise ValueError("data chunk before the fmt chunk")
    if len(body) < size:
        raise ValueError(f"data chunk holds {len(body)} bytes, header says {size}")
    tag, channels, rate, byte_rate, width, bits = struct.unpack(order + "HHIIHH", fmt[:16])
    if tag == _WAV_EXTENSIBLE and fmt[28:40] == struct.pack(order + "HH", 0, 0x10) + _WAV_GUID_END:
        (tag,) = struct.unpack(order + "I", fmt[24:28])
    if channels != 1:
        raise ValueError(f"expected a single channel, got {channels}")
    if tag == _WAV_PCM and byte_rate != rate * width:
        raise ValueError(f"WAV header gives {byte_rate} bytes/s, not rate x block align "
                         f"= {rate} x {width}")
    raw = np.frombuffer(body, np.uint8, size - size % max(width, 1))
    if tag == _WAV_PCM and width == 1:
        return rate, (raw - 128.0) / 128.0
    if tag == _WAV_PCM and width == 2:
        return rate, raw.view(order + "i2") / 32768.0
    if tag == _WAV_PCM and width in (3, 4):
        # 24-bit samples left-justified in 32 bits, as scipy reads them
        wide = np.zeros((raw.size // width, 4), np.uint8)
        wide[:, slice(4 - width, 4) if order == "<" else slice(0, width)] = raw.reshape(-1, width)
        return rate, wide.view(order + "i4")[:, 0] / 2147483648.0
    if tag == _WAV_FLOAT and bits in (32, 64) and width == bits // 8:
        return rate, raw.view(f"{order}f{width}").astype(np.float64)
    raise ValueError(f"unsupported WAV sample format: tag {tag:#x}, {bits} bits "
                     f"in {width} bytes")


def write_truth_json(path, sig: SyntheticSignal) -> None:
    """Ground-truth sidecar: shared time grid, per-component IF and masks,
    plus the full generation parameter record."""
    t = sig.signal.times()
    doc = {
        "signal_id": sig.signal_id,
        "sample_rate_hz": sig.signal.sample_rate_hz,
        "n_samples": len(sig.signal),
        "params": sig.params,
        "times_s": [float(v) for v in t],
        "components": [
            {
                "freqs_hz": [float(v) for v in traj.freqs_hz],
                "valid": [bool(v) for v in traj.valid],
            }
            for traj in sig.true_if
        ],
    }
    write_json(path, doc)


def read_truth_json(path) -> tuple[list, dict]:
    """Returns (trajectories, meta) where meta holds everything else."""
    doc = read_json(path)
    try:
        times = np.asarray(doc["times_s"], dtype=np.float64)
        trajectories = [
            IFTrajectory(
                times,
                np.asarray(c["freqs_hz"], dtype=np.float64),
                np.asarray(c["valid"], dtype=bool),
            )
            for c in doc["components"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed truth file ({type(exc).__name__}: {exc})") from None
    if not trajectories:
        raise ValueError(f"{path}: truth file has no components")
    if not isinstance(doc.get("signal_id", ""), str):
        raise ValueError(f"{path}: signal_id must be a string, got {doc['signal_id']!r}")
    meta = {k: v for k, v in doc.items() if k not in ("times_s", "components")}
    return trajectories, meta


def write_grid_csv(path, g: TFDGrid) -> None:
    """Matrix CSV: first row is the frequency axis, first column the time
    axis, corner cell empty."""
    _write_table(path, "," + ",".join(map(repr, g.freqs_hz.tolist())), g.times_s, g.values)


def read_grid_csv(path, method: str = "stft", meta: Optional[dict] = None) -> TFDGrid:
    header, table = _read_table(path, [""], "an empty corner cell in the header row")
    return TFDGrid(table[:, 0], [float(v) for v in header[1:]], table[:, 1:], method, meta or {})


def grid_meta_dict(g: TFDGrid) -> dict:
    d = {
        "method": g.method,
        "n_times": g.n_times,
        "n_freqs": g.n_freqs,
        "time_start_s": float(g.times_s[0]),
        "freq_start_hz": float(g.freqs_hz[0]),
        "meta": g.meta,
    }
    if g.n_times > 1:
        d["time_step_s"] = float(g.times_s[1] - g.times_s[0])
    if g.n_freqs > 1:
        d["freq_step_hz"] = float(g.freqs_hz[1] - g.freqs_hz[0])
    return d


def read_json(path):
    """A file's JSON document; a file that is not UTF-8 JSON raises ValueError naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, doc: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def render_pgm(g: TFDGrid, db: bool = False) -> tuple[bytes, dict]:
    """8-bit binary PGM (P5) of a grid: rows are frequency (descending),
    columns time.

    Linear mapping scales non-negative grids to 0..255; grids with negative
    values use a signed symmetric scale with zero at gray 128.  dB mapping
    uses 10*log10(|v|/peak) clipped at ``_PGM_FLOOR_DB``.
    Returns (bytes, render-info).
    """
    v = g.values.T[::-1]  # [freq descending, time]
    info: dict = {"mode": "db" if db else "linear", "rows": "freq_descending", "cols": "time"}
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        img = np.zeros(v.shape, dtype=np.uint8)
    elif db:
        level = 10.0 * np.log10(np.maximum(np.abs(v) / peak, 10.0 ** (_PGM_FLOOR_DB / 10.0)))
        img = np.round(255.0 * (level - _PGM_FLOOR_DB) / (-_PGM_FLOOR_DB)).astype(np.uint8)
        info["floor_db"] = _PGM_FLOOR_DB
    elif np.any(v < 0):
        img = np.clip(np.round(128.0 + 127.0 * v / peak), 0, 255).astype(np.uint8)
        info["scale"] = "signed_symmetric"
        info["zero_gray"] = 128
    else:
        img = np.round(255.0 * v / peak).astype(np.uint8)
        info["scale"] = "linear"
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes(), info
