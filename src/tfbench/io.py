"""File formats: signal CSV/WAV, ground-truth JSON, grid CSV/JSON, PGM heatmaps.

All text output uses repr() for floats so reruns are byte-identical and
values round-trip exactly.  Binary output (WAV, PGM) is little-endian or
byte-valued.
"""

from __future__ import annotations

import csv
import json
from typing import Optional

import numpy as np
from scipy.io import wavfile

from .core import SampledSignal
from .evaluate import IFTrajectory
from .synth import SyntheticSignal
from .tfd import TFDGrid

# relative spread of sample intervals tolerated when inferring a rate
_UNIFORMITY_TOL = 1e-6


def _real_samples(x: SampledSignal, where: str) -> np.ndarray:
    if np.iscomplexobj(x.samples):
        raise ValueError(f"{where} needs real samples; pass the part to keep, e.g. the real part")
    return x.samples


def _write_table(path, header: str, times: np.ndarray, columns: np.ndarray) -> None:
    """CSV of one header line, then per row its time and its ``columns`` row."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for t, row in zip(times.tolist(), columns.tolist()):
            fh.write(",".join(map(repr, [t, *row])) + "\n")


def _read_table(path, leading: list, expected: str) -> tuple:
    """(header cells, float matrix) of a CSV whose header starts with the
    ``leading`` cells; empty lines are skipped and every other row must be
    as wide as the header."""
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
            rows.append([float(v) for v in row])
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def write_signal_csv(path, x: SampledSignal) -> None:
    _write_table(path, "time_s,amplitude", x.times(), _real_samples(x, "signal CSV")[:, None])


def read_signal_csv(path) -> SampledSignal:
    """Read a `time_s,amplitude` CSV; the rate is inferred from the time
    column, which must be uniformly spaced.  Further columns are ignored."""
    _, table = _read_table(path, ["time_s", "amplitude"], "header 'time_s,amplitude'")
    if len(table) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    t = table[:, 0]
    dt = np.diff(t)
    mean_dt = float(dt.mean())
    if mean_dt <= 0 or np.max(np.abs(dt - mean_dt)) > _UNIFORMITY_TOL * mean_dt:
        raise ValueError(f"{path}: time column is not uniformly sampled")
    return SampledSignal(np.ascontiguousarray(table[:, 1]), 1.0 / mean_dt, start_time_s=t[0])


def write_wav(path, x: SampledSignal, dtype: str = "float32") -> None:
    """Single-channel WAV; dtype 'float32' or 'int16' (values scaled by 2^15)."""
    samples = _real_samples(x, "WAV")
    rate = x.sample_rate_hz
    if abs(rate - round(rate)) > 1e-9:
        raise ValueError(f"WAV requires an integer sample rate, got {rate}")
    if dtype == "float32":
        data = samples.astype(np.float32)
    elif dtype == "int16":
        peak = float(np.max(np.abs(samples))) or 1.0
        if peak > 1.0:
            raise ValueError("int16 WAV needs samples within [-1, 1]")
        data = np.round(samples * 32767.0).astype(np.int16)
    else:
        raise ValueError(f"unsupported WAV dtype {dtype!r}")
    wavfile.write(path, int(round(rate)), data)


def read_wav(path) -> SampledSignal:
    """Read a single-channel WAV; integer PCM is scaled to [-1, 1]."""
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected a single channel, got shape {data.shape}")
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    return SampledSignal(samples, float(rate))


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
    with open(path) as fh:
        doc = json.load(fh)
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
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed truth file ({type(exc).__name__}: {exc})") from None
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


def write_json(path, doc: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def render_pgm(g: TFDGrid, db: bool = False, floor_db: float = -60.0) -> tuple[bytes, dict]:
    """8-bit binary PGM (P5) of a grid: rows are frequency (descending),
    columns time.

    Linear mapping scales non-negative grids to 0..255; grids with negative
    values use a signed symmetric scale with zero at gray 128.  dB mapping
    uses 10*log10(|v|/peak) clipped at ``floor_db``.
    Returns (bytes, render-info).
    """
    if floor_db >= 0:
        raise ValueError("floor_db must be negative")
    v = g.values.T[::-1]  # [freq descending, time]
    info: dict = {"mode": "db" if db else "linear", "rows": "freq_descending", "cols": "time"}
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        img = np.zeros(v.shape, dtype=np.uint8)
    elif db:
        level = 10.0 * np.log10(np.maximum(np.abs(v) / peak, 10.0 ** (floor_db / 10.0)))
        img = np.round(255.0 * (level - floor_db) / (-floor_db)).astype(np.uint8)
        info["floor_db"] = floor_db
    elif np.any(v < 0):
        img = np.clip(np.round(128.0 + 127.0 * v / peak), 0, 255).astype(np.uint8)
        info["scale"] = "signed_symmetric"
        info["zero_gray"] = 128
    else:
        img = np.round(255.0 * v / peak).astype(np.uint8)
        info["scale"] = "linear"
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes(), info


def write_pgm(path, g: TFDGrid, db: bool = False, floor_db: float = -60.0) -> dict:
    payload, info = render_pgm(g, db=db, floor_db=floor_db)
    with open(path, "wb") as fh:
        fh.write(payload)
    return info
