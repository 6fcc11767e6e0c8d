"""Batch command-line interface: synth | analyze | compare.

Exit codes are stable for scripting: 0 success, 2 usage, 3 validation,
4 I/O.  All computation happens before any output file is opened, so a
failing run leaves no partial outputs.  Reruns with identical flags produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .core import SampledSignal, WindowSpec, decimate
from .evaluate import (
    DEFAULT_METHODS,
    CompareConfig,
    compare_methods,
    default_config,
    resolution_report,
    run_transform,
)
from .pct import PCTConfig
from .synth import GENERATORS
from . import io as tfio

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

METHOD_CHOICES = ("stft", "wvd", "pwvd", "spwvd", "pct")


def _band(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        band = (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"band must look like 'lo:hi', got {text!r}")
    if band[0] > band[1]:
        raise argparse.ArgumentTypeError(f"band low exceeds high in {text!r}")
    return band


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfbench",
        description="Time-frequency distribution benchmark: generate test "
        "signals, compute TFD grids, and compare IF-estimation accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a benchmark signal with ground truth")
    p_synth.add_argument("signal_id", choices=sorted(GENERATORS))
    p_synth.add_argument("--rate", type=float, help="sample rate in Hz (default 320)")
    p_synth.add_argument("--duration", type=float, help="duration in seconds (default 1.0)")
    p_synth.add_argument("--snr", type=float,
                         help="linear SNR for the noisy signal (x2 only; inf for noiseless)")
    p_synth.add_argument("--seed", type=int, help="noise seed (x2 only)")
    p_synth.add_argument("--config", help="JSON file with generator overrides under 'synth'")
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_an = sub.add_parser("analyze", help="compute one TFD grid for a signal file")
    p_an.add_argument("input", help="signal file (.csv with time_s,amplitude header, or .wav)")
    p_an.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p_an.add_argument("--band", type=_band, help="ridge/PSD band as lo:hi (Hz)")
    p_an.add_argument("--order", type=int, help="polynomial order for pct")
    p_an.add_argument("--config", help="JSON file with per-method parameters")
    p_an.add_argument("--pgm", action="store_true", help="also render a PGM heatmap")
    p_an.add_argument("--db", action="store_true", help="dB mapping for the heatmap")
    p_an.add_argument("--out", default=".", help="output directory")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="score several methods on one signal")
    p_cmp.add_argument("input", help="signal file (.csv or .wav)")
    p_cmp.add_argument("--truth", help="ground-truth JSON written by synth")
    p_cmp.add_argument("--methods", help=f"comma-separated subset of {','.join(METHOD_CHOICES)}")
    p_cmp.add_argument("--band", type=_band, help="ridge/PSD band as lo:hi (Hz)")
    p_cmp.add_argument("--order", type=int, help="polynomial order for pct")
    p_cmp.add_argument("--config", help="JSON file with per-method parameters")
    p_cmp.add_argument("--seed", type=int, help="accepted for script symmetry; unused here")
    p_cmp.add_argument("--out", default=".", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _load_config(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    with open(p) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    return doc


def _window_from_dict(d: dict) -> WindowSpec:
    for key in ("kind", "length_samples"):
        if key not in d:
            raise ValueError(f"window config lacks {key!r}")
    return WindowSpec(
        kind=d["kind"],
        length_samples=int(d["length_samples"]),
        alpha=float(d.get("alpha", 2.5)),
        periodic=bool(d.get("periodic", False)),
    )


def _compare_config(doc: dict, band=None, order=None, profile: str = "x1") -> CompareConfig:
    cfg = default_config(doc.get("signal_profile", profile))
    stft_doc = doc.get("stft", {})
    if "window" in stft_doc:
        cfg.stft_window = _window_from_dict(stft_doc["window"])
    if "hop_samples" in stft_doc:
        cfg.stft_hop = int(stft_doc["hop_samples"])
    if "fft_length" in stft_doc:
        cfg.stft_fft = int(stft_doc["fft_length"])
    if "fft_length" in doc.get("wvd", {}):
        cfg.wvd_fft = int(doc["wvd"]["fft_length"])
    spwvd_doc = doc.get("spwvd", {})
    if "time_window" in spwvd_doc:
        cfg.spwvd_time_window = _window_from_dict(spwvd_doc["time_window"])
    if "freq_window" in spwvd_doc:
        cfg.spwvd_freq_window = _window_from_dict(spwvd_doc["freq_window"])
    if "band_hz" in doc:
        cfg.band_hz = tuple(doc["band_hz"])
    if "amp_threshold_frac" in doc:
        cfg.amp_threshold_frac = float(doc["amp_threshold_frac"])
    if "score_component" in doc:
        cfg.score_component = doc["score_component"]
    if band is not None:
        cfg.band_hz = band
    pct_doc = dict(doc.get("pct", {}))
    unknown = sorted(set(pct_doc) - {f.name for f in fields(PCTConfig)})
    if unknown:
        raise ValueError(f"unknown pct parameters {unknown}")
    if "window" in pct_doc:
        pct_doc["window"] = _window_from_dict(pct_doc["window"])
    if "ridge_band_hz" in pct_doc:
        pct_doc["ridge_band_hz"] = tuple(pct_doc["ridge_band_hz"])
    pct_doc.setdefault("ridge_band_hz", cfg.band_hz)
    pct_doc.setdefault("amp_threshold_frac", cfg.amp_threshold_frac)
    if order is not None:
        pct_doc["order"] = order
    cfg.pct = PCTConfig(**pct_doc)
    return cfg


def _read_signal(path) -> SampledSignal:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input not found: {path}")
    if p.suffix.lower() == ".wav":
        return tfio.read_wav(p)
    return tfio.read_signal_csv(p)


def _maybe_decimate(x: SampledSignal) -> tuple:
    """Bring high-rate recordings down near 320 Hz before analysis."""
    if x.sample_rate_hz <= 1000.0:
        return x, None
    factor = max(1, int(round(x.sample_rate_hz / 320.0)))
    return decimate(x, factor), factor


def cmd_synth(args) -> int:
    import inspect

    doc = _load_config(args.config)
    generator = GENERATORS[args.signal_id]
    kwargs = dict(doc.get("synth", {}))
    for flag, param in (
        (args.rate, "sample_rate_hz"),
        (args.duration, "duration_s"),
        (args.snr, "snr"),
        (args.seed, "seed"),
    ):
        if flag is not None:
            kwargs[param] = flag
    # a shared config may carry parameters for the other generator; keep only
    # what this one accepts, but reject keys unknown to every generator
    valid_anywhere = set().union(
        *(inspect.signature(g).parameters for g in GENERATORS.values())
    )
    unknown = sorted(set(kwargs) - valid_anywhere)
    if unknown:
        raise ValueError(f"unknown synth parameters {unknown}")
    accepted = set(inspect.signature(generator).parameters)
    kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    sig = generator(**kwargs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    signal_path = outdir / f"{args.signal_id}.csv"
    truth_path = outdir / f"{args.signal_id}.truth.json"
    tfio.write_signal_csv(signal_path, sig.signal)
    tfio.write_truth_json(truth_path, sig)
    print(signal_path)
    print(truth_path)
    return EXIT_OK


def cmd_analyze(args) -> int:
    x = _read_signal(args.input)
    x, factor = _maybe_decimate(x)
    doc = _load_config(args.config)
    cfg = _compare_config(doc, band=args.band, order=args.order)
    grid = run_transform(x, args.method, cfg)
    if factor is not None:
        grid.meta["decimation_factor"] = factor
    band = args.band if args.band is not None else cfg.band_hz
    folding = resolution_report(grid).folding_hz
    if band is not None and band[1] > folding:
        grid.meta.setdefault("warnings", []).append(
            f"band top {band[1]} Hz exceeds folding frequency {folding} Hz; "
            "content above it is aliased"
        )
    pgm_payload = None
    if args.pgm:
        pgm_payload, render_info = tfio.render_pgm(grid, db=args.db)
        grid.meta["render"] = render_info

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    tfio.write_grid_csv(outdir / f"{stem}.{args.method}.csv", grid)
    tfio.write_json(outdir / f"{stem}.{args.method}.meta.json", tfio.grid_meta_dict(grid))
    print(outdir / f"{stem}.{args.method}.csv")
    print(outdir / f"{stem}.{args.method}.meta.json")
    if pgm_payload is not None:
        pgm_path = outdir / f"{stem}.{args.method}.pgm"
        with open(pgm_path, "wb") as fh:
            fh.write(pgm_payload)
        print(pgm_path)
    return EXIT_OK


def cmd_compare(args) -> int:
    x = _read_signal(args.input)
    truth = None
    truth_meta: dict = {}
    if args.truth:
        truth_path = Path(args.truth)
        if not truth_path.exists():
            raise FileNotFoundError(f"truth file not found: {args.truth}")
        truth, truth_meta = tfio.read_truth_json(truth_path)
        if truth_meta.get("n_samples") != len(x):
            raise ValueError(
                f"truth length {truth_meta.get('n_samples')} does not match "
                f"signal length {len(x)}"
            )
    x, _ = _maybe_decimate(x)
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        unknown = [m for m in methods if m not in METHOD_CHOICES]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {METHOD_CHOICES}")
        if not methods:
            raise ValueError("at least one method must be requested")
    else:
        methods = DEFAULT_METHODS
    signal_id = truth_meta.get("signal_id") or Path(args.input).stem
    doc = _load_config(args.config)
    cfg = _compare_config(doc, band=args.band, order=args.order, profile=signal_id)
    report = compare_methods(x, truth, methods, cfg, signal_id=signal_id)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tfio.write_json(outdir / "report.json", report.to_dict())
    with open(outdir / "report.txt", "w", newline="") as fh:
        fh.write(report.format_table())
    print(report.format_table(), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
