"""Batch command-line interface: synth | analyze | compare.

Exit codes are stable for scripting: 0 success, 2 usage, 3 validation
(arrays too large for memory included), 4 I/O.  All computation happens
before any output file is opened, so a failing run leaves no partial
outputs.  Reruns with identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .core import SampledSignal, decimate
from .evaluate import DEFAULT_METHODS, METHODS, CompareConfig, compare_methods, default_config
from .evaluate import _pct_config, run_transform
from .pct import PCTConfig
from .synth import GENERATORS
from .tfd import _short_time_checks, _wvd_checks, resolution_report
from . import io as tfio

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# config-file section -> {key: CompareConfig field}; "config" is the top
# level, whose "pct", "synth" and "signal_profile" keys are read separately
_COMPARE_KEYS = {
    "stft": {"window": "stft_window", "hop_samples": "stft_hop", "fft_length": "stft_fft"},
    "wvd": {"fft_length": "wvd_fft"},
    "spwvd": {"time_window": "spwvd_time_window", "freq_window": "spwvd_freq_window"},
    "config": {k: k for k in ("band_hz", "amp_threshold_frac", "score_component")},
}

_JSON_TYPES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    tuple: "a list of two finite numbers, low <= high",
    tuple[float, float, float]: "a list of three finite numbers",
}


def _ordered(band) -> bool:
    """Both edges of a band are finite and the low one is at most the high."""
    return all(abs(edge) < math.inf for edge in band) and band[0] <= band[1]


def _band(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        band = (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"band must look like 'lo:hi', got {text!r}")
    if not _ordered(band):
        raise argparse.ArgumentTypeError(f"band must be finite with low <= high, got {text!r}")
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

    # the input and the flags analyze and compare share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="signal file (.csv with time_s,amplitude header, or .wav)")
    common.add_argument("--band", type=_band, help="ridge/PSD band as lo:hi (Hz)")
    common.add_argument("--order", type=int, help="polynomial order for pct")
    common.add_argument("--config", help="JSON file with per-method parameters")
    common.add_argument("--out", default=".", help="output directory")

    p_an = sub.add_parser("analyze", parents=[common], help="compute one TFD grid of a signal file")
    p_an.add_argument("--method", choices=METHODS, required=True)
    p_an.add_argument("--pgm", action="store_true", help="also render a PGM heatmap")
    p_an.add_argument("--db", action="store_true", help="dB mapping for the --pgm heatmap")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", parents=[common], help="score several methods on one signal")
    p_cmp.add_argument("--truth", help="ground-truth JSON written by synth")
    p_cmp.add_argument("--methods", help=f"comma-separated subset of {','.join(METHODS)}")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _load_config(path) -> dict:
    if path is None:
        return {}
    if not Path(path).exists():
        raise FileNotFoundError(f"config file not found: {path}")
    doc = tfio.read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    return doc


def _typed(value, hint, where: str):
    """Check one JSON value against a field annotation.  Integers widen to
    float; a sized tuple such as ``tuple[float, float, float]`` is a list of
    that many finite numbers, and a bare ``tuple`` is a band, two finite
    numbers, low <= high; both are kept as given."""
    if type(None) in get_args(hint):  # Optional[X]
        if value is None:
            return None
        hint = next(a for a in get_args(hint) if a is not type(None))
    if is_dataclass(hint):
        return _from_dict(hint, value, where)
    number = (int, float)
    if hint is tuple or get_origin(hint) is tuple:
        if (isinstance(value, list) and len(value) == (len(get_args(hint)) or 2)
                and all(type(v) in number and abs(v) < math.inf for v in value)
                and (hint is not tuple or _ordered(value))):
            return tuple(value)
    elif hint is float:
        if type(value) in number:
            return float(value)
    elif type(value) is hint:  # so true/false is not an integer
        return value
    raise ValueError(f"{where} must be {_JSON_TYPES[hint]}, got {value!r}")


def _from_dict(cls, doc, where: str, keys=None, under=None):
    """Build dataclass ``cls`` from the JSON object ``doc``.

    ``keys`` maps each accepted key to a field (default: the field names);
    ``under`` holds field values that ``doc`` may override.  Unknown keys,
    missing required fields and wrongly typed values raise ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    keys = keys or {f.name: f.name for f in fields(cls)}
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}")
    hints = get_type_hints(cls)
    values = dict(under or {})
    for key, value in doc.items():
        values[keys[key]] = _typed(value, hints[keys[key]], f"{where}.{key}")
    missing = [f.name for f in fields(cls) if f.name not in values and f.default is MISSING]
    if missing:
        raise ValueError(f"{where} lacks {missing}")
    return cls(**values)


def _compare_config(doc: dict, band=None, order=None, profile: str = "x1") -> CompareConfig:
    profile = _typed(doc.get("signal_profile", profile), str, "config.signal_profile")
    cfg = default_config(profile)
    # "config" names the top level itself; a key of that name is unknown
    skip = {"pct", "synth", "signal_profile", *_COMPARE_KEYS} - {"config"}
    top = {k: v for k, v in doc.items() if k not in skip}
    for section, keys in _COMPARE_KEYS.items():
        part = top if section == "config" else doc.get(section, {})
        cfg = _from_dict(CompareConfig, part, section, keys, vars(cfg))
    if band is not None:
        cfg.band_hz = band
    # the producers' own checks, so a bad file fails before any method runs
    _short_time_checks(cfg.stft_window, cfg.stft_hop, cfg.stft_fft)
    _wvd_checks(cfg.wvd_fft, cfg.spwvd_time_window, cfg.spwvd_freq_window)
    pct_doc = doc.get("pct", {})
    if order is not None and isinstance(pct_doc, dict):
        pct_doc = {**pct_doc, "order": order}
    cfg.pct = _from_dict(PCTConfig, pct_doc, "pct", under=vars(_pct_config(cfg)))
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
    doc = _load_config(args.config)
    generator = GENERATORS[args.signal_id]
    kwargs = doc.get("synth", {})
    if not isinstance(kwargs, dict):
        raise ValueError(f"synth must be a JSON object, got {kwargs!r}")
    hints = get_type_hints(generator)
    for flag, value, param in (
        ("--rate", args.rate, "sample_rate_hz"),
        ("--duration", args.duration, "duration_s"),
        ("--snr", args.snr, "snr"),
        ("--seed", args.seed, "seed"),
    ):
        if value is not None:
            if param not in hints:
                raise ValueError(f"{flag} does not apply to {args.signal_id}")
            kwargs[param] = value
    # a shared config may carry parameters for the other generator; keep only
    # what this one accepts, but reject keys unknown to every generator
    valid_anywhere = set().union(*(get_type_hints(g) for g in GENERATORS.values())) - {"return"}
    unknown = sorted(set(kwargs) - valid_anywhere)
    if unknown:
        raise ValueError(f"unknown synth parameters {unknown}")
    kwargs = {k: v for k, v in kwargs.items() if k in hints}
    # values are checked, then passed on as written so truth.json keeps them
    for key, value in kwargs.items():
        _typed(value, hints[key], f"synth.{key}")
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
    if args.order is not None and args.method != "pct":
        raise ValueError(f"--order does not apply to {args.method}")
    if args.db and not args.pgm:
        raise ValueError("--db does not apply without --pgm")
    x = _read_signal(args.input)
    x, factor = _maybe_decimate(x)
    doc = _load_config(args.config)
    cfg = _compare_config(doc, band=args.band, order=args.order)
    grid = run_transform(x, args.method, cfg)
    extra = {} if factor is None else {"decimation_factor": factor}
    band = cfg.band_hz
    folding = resolution_report(grid).folding_hz
    warnings = []
    if band is not None and band[1] > folding:
        warnings.append(
            f"band top {band[1]} Hz exceeds folding frequency {folding} Hz; "
            "content above it is aliased"
        )
    if grid.meta.get("converged") is False:
        warnings.append(
            f"the PCT kernel fit did not converge in {grid.meta['iterations']} iterations; "
            "the grid is the lowest-residual iterate's"
        )
    if warnings:
        extra["warnings"] = warnings
    pgm_payload = None
    if args.pgm:
        pgm_payload, extra["render"] = tfio.render_pgm(grid, db=args.db)
    grid = replace(grid, meta={**grid.meta, **extra})

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
    if args.methods is not None:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {tuple(METHODS)}")
    else:
        methods = DEFAULT_METHODS
    if args.order is not None and "pct" not in methods:
        raise ValueError("--order does not apply: --methods does not ask for pct")
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
        t = x.times()
        # to a millionth of a sample: a rate inferred from CSV time stamps is
        # only close to the one the file was written with
        if any(len(tr) != len(t) or np.max(np.abs(tr.times_s - t)) * x.sample_rate_hz > 1e-6
               for tr in truth):
            raise ValueError(
                "truth times_s do not match the signal's sample times "
                f"({x.sample_rate_hz:g} Hz from {x.start_time_s:g} s)"
            )
    x, _ = _maybe_decimate(x)
    signal_id = truth_meta.get("signal_id") or Path(args.input).stem
    doc = _load_config(args.config)
    cfg = _compare_config(doc, band=args.band, order=args.order, profile=signal_id)
    report = compare_methods(x, truth, methods, cfg, signal_id=signal_id)
    if all(r.error is not None for r in report.results):
        raise ValueError(
            "every method failed: " + "; ".join(f"{r.method}: {r.error}" for r in report.results)
        )

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
    except MemoryError as exc:
        # flags or an input whose arrays do not fit, such as synth --duration
        # 1e9 or analyze --method wvd of a long record; numpy names the size
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
