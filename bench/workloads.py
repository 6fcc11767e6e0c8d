"""Workload plans, input generation, CLI jobs and output checks.

Every job is one ``tfbench compare`` on one input record.  A workload is a
fixed composition of records.  The workload seed only chooses which shipped
x2 noise seeds fill the noisy slots and the job order of each cycle; the
composition, and so the mix of job costs, is the same for every seed.
References for every record a seed can pick are shipped in
``references.json``, so every seed's outputs are checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# x2 noise seeds the workloads draw from; references cover every one
NOISE_SEEDS = tuple(range(1, 9))

# relative tolerance on the numbers of a compare report
REPORT_RTOL = 1e-9


@dataclass(frozen=True)
class Record:
    """One input file: x1, or x2 at an SNR (inf for noiseless)."""

    signal: str
    snr: float = math.inf
    noise_seed: int = 1
    long: bool = False

    @property
    def key(self) -> str:
        if self.signal == "x1":
            return "x1"
        if math.isinf(self.snr):
            return "x2-snrinf"
        return f"x2-snr{self.snr:g}-s{self.noise_seed}"

    @property
    def suffix(self) -> str:
        return ".wav" if self.long else ".csv"


@dataclass(frozen=True)
class Workload:
    # 4 s at 1600 Hz as float32 WAV instead of 1 s at 320 Hz as CSV
    long: bool
    # noiseless records in every run; the first is the warm-up job
    fixed: tuple
    # SNR of each noisy x2 record
    noisy: tuple

    def pool(self) -> list:
        """Every record some seed can pick."""
        return [Record(sig, long=self.long) for sig in self.fixed] + [
            Record("x2", snr, seed, self.long)
            for snr in sorted(set(self.noisy), reverse=True)
            for seed in NOISE_SEEDS
        ]


WORKLOADS = {
    # the paper's scoreboard: every estimator, ridge and score at N=320
    "compare-burst": Workload(False, ("x1", "x2"), (10.0, 10.0, 3.0, 3.0)),
    # N=1280 after decimation: WVD-family arrays set peak memory; WAV input
    "compare-long": Workload(True, ("x2",), (10.0, 3.0)),
}


class Plan:
    """The records of one run and its cycles of jobs, all drawn from the seed."""

    def __init__(self, name: str, seed: int):
        w = WORKLOADS[name]
        self._rng = random.Random(f"{name}:{seed}")
        seeds = self._rng.sample(NOISE_SEEDS, len(w.noisy))
        self.records = [Record(sig, long=w.long) for sig in w.fixed] + [
            Record("x2", snr, s, w.long) for snr, s in zip(w.noisy, seeds)
        ]

    def cycle(self) -> list:
        """Every record of the run once, in a fresh seeded order."""
        records = list(self.records)
        self._rng.shuffle(records)
        return records

    @property
    def warmup(self) -> Record:
        return self.records[0]


def write_inputs(records, directory: Path) -> None:
    """Synthesize each record and write it with its truth sidecar."""
    from tfbench import io as tfio
    from tfbench import synth

    directory.mkdir(parents=True, exist_ok=True)
    for r in records:
        size = {"sample_rate_hz": 1600.0, "duration_s": 4.0} if r.long else {}
        if r.signal == "x1":
            sig = synth.gen_x1(**size)
        else:
            sig = synth.gen_x2(snr=r.snr, seed=r.noise_seed, **size)
        path = directory / f"{r.key}{r.suffix}"
        if r.long:
            tfio.write_wav(path, sig.signal, "float32")
        else:
            tfio.write_signal_csv(path, sig.signal)
        tfio.write_truth_json(directory / f"{r.key}.truth.json", sig)


def job_argv(record: Record, inputs: Path, out: Path) -> list:
    signal = str(inputs / f"{record.key}{record.suffix}")
    truth = str(inputs / f"{record.key}.truth.json")
    return ["compare", signal, "--truth", truth, "--out", str(out)]


def run_cli(argv) -> tuple:
    """One closed-loop job through ``tfbench.cli.main``: (seconds, exit code).

    The attribute is looked up on every call so the traced run's wrapper is
    the one timed.  Standard output is captured and dropped.
    """
    from tfbench import cli

    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a failed benchmark
        traceback.print_exc()
        code = 1
    return time.perf_counter() - start, code


def run_job(record: Record, inputs: Path, out: Path, references=None) -> tuple:
    """Run, check and remove one job's outputs: (seconds, bytes written, problem).

    ``problem`` is None when the job passed its output check (or when no
    references are given).
    """
    seconds, code = run_cli(job_argv(record, inputs, out))
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
    problem = None
    if code != 0:
        problem = f"exit code {code}"
    elif references is not None:
        problem = check(record, out, references)
    shutil.rmtree(out, ignore_errors=True)
    return seconds, written, problem


def observe(out: Path) -> dict:
    """Per method of ``report.json``: its error, or the numbers the check compares."""
    with open(out / "report.json") as fh:
        doc = json.load(fh)
    rows = {}
    for row in doc["results"]:
        if "error" in row:
            rows[row["method"]] = {"error": row["error"]}
        else:
            rows[row["method"]] = {k: row[k] for k in ("nrmse", "n_scored", "dominant_freq_hz")}
    return rows


def check(record: Record, out: Path, references: dict):
    """None if the job's report matches its reference, else what differs."""
    try:
        got = observe(out)
    except (OSError, ValueError, KeyError) as exc:
        return f"{record.key}: unreadable report: {exc!r}"
    for method, want in references[record.key].items():
        row = got.get(method)
        if row is None:
            return f"{record.key}: no {method} row in report.json"
        if "error" in row:
            return f"{record.key}: {method} failed: {row['error']}"
        if row["n_scored"] != want["n_scored"]:
            return f"{record.key}: {method} n_scored {row['n_scored']} != {want['n_scored']}"
        for key in ("nrmse", "dominant_freq_hz"):
            if not math.isclose(row[key], want[key], rel_tol=REPORT_RTOL, abs_tol=0.0):
                return f"{record.key}: {method} {key} {row[key]!r} != {want[key]!r}"
    return None


def load_references() -> dict:
    with open(Path(__file__).with_name("references.json")) as fh:
        return json.load(fh)
