"""tfbench benchmark: the CLI path a user runs, end to end and per layer.

    python3 bench/run.py --workload compare-burst --seed 1 --seconds 40 --trace 0

Each job is one ``tfbench.cli.main(argv)`` call in this process, closed
loop with one client, file writes included; every job's outputs are checked
against ``references.json``.  Jobs run in whole cycles (every job of the
run once, in a seeded order) until the summed job time reaches
``--seconds``.  The last line of standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import of tfbench, input generation and one warm-up job;
  median of this process and two fresh probe processes.
* ``jobs_per_s``: verified jobs over the summed job time.
* ``job_p50_s``, ``job_tail_s``: median job time and the highest
  percentile with at least 10 jobs beyond it (percentile and sample count
  printed beside it).
* ``peak_rss_mib``: highest ``ru_maxrss`` of the probe processes, which
  only set up; the warm-up job runs every method at the workload's size,
  untraced and unchecked.
* ``out_mib_per_job``: bytes each job writes.
* ``verified_frac``: jobs whose outputs passed the check over jobs
  attempted (1 - failed fraction; the contract wants metrics that are
  never 0).

``--trace 1`` alternates untraced and traced cycles, then runs the warm-up
job again under ``tracemalloc`` for the peaks, and reports the
per-layer metrics of ``spans.py``; spans go to ``.bench_work/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIB = 1024.0 * 1024.0
TAIL_BEYOND = 10
PROBES = 2


def import_tfbench() -> None:
    sys.path.insert(0, str(SRC))
    import tfbench

    if Path(tfbench.__file__).resolve().parent != (SRC / "tfbench").resolve():
        sys.exit(f"error: imported tfbench from {tfbench.__file__}, not from {SRC}")


def setup(workload: str, seed: int, work: Path, tracer=None):
    """Import, write the run's inputs and run the warm-up job.

    Returns (seconds, plan).  With a tracer, input generation is traced
    under the job id ``setup``.
    """
    start = time.perf_counter()
    import_tfbench()
    import workloads

    plan = workloads.Plan(workload, seed)
    if tracer is not None:
        tracer.install()
    workloads.write_inputs(plan.records, work / "inputs")
    if tracer is not None:
        tracer.uninstall()
    _, _, problem = workloads.run_job(plan.warmup, work / "inputs", work / "warmup")
    if problem is not None:
        sys.exit(f"error: warm-up job {plan.warmup.key} failed: {problem}")
    return time.perf_counter() - start, plan


def probe(args) -> dict:
    """Body of a probe process: set up once."""
    work = WORK / f"probe-{os.getpid()}"
    try:
        setup_s, _ = setup(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "rss_mib": rss_mib}


def run_probes(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    results = []
    for _ in range(PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: probe process exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


class Loop:
    """Runs and checks jobs, keeping their times, sizes and failures."""

    def __init__(self, work: Path, references: dict):
        self.work = work
        self.references = references
        self.seconds: list = []
        self.written = 0
        self.failed = 0
        self.n = 0

    def run(self, job) -> float:
        import workloads

        dt, written, problem = workloads.run_job(
            job, self.work / "inputs", self.work / f"job{self.n}", self.references
        )
        self.n += 1
        self.seconds.append(dt)
        self.written += written
        if problem is not None:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)
        return dt


def tail(seconds: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def end_to_end(args, work: Path) -> tuple:
    probes = run_probes(args)
    setup_s, plan = setup(args.workload, args.seed, work)
    import workloads

    loop = Loop(work, workloads.load_references()[args.workload])
    busy = 0.0
    while busy < args.seconds:
        for job in plan.cycle():
            busy += loop.run(job)
    verified = loop.n - loop.failed
    value, pct = tail(loop.seconds)
    metrics = {
        "setup_s": statistics.median([setup_s] + [p["setup_s"] for p in probes]),
        "jobs_per_s": verified / sum(loop.seconds),
        "job_p50_s": statistics.median(loop.seconds),
        "job_tail_s": value,
        "peak_rss_mib": max(p["rss_mib"] for p in probes),
        "out_mib_per_job": loop.written / loop.n / MIB,
        "verified_frac": verified / loop.n,
    }
    notes = {"job_tail_s": f"p{pct:.1f} of {loop.n} jobs"}
    return loop, metrics, notes


def per_layer(args, work: Path) -> tuple:
    import spans

    tracer = spans.Tracer()
    _, plan = setup(args.workload, args.seed, work, tracer)
    import workloads

    loop = Loop(work, workloads.load_references()[args.workload])
    untraced, traced, traced_jobs = [], [], []

    def traced_pass(jobs):
        tracer.install()
        try:
            for job in jobs:
                tracer.job = f"job{loop.n}"
                traced_jobs.append(tracer.job)
                traced.append(loop.run(job))
        finally:
            tracer.uninstall()

    # each cycle runs once untraced and once traced, alternating which
    # goes first so that drift does not read as tracing overhead
    untraced_first = True
    while sum(untraced) + sum(traced) < args.seconds:
        jobs = plan.cycle()
        if untraced_first:
            untraced.extend(loop.run(job) for job in jobs)
        traced_pass(jobs)
        if not untraced_first:
            untraced.extend(loop.run(job) for job in jobs)
        untraced_first = not untraced_first

    memory = spans.Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        memory.job = f"job{loop.n}"
        loop.run(plan.warmup)
    finally:
        tracemalloc.stop()
        memory.uninstall()

    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    layers = spans.layer_metrics(tracer, traced_jobs)
    layers.update(spans.setup_metrics(tracer))
    layers.update(spans.peak_metrics(memory))
    layers.update(spans.overhead_metrics(traced, untraced))
    gap = layers["trace.self_sum_s"] - layers["trace.untraced_job_mean_s"]
    notes = {"trace.self_sum_s": f"minus the untraced job mean: {gap:+.6f} s"}
    return loop, layers, notes


def spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    bench = spec()
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tfbench" / "__init__.py").is_file():
        sys.exit(f"error: tfbench sources not found under {SRC}")
    if args.probe:
        print(json.dumps(probe(args)))
        return 0

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            loop, metrics, notes = per_layer(args, work)
        else:
            loop, metrics, notes = end_to_end(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reported = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        value = metrics[m["name"]]
        reported[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:34s} {value:18.6f} {m['unit']}{note}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.n,
        "failed": loop.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
