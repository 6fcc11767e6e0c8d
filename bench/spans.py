"""Spans around the calls into each tfbench module, recorded from outside.

``Tracer.install`` replaces every public function defined in a tfbench
module, plus the private scoring step, by a wrapper that records a span
(name, start, end, parent, job).  The modules import names from each other
directly (``from .tfd import stft``), so the wrapper is installed in every
tfbench namespace that holds the function, where its callers look it up.
Spans stay in memory until the run writes them out.

With ``memory=True`` the tracer also records, from ``tracemalloc``, the
highest traced allocation above the span's starting level.  That pass is
separate because ``tracemalloc`` slows Python-heavy steps far more than
the numpy transforms, so its times would mislead.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc

LAYERS = ("cli", "io", "core", "synth", "tfd", "pct", "evaluate")

# private functions that are layer steps the metrics name
PRIVATE_STEPS = {"tfbench.evaluate": ("_score",)}

MIB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "base", "high")

    def __init__(self, name, job, parent):
        self.name = name
        self.job = job
        self.parent = parent
        self.base = self.high = 0

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _grid_cells(counts, grid, args, kwargs):
    counts["tfd.grid_cells"] += grid.values.size


def _wvd_family(counts, grid, args, kwargs):
    _grid_cells(counts, grid, args, kwargs)
    # computed, not measured: the (lags x N) lag product plus the
    # (N x nfft) lag-on-DFT-grid array, both complex128, as tfd builds them
    n = grid.n_times
    lags = 2 * ((n - 1) // 2) + 1
    counts["tfd.lag_bytes"] += 16 * n * (lags + int(grid.meta["fft_length"]))


def _kernel_fit(counts, fit, args, kwargs):
    counts["pct.fits"] += 1
    counts["pct.iterations"] += fit.iterations
    counts["pct.converged"] += bool(fit.converged)


def _ridge(counts, ridge, args, kwargs):
    grid = _arg(args, kwargs, 0, "g")
    band = _arg(args, kwargs, 1, "band_hz")
    f = grid.freqs_hz
    if band is not None:
        f = f[(f >= band[0]) & (f <= band[1])]
    at_edge = ridge.valid & ((ridge.freqs_hz == f[0]) | (ridge.freqs_hz == f[-1]))
    counts["evaluate.frames"] += len(ridge)
    counts["evaluate.valid_frames"] += int(ridge.valid.sum())
    counts["evaluate.edge_frames"] += int(at_edge.sum())


HOOKS = {
    "tfd.stft": _grid_cells,
    "tfd.wvd": _wvd_family,
    "tfd.pwvd": _wvd_family,
    "tfd.spwvd": _wvd_family,
    "pct.estimate_kernel": _kernel_fit,
    "evaluate.extract_ridge": _ridge,
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []
        self.counts = collections.defaultdict(collections.Counter)
        self.job = "setup"
        self._stack: list = []
        self._patched: list = []

    def _enter(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.job, parent)
        if self.memory:
            current, high = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.high = max(parent.high, high)
            tracemalloc.reset_peak()
            span.base = span.high = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.high = max(span.high, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                span.parent.high = max(span.parent.high, span.high)
            tracemalloc.reset_peak()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                hook(self.counts[self.job], result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n.startswith("tfbench.") and n.rpartition(".")[2] in LAYERS
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            private = PRIVATE_STEPS.get(mod.__name__, ())
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in private)
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr.lstrip('_')}", value)
        for mod in modules + [sys.modules["tfbench"]]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = None if s.parent is None else index[id(s.parent)]
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": parent, "job": s.job,
                }) + "\n")


# metric -> span-name prefixes whose inclusive seconds it sums per job
INCLUSIVE = {
    "tfd.stft_s": ("tfd.stft",),
    "tfd.wvd_family_s": ("tfd.wvd", "tfd.pwvd", "tfd.spwvd"),
    "io.read_signal_s": ("io.read_signal", "io.read_wav"),
    "io.read_truth_s": ("io.read_truth",),
    "io.write_report_s": ("io.write_json",),
    "pct.estimate_kernel_s": ("pct.estimate_kernel",),
    "pct.transform_s": ("pct.pct_transform",),
    "core.analytic_signal_s": ("core.analytic_signal",),
    "evaluate.extract_ridge_s": ("evaluate.extract_ridge",),
    "evaluate.score_s": ("evaluate.score",),
    "evaluate.dominant_frequency_s": ("evaluate.dominant_frequency",),
}

# steps that some workload never runs, as a share of traced job time: a
# time that reads 0.0 on every run cannot be told from a stub
SHARES = {
    "core.decimate_share": ("core.decimate",),
}

# metric -> span-name prefix whose calls it counts per job
CALLS = {
    "pct.transform_calls": "pct.pct_transform",
    "core.analytic_signal_calls": "core.analytic_signal",
    "evaluate.extract_ridge_calls": "evaluate.extract_ridge",
}

# layers whose per-job self time is reported; synth runs only in setup
SELF_LAYERS = ("cli", "io", "core", "tfd", "pct", "evaluate")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs) -> dict:
    """Per-job means of the traced pass's spans and counts over ``jobs``."""
    jobs = list(jobs)
    child = collections.Counter()
    for s in tracer.spans:
        if s.parent is not None:
            child[id(s.parent)] += s.seconds
    wanted = set(jobs)
    totals = collections.Counter()
    for s in tracer.spans:
        if s.job not in wanted:
            continue
        totals[f"{s.layer}.self_s"] += s.seconds - child[id(s)]
        for metric, prefixes in (*INCLUSIVE.items(), *SHARES.items()):
            if s.name.startswith(prefixes):
                totals[metric] += s.seconds
        for metric, prefix in CALLS.items():
            if s.name.startswith(prefix):
                totals[metric] += 1
    counts = collections.Counter()
    for job in jobs:
        counts.update(tracer.counts[job])
    n = len(jobs)
    out = {m: totals[m] / n for m in (*INCLUSIVE, *CALLS)}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = totals[f"{layer}.self_s"] / n
    traced_s = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.self_sum_s"] = traced_s / n
    for metric in SHARES:
        out[metric] = _ratio(totals[metric], traced_s)
    out["tfd.grid_cells"] = counts["tfd.grid_cells"] / n
    out["tfd.lag_bytes"] = counts["tfd.lag_bytes"] / n
    out["pct.iterations"] = _ratio(counts["pct.iterations"], counts["pct.fits"])
    out["pct.converged_frac"] = _ratio(counts["pct.converged"], counts["pct.fits"])
    out["evaluate.valid_frame_frac"] = _ratio(counts["evaluate.valid_frames"], counts["evaluate.frames"])
    out["evaluate.edge_frame_frac"] = _ratio(counts["evaluate.edge_frames"], counts["evaluate.valid_frames"])
    return out


def setup_metrics(tracer: Tracer) -> dict:
    gen = sum(s.seconds for s in tracer.spans if s.job == "setup" and s.name.startswith("synth.gen_"))
    return {"synth.gen_s": gen}


def peak_metrics(tracer: Tracer) -> dict:
    """Highest allocation above entry level of any tfd and any pct call."""
    peaks = collections.Counter()
    for s in tracer.spans:
        if s.layer in ("tfd", "pct"):
            peaks[s.layer] = max(peaks[s.layer], s.high - s.base)
    return {"tfd.peak_mib": peaks["tfd"] / MIB, "pct.peak_mib": peaks["pct"] / MIB}


def overhead_metrics(traced_s, untraced_s) -> dict:
    traced = statistics.fmean(traced_s)
    untraced = statistics.fmean(untraced_s)
    return {
        "trace.job_mean_s": traced,
        "trace.untraced_job_mean_s": untraced,
        "trace.untraced_job_p50_s": statistics.median(untraced_s),
        "trace.overhead_s": traced - untraced,
    }
