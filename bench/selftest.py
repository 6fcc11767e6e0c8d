"""Self-test of the benchmark: its runs verify, and its checks can fail.

    python3 -m pytest bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_verifies_every_job(workload):
    doc = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert doc["metrics"]["verified_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    doc = _result(_bench("--workload", "compare-burst", "--seed", "5", "--seconds", "0.1", "--trace", "1"))
    assert doc["correct"] and doc["failed"] == 0
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    assert m["core.analytic_signal_calls"] == 3.0
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.job_mean_s"], rel=0.01)


def test_tracer_wraps_names_where_callers_look_them_up():
    run.import_tfbench()
    import spans
    import tfbench.cli
    import tfbench.evaluate
    import tfbench.pct
    import tfbench.tfd

    looked_up = [
        (tfbench.evaluate, "wvd"), (tfbench.evaluate, "stft"), (tfbench.cli, "run_transform"),
        (tfbench.pct, "pct_transform"), (tfbench.pct, "extract_ridge"), (tfbench.tfd, "analytic_signal"),
        (tfbench.evaluate, "_score"), (tfbench.cli, "main"),
    ]
    originals = [getattr(m, name) for m, name in looked_up]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, name) is not f for (m, name), f in zip(looked_up, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(m, name) is f for (m, name), f in zip(looked_up, originals))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "compare-burst", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_changed_or_failed_report_row_is_a_failure(tmp_path):
    run.import_tfbench()
    references = workloads.load_references()["compare-burst"]
    record = workloads.Record("x1")
    workloads.write_inputs([record], tmp_path)
    out = tmp_path / "out"
    assert workloads.run_cli(workloads.job_argv(record, tmp_path, out))[1] == 0
    assert workloads.check(record, out, references) is None

    report = json.loads((out / "report.json").read_text())
    row = next(r for r in report["results"] if r["method"] == "spwvd")
    row["nrmse"] *= 1.0 + 1e-6
    (out / "report.json").write_text(json.dumps(report))
    assert "spwvd nrmse" in workloads.check(record, out, references)

    row["error"] = "boom"
    (out / "report.json").write_text(json.dumps(report))
    assert "spwvd failed" in workloads.check(record, out, references)
