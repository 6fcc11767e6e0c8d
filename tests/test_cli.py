import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tfbench
from tfbench import evaluate, tfd
from tfbench.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, _compare_config, main
from tfbench.io import read_signal_csv, read_truth_json, write_signal_csv, write_wav
from tfbench.core import SampledSignal, WindowSpec
from tfbench.evaluate import default_config
from tfbench.pct import PCTConfig
from tfbench.tfd import next_pow2


def synth(tmp_path, signal_id="x1", *extra):
    rc = main(["synth", signal_id, "--out", str(tmp_path), *extra])
    assert rc == EXIT_OK
    return tmp_path / f"{signal_id}.csv", tmp_path / f"{signal_id}.truth.json"


def test_synth_writes_signal_and_truth(tmp_path, capsys):
    csv_path, truth_path = synth(tmp_path)
    assert csv_path.exists() and truth_path.exists()
    out = capsys.readouterr().out
    assert str(csv_path) in out and str(truth_path) in out
    x = read_signal_csv(csv_path)
    assert len(x) == 320
    trajectories, meta = read_truth_json(truth_path)
    assert meta["signal_id"] == "x1"
    assert len(trajectories) == 2


def test_synth_reruns_byte_identical(tmp_path):
    a_csv, a_truth = synth(tmp_path / "a", "x2", "--seed", "7")
    b_csv, b_truth = synth(tmp_path / "b", "x2", "--seed", "7")
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_truth.read_bytes() == b_truth.read_bytes()


def test_synth_flags_override(tmp_path):
    csv_path, truth_path = synth(tmp_path, "x2", "--snr", "inf", "--duration", "1.25")
    x = read_signal_csv(csv_path)
    assert len(x) == 400
    _, meta = read_truth_json(truth_path)
    assert meta["params"]["snr"] == float("inf")


def test_synth_rejects_unknown_id(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "x9", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_synth_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"seed": 3, "snr": 5.0}}))
    csv_a, _ = synth(tmp_path / "a", "x2", "--config", str(cfg))
    rc = main(["synth", "x2", "--out", str(tmp_path / "b"), "--config", str(cfg), "--seed", "4"])
    assert rc == EXIT_OK
    # the flag wins over the config value
    a = read_signal_csv(csv_a)
    b = read_signal_csv(tmp_path / "b" / "x2.csv")
    assert not np.array_equal(a.samples, b.samples)
    # x1 ignores the x2-only knobs instead of failing
    rc = main(["synth", "x1", "--out", str(tmp_path / "c"), "--config", str(cfg)])
    assert rc == EXIT_OK


@pytest.mark.parametrize("flags, named", [(["--snr", "3"], "--snr"), (["--seed", "9"], "--seed"),
                                          (["--snr", "3", "--seed", "9"], "--snr")])
def test_synth_flag_the_generator_does_not_take_exits_validation(tmp_path, capsys, flags, named):
    """x1 has no noise: an explicit x2-only flag is an error that names the
    flag, and nothing is written; the same keys in a config file are dropped
    (test_synth_config_file)."""
    out = tmp_path / "out"
    assert main(["synth", "x1", "--out", str(out), *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert named in err and "x1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "synth_doc, key",
    [
        ({"seed": "3"}, "synth.seed"),
        ({"snr": "10"}, "synth.snr"),
        ({"chirp_coeffs": [1, 2]}, "synth.chirp_coeffs"),
        ({"chirp_coeffs": [1, 2, "3"]}, "synth.chirp_coeffs"),
        ({"snr_is_db": 1}, "synth.snr_is_db"),
        ({"sample_rate_hz": "320"}, "synth.sample_rate_hz"),
    ],
)
def test_synth_config_bad_values_exit_validation(tmp_path, capsys, synth_doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": synth_doc}))
    out = tmp_path / "out"
    assert main(["synth", "x2", "--out", str(out), "--config", str(cfg)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config, key",
    [
        (["--rate", "inf"], None, "sample_rate_hz"),
        (["--rate", "nan"], None, "sample_rate_hz"),
        (["--duration", "inf"], None, "duration_s"),
        ([], '{"synth": {"duration_s": 1e400}}', "duration_s"),
    ],
    ids=["rate-inf", "rate-nan", "duration-inf", "config-duration-1e400"],
)
def test_synth_non_finite_size_exits_validation(tmp_path, capsys, flags, config, key):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)  # 1e400 parses to inf
        flags = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["synth", "x1", "--out", str(out), *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--duration", "1e308"],
                                   ["--rate", "1e300", "--duration", "1e10"]],
                         ids=["duration-1e308", "rate-1e300"])
def test_synth_overflowing_sample_count_exits_validation(tmp_path, capsys, flags):
    """A finite rate and duration whose product overflows leave no finite
    sample count: exit 3 naming both, not a traceback, and nothing written."""
    out = tmp_path / "out"
    assert main(["synth", "x1", "--out", str(out), *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample_rate_hz" in err and "duration_s" in err
    assert err.count("\n") == 1
    assert not out.exists()


def _synth_db(tmp_path, name, snr) -> tuple:
    """(exit code, output directory) of synth x2 with ``snr`` in dB, a JSON literal."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(f'{{"synth": {{"snr": {snr}, "snr_is_db": true}}}}')
    out = tmp_path / name
    return main(["synth", "x2", "--out", str(out), "--config", str(cfg)]), out


@pytest.mark.parametrize("snr", ["0", "-3"])
def test_synth_takes_zero_and_negative_db(tmp_path, snr):
    """0 dB and -3 dB are power ratios of 1 and 0.5: a noisy record."""
    code, out = _synth_db(tmp_path, "db", snr)
    assert code == EXIT_OK
    clean, _ = synth(tmp_path / "clean", "x2", "--snr", "inf")
    noisy = read_signal_csv(out / "x2.csv").samples
    assert not np.array_equal(noisy, read_signal_csv(clean).samples)
    params = json.loads((out / "x2.truth.json").read_text())["params"]
    assert params["snr"] == float(snr) and params["snr_is_db"] is True


def test_synth_db_past_the_float_range_is_noiseless(tmp_path):
    """10^(5000/10) overflows a float: the ratio counts as inf, so the record
    is the --snr inf one."""
    code, out = _synth_db(tmp_path, "db", "5000")
    assert code == EXIT_OK
    clean, _ = synth(tmp_path / "clean", "x2", "--snr", "inf")
    assert (out / "x2.csv").read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("snr", ["NaN", "-Infinity"])
def test_synth_db_without_a_positive_ratio_exits_validation(tmp_path, capsys, snr):
    code, out = _synth_db(tmp_path, "db", snr)
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: snr in dB ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("snr", ["0", "-1"])
def test_synth_linear_snr_must_be_positive(tmp_path, capsys, snr):
    out = tmp_path / "out"
    assert main(["synth", "x2", "--snr", snr, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: snr must be positive, got {float(snr)}\n"
    assert not out.exists()


def test_synth_config_values_pass_as_written(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"sample_rate_hz": 400, "duration_s": 1,
                                         "chirp_coeffs": [870, -215.0, 20]}}))
    rc = main(["synth", "x2", "--out", str(tmp_path), "--config", str(cfg)])
    assert rc == EXIT_OK
    params = json.loads((tmp_path / "x2.truth.json").read_text())["params"]
    assert type(params["sample_rate_hz"]) is int and type(params["duration_s"]) is int
    assert params["chirp_phase_coeffs"] == [870, -215.0, 20]


def test_synth_config_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"wavelet_order": 3}}))
    assert main(["synth", "x1", "--out", str(tmp_path), "--config", str(cfg)]) == EXIT_VALIDATION


def test_analyze_stft_outputs(tmp_path, capsys):
    csv_path, _ = synth(tmp_path)
    rc = main(["analyze", str(csv_path), "--method", "stft", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    grid_csv = tmp_path / "x1.stft.csv"
    meta_json = tmp_path / "x1.stft.meta.json"
    assert grid_csv.exists() and meta_json.exists()
    meta = json.loads(meta_json.read_text())
    assert meta["method"] == "stft"
    assert meta["freq_step_hz"] == pytest.approx(0.625)
    assert meta["time_step_s"] == pytest.approx(0.0125)
    first_line = grid_csv.read_text().splitlines()[0]
    assert first_line.startswith(",")


def test_analyze_pgm_rendering(tmp_path):
    csv_path, _ = synth(tmp_path)
    rc = main([
        "analyze", str(csv_path), "--method", "stft", "--pgm", "--db",
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    pgm = tmp_path / "x1.stft.pgm"
    assert pgm.read_bytes().startswith(b"P5\n")
    meta = json.loads((tmp_path / "x1.stft.meta.json").read_text())
    assert meta["meta"]["render"]["mode"] == "db"


def test_analyze_pct_with_order(tmp_path):
    csv_path, _ = synth(tmp_path, "x2", "--seed", "0")
    rc = main([
        "analyze", str(csv_path), "--method", "pct", "--order", "2",
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "x2.pct.meta.json").read_text())
    assert meta["method"] == "pct"
    assert len(meta["meta"]["kernel_coeffs"]) == 2


def _cli(*args):
    """Run the CLI in a fresh interpreter, as a user does, so that a warning
    reaches stderr and not the test's warning filter."""
    env = {**os.environ, "PYTHONPATH": str(Path(tfbench.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "tfbench.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("signal_id", ["x1", "x2"])
def test_compare_rank_deficient_pct_fit_is_an_error_row(tmp_path, signal_id):
    """An order too high for PCT's ridge frames makes a rank-deficient kernel
    fit: compare gives PCT an error row that names the order, the rank and
    the valid frames, scores the other methods, and warns nothing."""
    csv_path, truth_path = synth(tmp_path, signal_id)
    run = _cli("compare", csv_path, "--truth", truth_path, "--order", "35",
               "--out", tmp_path / "out")
    assert run.returncode == EXIT_OK, run.stderr
    assert "RankWarning" not in run.stderr and run.stderr == ""
    rows = {r["method"]: r for r in json.loads((tmp_path / "out" / "report.json").read_text())[
        "results"]}
    assert re.fullmatch(r"the order-35 fit through \d+ valid ridge frames is rank deficient "
                        r"\(rank \d+ < 36\); lower the order", rows["pct"]["error"])
    assert all("error" not in row for method, row in rows.items() if method != "pct")


def test_analyze_rank_deficient_pct_fit_exits_validation(tmp_path):
    csv_path, _ = synth(tmp_path)
    run = _cli("analyze", csv_path, "--method", "pct", "--order", "35", "--out", tmp_path / "out")
    assert run.returncode == EXIT_VALIDATION
    assert "RankWarning" not in run.stderr
    assert run.stderr.startswith("error: the order-35 fit through ") and run.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_analyze_warns_when_the_pct_fit_does_not_converge(tmp_path):
    """An order-25 kernel fit of x1 stops at the iteration cap unconverged:
    analyze still writes the grid, and its meta carries a warning naming the
    iteration count, as compare's row says "not converged".  The default
    order converges and warns nothing."""
    csv_path, _ = synth(tmp_path)
    argv = ["analyze", str(csv_path), "--method", "pct", "--out", str(tmp_path / "out")]
    assert main([*argv, "--order", "25"]) == EXIT_OK
    meta = json.loads((tmp_path / "out" / "x1.pct.meta.json").read_text())["meta"]
    assert meta["converged"] is False and meta["iterations"] == 10
    assert meta["warnings"] == ["the PCT kernel fit did not converge in 10 iterations; "
                                "the grid is the lowest-residual iterate's"]
    assert main(argv) == EXIT_OK
    meta = json.loads((tmp_path / "out" / "x1.pct.meta.json").read_text())["meta"]
    assert meta["converged"] is True and "warnings" not in meta


def test_compare_notes_a_pct_fit_that_does_not_converge(tmp_path):
    """The order-25 fit of x1 above: compare's pct row ends "not converged",
    and report.json holds converged false."""
    csv_path, truth_path = synth(tmp_path)
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--truth", str(truth_path), "--methods", "pct",
                 "--order", "25", "--out", str(out)]) == EXIT_OK
    rows = [row for row in (out / "report.txt").read_text().splitlines() if row.startswith("pct")]
    assert len(rows) == 1 and rows[0].endswith("  not converged")
    (result,) = json.loads((out / "report.json").read_text())["results"]
    assert result["method"] == "pct" and result["converged"] is False


def test_analyze_band_beyond_folding_warns(tmp_path):
    csv_path, _ = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wvd": {"fft_length": 128}}))
    rc = main([
        "analyze", str(csv_path), "--method", "wvd", "--band", "5:200",
        "--config", str(cfg), "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "x1.wvd.meta.json").read_text())
    assert any("folding" in w for w in meta["meta"]["warnings"])


def test_analyze_missing_input(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.csv"), "--method", "stft"]) == EXIT_IO


def test_analyze_reads_wav(tmp_path):
    fs = 320.0
    t = np.arange(320) / fs
    write_wav(tmp_path / "tone.wav", SampledSignal(np.sin(2 * np.pi * 40 * t), fs))
    rc = main(["analyze", str(tmp_path / "tone.wav"), "--method", "stft", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "tone.stft.csv").exists()


def test_compare_bad_wav_exits_validation_naming_the_file(tmp_path, capsys):
    _, truth = synth(tmp_path)
    wav = tmp_path / "cut.wav"
    wav.write_bytes(b"RIFF\0\0")
    argv = ["compare", str(wav), "--truth", str(truth), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {wav}: truncated WAV header")
    wav.unlink()
    assert main(argv) == EXIT_IO


def test_wav_cut_short_exits_validation(tmp_path, capsys):
    """A 4 s 1600 Hz x2 WAV cut to half its bytes names the file and the
    missing bytes, in analyze and in compare, and writes nothing."""
    main(["synth", "x2", "--rate", "1600", "--duration", "4", "--out", str(tmp_path)])
    wav = tmp_path / "x2.wav"
    write_wav(wav, read_signal_csv(tmp_path / "x2.csv"))
    wav.write_bytes(wav.read_bytes()[: wav.stat().st_size // 2])
    out = tmp_path / "out"
    for argv in (["analyze", str(wav), "--method", "stft"],
                 ["compare", str(wav), "--truth", str(tmp_path / "x2.truth.json")]):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {wav}: data chunk holds ")
    assert not out.exists()


def test_cli_runs_without_scipy(tmp_path):
    """Importing tfbench and running synth, compare, and analyze of a WAV
    that is decimated loads no scipy module."""
    script = f"""
import sys
sys.path.insert(0, {str(Path(tfbench.__file__).parents[1])!r})
import tfbench, tfbench.cli
from tfbench.cli import main
from tfbench.core import SampledSignal
from tfbench.io import read_signal_csv, write_wav
out = {str(tmp_path)!r}
assert main(["synth", "x1", "--out", out]) == 0
assert main(["compare", out + "/x1.csv", "--truth", out + "/x1.truth.json",
             "--out", out + "/compare"]) == 0
x = read_signal_csv(out + "/x1.csv")
write_wav(out + "/x1.wav", SampledSignal(x.samples, 1600.0))
assert main(["analyze", out + "/x1.wav", "--method", "spwvd", "--out", out + "/analyze"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "analyze" / "x1.spwvd.meta.json").read_text())[
        "meta"]["decimation_factor"] == 5


def test_analyze_decimates_high_rate_input(tmp_path):
    fs = 3200.0
    t = np.arange(3200) / fs
    write_signal_csv(tmp_path / "hi.csv", SampledSignal(np.sin(2 * np.pi * 40 * t), fs))
    rc = main(["analyze", str(tmp_path / "hi.csv"), "--method", "stft", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "hi.stft.meta.json").read_text())
    assert meta["meta"]["decimation_factor"] == 10
    assert meta["meta"]["sample_rate_hz"] == pytest.approx(320.0)


def test_compare_full_pipeline(tmp_path, capsys):
    csv_path, truth_path = synth(tmp_path, "x2", "--seed", "1")
    capsys.readouterr()  # drop the synth path echoes
    rc = main([
        "compare", str(csv_path), "--truth", str(truth_path), "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["signal_id"] == "x2"
    methods = [r["method"] for r in report["results"]]
    assert methods == ["stft", "pct", "wvd", "spwvd"]
    for r in report["results"]:
        assert "nrmse" in r and r["nrmse"] >= 0.0
    by_method = {r["method"]: r["nrmse"] for r in report["results"]}
    assert by_method["wvd"] == max(by_method.values())
    table = (tmp_path / "report.txt").read_text()
    assert table.startswith("signal: x2")
    assert capsys.readouterr().out.startswith("signal: x2")


def test_compare_subset_of_methods(tmp_path):
    csv_path, truth_path = synth(tmp_path)
    rc = main([
        "compare", str(csv_path), "--truth", str(truth_path),
        "--methods", "stft,wvd", "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["method"] for r in report["results"]] == ["stft", "wvd"]


def test_compare_unknown_method(tmp_path):
    csv_path, truth_path = synth(tmp_path)
    rc = main([
        "compare", str(csv_path), "--truth", str(truth_path),
        "--methods", "stft,wavelet", "--out", str(tmp_path),
    ])
    assert rc == EXIT_VALIDATION


def test_compare_duplicate_method_exits_validation_with_no_output(tmp_path, capsys):
    csv_path, truth_path = synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main([
        "compare", str(csv_path), "--truth", str(truth_path),
        "--methods", "stft,wvd,stft", "--out", str(out),
    ])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate methods ['stft']" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["", " , "])
def test_compare_no_methods_exits_validation_with_no_output(tmp_path, capsys, methods):
    """An empty --methods asks for no method; it does not fall back to the defaults."""
    csv_path, truth_path = synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["compare", str(csv_path), "--truth", str(truth_path),
               "--methods", methods, "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: at least one method must be requested\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("analyze", ["--method", "stft", "--order", "7"], "--order does not apply to stft"),
    ("compare", ["--methods", "stft,wvd", "--order", "7"],
     "--order does not apply: --methods does not ask for pct"),
    ("analyze", ["--method", "stft", "--db"], "--db does not apply without --pgm"),
], ids=["analyze-order", "compare-order", "analyze-db"])
def test_a_flag_that_changes_nothing_exits_validation_with_no_output(tmp_path, capsys, command,
                                                                     flags, message):
    csv_path, _ = synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, str(csv_path), *flags, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_compare_truth_length_mismatch(tmp_path):
    _, truth_path = synth(tmp_path / "short", "x1")
    long_csv, _ = synth(tmp_path / "long", "x1", "--duration", "1.25")
    rc = main([
        "compare", str(long_csv), "--truth", str(truth_path), "--out", str(tmp_path),
    ])
    assert rc == EXIT_VALIDATION


def test_compare_missing_truth(tmp_path):
    csv_path, _ = synth(tmp_path)
    rc = main([
        "compare", str(csv_path), "--truth", str(tmp_path / "absent.json"),
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_IO


def test_compare_without_truth_skips_scores(tmp_path):
    csv_path, _ = synth(tmp_path)
    rc = main(["compare", str(csv_path), "--methods", "stft", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert "nrmse" not in report["results"][0]
    assert "dominant_freq_hz" in report["results"][0]


def test_compare_config_overrides(tmp_path):
    csv_path, truth_path = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stft": {"fft_length": 256}}))
    rc = main([
        "compare", str(csv_path), "--truth", str(truth_path), "--methods", "stft",
        "--config", str(cfg), "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"][0]["resolution"]["spectral_resolution_hz"] == pytest.approx(1.25)


def test_compare_band_flag(tmp_path):
    csv_path, truth_path = synth(tmp_path)
    rc = main([
        "compare", str(csv_path), "--truth", str(truth_path), "--methods", "stft",
        "--band", "10:60", "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(csv_path), "--band", "60", "--out", str(tmp_path)])
    assert exc.value.code == 2
    for band in ("60:10", "nan:10", "5:inf"):
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(csv_path), "--band", band, "--out", str(tmp_path)])
        assert exc.value.code == 2


def test_compare_report_same_with_and_without_band_grids(tmp_path, monkeypatch):
    # at 1000/3 Hz the first two bins of a 5-80 Hz band are not fs/(2 nfft)
    # apart to the last bit, so spectral_resolution_hz must come from the meta
    csv_path, truth_path = synth(tmp_path, "x1", "--rate", str(1000.0 / 3.0))
    x = read_signal_csv(csv_path)
    band = tfd._wvd_family("wvd", x, next_pow2(4 * len(x)), True).scan((5.0, 80.0))
    assert band.freqs_hz[1] - band.freqs_hz[0] != x.sample_rate_hz / (2.0 * band.meta["fft_length"])
    argv = ["compare", str(csv_path), "--truth", str(truth_path),
            "--methods", "stft,wvd,pwvd,spwvd,pct"]
    assert main([*argv, "--out", str(tmp_path / "band")]) == EXIT_OK

    # compare scans every method's rows as they are made; here every method
    # builds its full grid, which is then scanned
    scanned = []

    def scan_full_grid(x, method, cfg):
        grid = evaluate.run_transform(x, method, cfg)
        scanned.append((method, grid.freqs_hz[0]))
        return tfd._band_magnitudes(grid, cfg.band_hz)

    monkeypatch.setattr(evaluate, "_scan_method", scan_full_grid)
    assert main([*argv, "--out", str(tmp_path / "full")]) == EXIT_OK
    assert scanned == [(m, 0.0) for m in ("stft", "wvd", "pwvd", "spwvd", "pct")]  # full axes
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "band" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_config_file_errors(tmp_path):
    csv_path, _ = synth(tmp_path)
    missing = main([
        "analyze", str(csv_path), "--method", "stft",
        "--config", str(tmp_path / "none.json"), "--out", str(tmp_path),
    ])
    assert missing == EXIT_IO
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main([
        "analyze", str(csv_path), "--method", "stft",
        "--config", str(bad), "--out", str(tmp_path),
    ]) == EXIT_VALIDATION


def test_analyze_rejects_periodic_lag_window(tmp_path, capsys):
    csv_path, _ = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    window = {"kind": "hann", "length_samples": 63, "periodic": True}
    cfg.write_text(json.dumps({"spwvd": {"freq_window": window}}))
    out = tmp_path / "out"
    rc = main([
        "analyze", str(csv_path), "--method", "spwvd",
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == EXIT_VALIDATION
    assert "freq_window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"stft": {"window": {"kind": "hann"}}}, "length_samples"),
        ({"pct": {"ridge_band": [5, 70]}}, "ridge_band"),
        ({"stft": {"window": 5}}, "stft.window"),
        ({"wvd": 5}, "wvd"),
        ({"band_hz": 5}, "band_hz"),
        ({"band_hz": "5:80"}, "band_hz"),
        ({"pct": {"order": "2"}}, "pct.order"),
        ({"pct": {"window": 3}}, "pct.window"),
        ({"stft": {"hop": 8}}, "hop"),
        ({"band": [5, 60]}, "band"),
        ({"stft": {"hop_samples": 4.7}}, "stft.hop_samples"),
        ({"spwvd": {"freq_window": {"kind": "hann", "length_samples": 63, "periodic": "false"}}},
         "periodic"),
        ({"score_component": True}, "score_component"),
        ({"signal_profile": 2}, "signal_profile"),
        ({"config": {"band_hz": [5, 60]}}, "config"),
        # an infinite alpha would make a NaN window and an all-NaN grid
        ({"stft": {"window": {"kind": "gaussian", "length_samples": 33, "alpha": np.inf}}},
         "alpha"),
        ({"pct": {"window": {"kind": "gaussian", "length_samples": 33, "alpha": np.inf}}},
         "alpha"),
    ],
)
def test_config_bad_keys_exit_validation(tmp_path, capsys, doc, key):
    csv_path, _ = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main([
        "analyze", str(csv_path), "--method", "stft",
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("band", ["[60, 10]", "[NaN, 10]", "[5, Infinity]"])
@pytest.mark.parametrize("command", [["analyze", "--method", "stft"],
                                     ["analyze", "--method", "wvd"],
                                     ["analyze", "--method", "pct"], ["compare"]])
def test_config_band_is_checked_before_any_method_runs(tmp_path, capsys, monkeypatch, band,
                                                       command):
    """A band in the config file must be finite with low <= high, as --band
    must be: exit 3 with one message naming band_hz, before any method runs
    and with no output; null stays valid."""
    csv_path, _ = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    argv = [command[0], str(csv_path), *command[1:], "--config", str(cfg), "--out", str(out)]
    cfg.write_text('{"band_hz": %s}' % band)

    def no_method(method):
        raise AssertionError(f"{method} ran")

    with monkeypatch.context() as patched:
        patched.setattr(evaluate, "_producer", no_method)
        assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: config.band_hz ") and err.count("\n") == 1
    assert err.count("band_hz") == 1
    assert not out.exists()
    cfg.write_text('{"band_hz": null}')
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"stft": {"hop_samples": 0}}, "hop_samples must be >= 1"),
        ({"stft": {"fft_length": 64}}, "window must not be longer than fft_length"),
        ({"wvd": {"fft_length": 0}}, "fft_length must be >= 1"),
        ({"spwvd": {"time_window": {"kind": "hann", "length_samples": 30}}},
         "time_window length must be odd"),
        ({"spwvd": {"freq_window": {"kind": "hann", "length_samples": 63, "periodic": True}}},
         "freq_window must be symmetric"),
        ({"spwvd": {"freq_window": {"kind": "gaussian", "length_samples": 63, "alpha": np.inf}}},
         "gaussian alpha must be finite and positive"),
    ],
)
def test_compare_rejects_method_parameters_before_any_method_runs(tmp_path, capsys,
                                                                  monkeypatch, doc, message):
    """Method parameters in a config file that no signal can satisfy exit 3
    with one message and no output, before any method runs, as analyze
    does; they are not error rows of a report."""
    csv_path, truth_path = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"

    def no_method(method):
        raise AssertionError(f"{method} ran")

    monkeypatch.setattr(evaluate, "_producer", no_method)
    assert main(["compare", str(csv_path), "--truth", str(truth_path),
                 "--methods", "stft,pct,wvd,pwvd,spwvd", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("component, with_truth", [(-1, True), (2, True), (5, True), (-1, False)])
def test_compare_rejects_a_score_component_before_any_method_runs(tmp_path, capsys, monkeypatch,
                                                                  component, with_truth):
    """A score_component that names no truth trajectory (x1 has two) exits 3
    with one message and no output, before any method runs; a negative one
    names none with or without truth."""
    csv_path, truth_path = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"score_component": component}))
    out = tmp_path / "out"

    def no_method(method):
        raise AssertionError(f"{method} ran")

    monkeypatch.setattr(evaluate, "_producer", no_method)
    truth = ["--truth", str(truth_path)] if with_truth else []
    assert main(["compare", str(csv_path), *truth, "--methods", "stft,pct,wvd,pwvd,spwvd",
                 "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: score_component {component} out of range\n"
    assert not out.exists()


def test_compare_takes_any_nonnegative_score_component_without_truth(tmp_path):
    """With no truth nothing is scored, so no component is out of range."""
    csv_path, _ = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"score_component": 5}))
    assert main(["compare", str(csv_path), "--methods", "stft", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_OK


def test_compare_keeps_a_window_longer_than_the_signal_as_an_error_row(tmp_path, capsys):
    """A parameter that only fails on a short signal is that method's error
    row; the other methods still run."""
    csv_path, truth_path = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stft": {"window": {"kind": "hann", "length_samples": 400},
                                        "fft_length": 512}}))
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--truth", str(truth_path), "--methods", "stft,wvd",
                 "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "report.json").read_text())["results"]
    assert rows[0] == {"method": "stft", "error": "window (400) longer than signal (320)"}
    assert "error" not in rows[1] and rows[1]["nrmse"] > 0


def test_compare_blames_a_non_string_truth_signal_id_on_the_truth_file(tmp_path, capsys):
    csv_path, truth_path = synth(tmp_path)
    doc = json.loads(truth_path.read_text())
    truth_path.write_text(json.dumps({**doc, "signal_id": 5}))
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--truth", str(truth_path),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {truth_path}: signal_id must be a string, got 5\n"
    assert not out.exists()


def test_config_every_key_reaches_its_field():
    window = {"kind": "gaussian", "length_samples": 33, "alpha": 3, "periodic": False}
    doc = {
        "stft": {"window": window, "hop_samples": 2, "fft_length": 256},
        "wvd": {"fft_length": 1024},
        "spwvd": {"time_window": {"kind": "hamming", "length_samples": 21},
                  "freq_window": {"kind": "hann", "length_samples": 41}},
        "pct": {"order": 3, "max_iterations": 4, "ridge_band_hz": [10, 60],
                "convergence_tol_hz": 0.5, "window": {"kind": "hann", "length_samples": 32},
                "hop_samples": 2, "fft_length": 512, "amp_threshold_frac": 0.1},
        "band_hz": [6, 70.5],
        "amp_threshold_frac": 0.2,
        "score_component": 1,
        "signal_profile": "x2",
        "synth": {"seed": 3},
    }
    cfg = _compare_config(doc)
    assert cfg.stft_window == WindowSpec("gaussian", 33, 3.0)
    assert type(cfg.stft_window.alpha) is float
    assert (cfg.stft_hop, cfg.stft_fft, cfg.wvd_fft) == (2, 256, 1024)
    assert cfg.spwvd_time_window == WindowSpec("hamming", 21)
    assert cfg.spwvd_freq_window == WindowSpec("hann", 41)
    assert cfg.band_hz == (6, 70.5)
    assert (cfg.amp_threshold_frac, cfg.score_component) == (0.2, 1)
    assert cfg.pct == PCTConfig(3, 4, (10, 60), 0.5, WindowSpec("hann", 32), 2, 512, 0.1)


def test_config_defaults_and_flags():
    cfg = _compare_config({}, profile="x2")
    expected = default_config("x2")
    expected.pct = PCTConfig(ridge_band_hz=(5.0, 80.0), amp_threshold_frac=0.05)
    assert cfg == expected
    # flags win over the file; pct inherits the band and threshold
    cfg = _compare_config({"band_hz": [5, 60], "pct": {"order": 1}}, band=(8.0, 50.0), order=3)
    assert cfg.band_hz == (8.0, 50.0)
    assert cfg.pct.order == 3 and cfg.pct.ridge_band_hz == (8.0, 50.0)
    assert _compare_config({"wvd": {"fft_length": None}, "score_component": None}).wvd_fft is None


def test_synth_config_section_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": 5}))
    out = tmp_path / "out"
    assert main(["synth", "x1", "--out", str(out), "--config", str(cfg)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_compare_rejects_non_finite_sample(tmp_path, capsys):
    csv_path, _ = synth(tmp_path)
    lines = csv_path.read_text().splitlines()
    time_s = lines[100].split(",")[0]
    lines[100] = f"{time_s},nan"
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--out", str(out)]) == EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_compare_rejects_non_finite_time_stamp(tmp_path, capsys, cell):
    csv_path, _ = synth(tmp_path)
    lines = csv_path.read_text().splitlines()
    amplitude = lines[100].split(",")[1]
    lines[100] = f"{cell},{amplitude}"
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {csv_path}: line 101: time_s must be finite, got {cell}\n"
    assert not out.exists()


def test_compare_exits_validation_when_every_method_fails(tmp_path, capsys):
    write_signal_csv(tmp_path / "zero.csv", SampledSignal(np.zeros(320), 320.0))
    out = tmp_path / "out"
    assert main(["compare", str(tmp_path / "zero.csv"), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: every method failed")
    assert all(m in err for m in ("stft", "pct", "wvd", "spwvd"))
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_compare_rejects_non_finite_convergence_tol(tmp_path, capsys, literal):
    # Python's json reads these literals as floats; NaN <= 0 is False
    csv_path, truth_path = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pct": {"convergence_tol_hz": %s}}' % literal)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["compare", str(csv_path), "--truth", str(truth_path),
               "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""  # no table
    assert captured.err.startswith("error: ") and "convergence_tol_hz" in captured.err
    assert not out.exists()


def test_compare_has_no_seed_flag(tmp_path):
    csv_path, _ = synth(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(csv_path), "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("row", ["0.1", "0.1,0.5,7.0"])
def test_compare_rejects_ragged_csv_row(tmp_path, capsys, row):
    csv_path, _ = synth(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[50] = row
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 51" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {},
        lambda doc: [1, 2],
        lambda doc: {**doc, "components": [{"freqs_hz": c["freqs_hz"]} for c in doc["components"]]},
        lambda doc: {k: v for k, v in doc.items() if k != "components"},
        lambda doc: {**doc, "components": []},
        lambda doc: {**doc, "components": [
            {**c, "freqs_hz": c["freqs_hz"][:-1] + ["abc"]} for c in doc["components"]
        ]},
        lambda doc: {**doc, "components": [
            {**c, "valid": c["valid"][:-1]} for c in doc["components"]
        ]},
    ],
    ids=["empty-object", "list", "component-without-valid", "no-components", "empty-components",
         "non-numeric-value", "short-valid"],
)
def test_compare_rejects_malformed_truth(tmp_path, capsys, edit):
    csv_path, truth_path = synth(tmp_path)
    truth_path.write_text(json.dumps(edit(json.loads(truth_path.read_text()))))
    out = tmp_path / "out"
    rc = main(["compare", str(csv_path), "--truth", str(truth_path), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(truth_path) in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["truth", "config"])
@pytest.mark.parametrize("contents", [b'{"signal_id": "x1", "n_', b"\xff\xfe{}"],
                         ids=["truncated", "not-utf8"])
def test_json_file_that_does_not_parse_exits_validation_naming_the_file(
    tmp_path, capsys, kind, contents
):
    csv_path, _ = synth(tmp_path)
    bad = tmp_path / f"bad.{kind}.json"
    bad.write_bytes(contents)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), f"--{kind}", str(bad), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("frac", [-0.5, 1.0])
def test_compare_rejects_an_out_of_range_threshold(tmp_path, capsys, frac):
    # PCT's own threshold is valid, so only compare_methods can reject it
    csv_path, truth_path = synth(tmp_path, "x2", "--snr", "10")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amp_threshold_frac": frac, "pct": {"amp_threshold_frac": 0.05}}))
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["compare", str(csv_path), "--truth", str(truth_path),
               "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: amp_threshold_frac must lie in [0, 1)")
    assert not out.exists()


def test_compare_rejects_non_numeric_csv_cell(tmp_path, capsys):
    csv_path, _ = synth(tmp_path)
    lines = csv_path.read_text().splitlines()
    lines[100] = lines[100].split(",")[0] + ",abc"
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: line 101: ") and "'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize("rate, start", [(640.0, 0.0), (320.0, 0.5), (320.0 * (1 + 1e-5), 0.0)])
def test_compare_rejects_truth_on_another_time_grid(tmp_path, capsys, rate, start):
    csv_path, truth_path = synth(tmp_path)
    x = read_signal_csv(csv_path)
    moved = tmp_path / "moved.csv"
    write_signal_csv(moved, SampledSignal(x.samples, rate, start_time_s=start))
    out = tmp_path / "out"
    rc = main(["compare", str(moved), "--truth", str(truth_path), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: truth times_s do not match")
    assert not out.exists()


def test_compare_accepts_truth_at_an_inexact_rate(tmp_path):
    # the rate read back from this CSV's time column differs in the last bits
    csv_path, truth_path = synth(tmp_path, "x1", "--rate", "333.3")
    assert read_signal_csv(csv_path).sample_rate_hz != 333.3
    rc = main(["compare", str(csv_path), "--truth", str(truth_path), "--out", str(tmp_path)])
    assert rc == EXIT_OK


@pytest.mark.parametrize("detail", ["Unable to allocate 2.33 TiB for an array with shape "
                                    "(320000000000,) and data type float64", ""])
def test_synth_out_of_memory_exits_3_and_writes_nothing(tmp_path, capsys, detail):
    """synth x1 --duration 1e9 asks numpy for a 2.33 TiB time axis."""
    out = tmp_path / "out"
    with mock.patch("tfbench.synth._bursts", side_effect=MemoryError(detail)):
        rc = main(["synth", "x1", "--duration", "1e9", "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (f"error: out of memory: {detail}\n" if detail else "error: out of memory\n")
    assert not out.exists()


def test_analyze_out_of_memory_exits_3_and_writes_nothing(tmp_path, capsys):
    """analyze --method wvd of a 120 s x2 record asks for a 75 GiB grid."""
    csv_path, _ = synth(tmp_path / "sig", "x2")
    out = tmp_path / "out"
    detail = "Unable to allocate 75.0 GiB for an array with shape (38400, 262144)"
    with mock.patch("tfbench.cli.run_transform", side_effect=MemoryError(detail)):
        rc = main(["analyze", str(csv_path), "--method", "wvd", "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: out of memory: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["pct", "spwvd"])
def test_analyze_bits_do_not_depend_on_blas_threads(tmp_path, method):
    """analyze's PCT frames and SPWVD lags take the band DFT, whose matrix
    products stay on the calling thread: OpenBLAS with one thread and with
    two writes the same bytes."""
    csv_path, _ = synth(tmp_path / "sig", "x2", "--snr", "10")
    src = str(Path(tfbench.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-m", "tfbench.cli", "analyze", str(csv_path), "--method", method,
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == [f"x2.{method}.csv", f"x2.{method}.meta.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
