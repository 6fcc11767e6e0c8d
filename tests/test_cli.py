import json

import numpy as np
import pytest

from tfbench.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from tfbench.io import read_signal_csv, read_truth_json, write_signal_csv, write_wav
from tfbench.core import SampledSignal


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
    with pytest.raises(SystemExit):
        main(["compare", str(csv_path), "--band", "60:10", "--out", str(tmp_path)])


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
    assert key in capsys.readouterr().err
    assert not out.exists()
