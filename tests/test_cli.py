import json

import numpy as np
import pytest

from tfbench import evaluate
from tfbench.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, _compare_config, main
from tfbench.io import read_signal_csv, read_truth_json, write_signal_csv, write_wav
from tfbench.core import SampledSignal, WindowSpec
from tfbench.evaluate import default_config
from tfbench.pct import PCTConfig
from tfbench.tfd import next_pow2, wvd


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


def test_compare_report_same_with_and_without_band_grids(tmp_path, monkeypatch):
    # at 1000/3 Hz the first two bins of a 5-80 Hz band are not fs/(2 nfft)
    # apart to the last bit, so spectral_resolution_hz must come from the meta
    csv_path, truth_path = synth(tmp_path, "x1", "--rate", str(1000.0 / 3.0))
    x = read_signal_csv(csv_path)
    band = wvd(x, next_pow2(4 * len(x)), band_hz=(5.0, 80.0))
    assert band.freqs_hz[1] - band.freqs_hz[0] != x.sample_rate_hz / (2.0 * band.meta["fft_length"])
    argv = ["compare", str(csv_path), "--truth", str(truth_path),
            "--methods", "stft,wvd,pwvd,spwvd,pct"]
    assert main([*argv, "--out", str(tmp_path / "band")]) == EXIT_OK

    full_grids = evaluate.run_transform
    monkeypatch.setattr(evaluate, "run_transform",
                        lambda x, method, cfg, band_hz=None: full_grids(x, method, cfg))
    assert main([*argv, "--out", str(tmp_path / "full")]) == EXIT_OK
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


def test_compare_exits_validation_when_every_method_fails(tmp_path, capsys):
    write_signal_csv(tmp_path / "zero.csv", SampledSignal(np.zeros(320), 320.0))
    out = tmp_path / "out"
    assert main(["compare", str(tmp_path / "zero.csv"), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: every method failed")
    assert all(m in err for m in ("stft", "pct", "wvd", "spwvd"))
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
    ],
    ids=["empty-object", "list", "component-without-valid", "no-components"],
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
