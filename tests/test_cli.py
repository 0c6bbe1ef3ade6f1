import json
import os
from pathlib import Path

import numpy as np
import pytest

from sphuni import RngSeed, Uniform, load_points_csv, run_test, sample, statistics
from sphuni.cli import _build_parser, main


def _write_sample_csv(path, n=30, p=20, seed=1):
    s = sample(Uniform(p), n, RngSeed(seed))
    np.savetxt(path, s.data, delimiter=",", fmt="%.17g")
    return path


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["size", "--n", "10", "--p", "10", "--frobnicate"])
    assert exc.value.code == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["launch"])
    assert exc.value.code == 64


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "sphuni" in capsys.readouterr().out


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--data", "--method", "--alpha", "--tail", "--calibration",
                 "--normalize", "--exit-on-reject", "--seed", "--out"):
        assert flag in out


@pytest.mark.parametrize("argv", [
    ["test", "--data", "x.csv", "--threads", "2"],
    ["distance", "--model", "fvml", "--n", "10", "--p", "10", "--threads", "2"],
    ["predict", "--shift", "fvml", "--tau", "1", "--threads", "2"],
    ["calibrate", "--n", "10", "--p", "10", "--method", "rayleigh", "--threads", "2"],
    ["nulldist", "--n", "10", "--p", "10", "--out", "x.csv"],
    ["distance", "--model", "fvml", "--n", "10", "--p", "10", "--out", "x.csv"],
    ["predict", "--shift", "fvml", "--tau", "1", "--out", "x.csv"],
    ["calibrate", "--n", "10", "--p", "10", "--method", "rayleigh", "--out", "x.csv"],
    ["predict", "--shift", "fvml", "--tau", "1", "--reps", "100"],
    ["predict", "--shift", "fvml", "--tau", "1", "--grid", "2048"],
    ["predict", "--shift", "fvml", "--tau", "1", "--seed", "0"],
])
def test_flags_a_command_would_ignore_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_cmd_test_null_sample(tmp_path, capsys):
    data = _write_sample_csv(tmp_path / "null.csv", n=80, p=80)
    rc = main(["test", "--data", str(data), "--alpha", "0.05", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    line = captured.out.strip()
    assert line.startswith("command=test ")
    assert "n=80" in line and "p=80" in line
    # stderr carries the header plus one row per default method (four rows)
    rows = captured.err.strip().split("\n")
    assert len(rows) == 5
    for row in rows[1:]:
        p_value = float(row.split(",")[3])
        assert 0.0 < p_value < 1.0


def test_cmd_test_projection_opt_in(tmp_path, capsys):
    data = _write_sample_csv(tmp_path / "null2.csv", n=30, p=15)
    rc = main(["test", "--data", str(data), "--method", "projection", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.strip().split("\n")[1].startswith("projection,")


def test_cmd_test_monte_carlo_matches_run_test_per_method(tmp_path, capsys):
    # one null pass for all methods gives each method's own run_test outcome
    data = _write_sample_csv(tmp_path / "mc.csv", n=25, p=12, seed=4)
    methods = ["projection", "sup_distance", "rayleigh", "projection", "packing"]
    out = tmp_path / "mc_rows.csv"
    argv = ["test", "--data", str(data), "--tail", "two-sided", "--calibration",
            "monte-carlo", "--mc-reps", "150", "--seed", "9", "--out", str(out)]
    for m in methods:
        argv += ["--method", m]
    assert main(argv) == 0
    captured = capsys.readouterr()

    s = load_points_csv(data)
    rng = RngSeed(9).generator()
    statistics._null_memo.clear()
    want = [run_test(s, m, tail="upper" if m in ("projection", "sup_distance") else "two-sided",
                     calibration="monte-carlo", mc_reps=150, mc_seed=9, rng=rng)
            for m in methods]
    rows = [statistics.TestOutcome.csv_header()] + [o.csv_row() for o in want]
    assert captured.err == "".join(r + "\n" for r in rows)
    assert out.read_text() == captured.err
    assert captured.out == (
        f"command=test n=25 p=12 alpha=0.05 rejected={int(any(o.reject for o in want))} "
        f"p_min={min(o.p_value for o in want):.10g}\n"
    )


def test_cmd_test_identical_rows_rejects(tmp_path, capsys):
    row = "1" + ",0" * 9
    data = tmp_path / "same.csv"
    data.write_text("\n".join([row] * 6) + "\n")
    rc = main(["test", "--data", str(data), "--method", "sup_distance",
               "--exit-on-reject", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "rejected=1" in captured.out
    assert "sup_distance,1," in captured.err


def test_cmd_test_not_unit_reports_row(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("1,0\n0.5,0.5\n")
    rc = main(["test", "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "row 1" in captured.err


def test_cmd_test_normalize_fixes_rows(tmp_path, capsys):
    data = tmp_path / "scaled.csv"
    rng = np.random.default_rng(5)
    np.savetxt(data, 3.0 * rng.standard_normal((25, 10)), delimiter=",", fmt="%.17g")
    rc = main(["test", "--data", str(data), "--normalize", "--method", "rayleigh",
               "--seed", "3"])
    assert rc == 0


def test_cmd_predict_null_reduction(monkeypatch, capsys):
    monkeypatch.setenv("SPHUNI_SEED", "9")  # predict draws nothing, so has no seed
    rc = main(["predict", "--shift", "quadratic", "--tau", "0", "--alpha", "0.05"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "command=predict shift=quadratic tau=0 alpha=0.05 power=0.05\n"


@pytest.mark.parametrize("tau", ["-1", "nan"])
def test_cmd_predict_bad_tau_exits_1(tau, capsys):
    rc = main(["predict", "--shift", "fvml", "--tau", tau])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "tau must be finite and >= 0" in captured.err


def test_cmd_distance_nan_tau_names_the_field(capsys):
    rc = main(["distance", "--model", "lowrank", "--n", "10", "--p", "10", "--tau", "nan"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "field signal_grid: tau must be finite and >= 0, got nan" in captured.err


@pytest.mark.parametrize("model", ["fvml", "watson", "lowrank"])
def test_cmd_distance_n_below_two_exits_1(model, capsys):
    # fvml and lowrank died with a ZeroDivisionError traceback in signal_model
    rc = main(["distance", "--model", model, "--n", "0", "--p", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "sphuni distance: field n/p: need n >= 2 and p >= 2, got (0, 10)\n"


def test_cmd_distance_lowrank(capsys):
    rc = main(["distance", "--model", "lowrank", "--n", "1000", "--p", "10000",
               "--tau", "2.0", "--mode", "quadrature"])
    captured = capsys.readouterr()
    assert rc == 0
    nd = float(dict(kv.split("=") for kv in captured.out.split())["nd"])
    assert abs(nd - 0.24197) / 0.24197 <= 0.10


def test_cmd_size_smoke(capsys):
    rc = main(["size", "--n", "20", "--p", "20", "--reps", "150",
               "--method", "rayleigh", "--seed", "9", "--threads", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "rate_rayleigh=" in captured.out


def test_cmd_nulldist_smoke(capsys):
    rc = main(["nulldist", "--n", "20", "--p", "20", "--reps", "100", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ks_distance=" in out


def test_cmd_calibrate_deterministic(capsys):
    argv = ["calibrate", "--n", "15", "--p", "8", "--method", "bingham",
            "--alpha", "0.05", "--reps", "1000", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "critical_value=" in first


def test_cmd_calibrate_negative_seed_names_the_flag(capsys):
    # the message named the library's mc_seed, not the --seed flag
    rc = main(["calibrate", "--n", "10", "--p", "10", "--method", "rayleigh",
               "--reps", "1000", "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "sphuni calibrate: field seed: must be >= 0, got -1\n"
    assert captured.out == ""


def test_cmd_power_writes_csv_and_svg(tmp_path, capsys):
    cfg = {
        "n": 25, "p": 25, "alpha": 0.05, "reps": 100,
        "model_family": "fvml", "signal_grid": [1.0, 2.0],
        "methods": ["sup_distance", "rayleigh"], "seed": 21,
        "tails": None, "calibration": "asymptotic",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "power.csv"
    out_svg = tmp_path / "power.svg"
    rc = main(["power", "--config", str(cfg_path), "--out", str(out_csv),
               "--svg", str(out_svg), "--threads", "1"])
    assert rc == 0
    assert out_csv.read_text().startswith("family,tau,method,rate")
    svg = out_svg.read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert capsys.readouterr().out.startswith("command=power ")


def test_cmd_power_same_seed_identical_files(tmp_path, capsys):
    cfg = {
        "n": 25, "p": 25, "alpha": 0.05, "reps": 100,
        "model_family": "lowrank", "signal_grid": [4.0],
        "methods": ["sup_distance"], "seed": 7,
        "tails": None, "calibration": "asymptotic",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["power", "--config", str(cfg_path), "--out", str(a), "--seed", "7"]) == 0
    assert main(["power", "--config", str(cfg_path), "--out", str(b), "--seed", "7"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cmd_seed_defaults_to_sphuni_seed_except_power(tmp_path, monkeypatch, capsys):
    argv = ["nulldist", "--n", "20", "--p", "20", "--reps", "100"]
    assert main(argv + ["--seed", "9"]) == 0
    flagged = capsys.readouterr().out
    monkeypatch.setenv("SPHUNI_SEED", "9")
    assert main(argv) == 0
    assert capsys.readouterr().out == flagged
    # power's seed is its config's, which the config hash covers
    cfg = {
        "n": 10, "p": 10, "alpha": 0.05, "reps": 100,
        "model_family": "lowrank", "signal_grid": [4.0],
        "methods": ["rayleigh"], "seed": 21,
        "tails": None, "calibration": "asymptotic",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["power", "--config", str(cfg_path), "--threads", "1"]) == 0
    assert " seed=21 " in capsys.readouterr().out


def test_cmd_power_config_hash_ignores_out(tmp_path, capsys):
    # --out changed the hash when the CSV path was a config field
    cfg = {
        "n": 10, "p": 10, "alpha": 0.05, "reps": 100,
        "model_family": "lowrank", "signal_grid": [4.0],
        "methods": ["rayleigh"], "seed": 21,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["power", "--config", str(cfg_path), "--threads", "1"]
    lines = []
    for extra in ([], ["--out", str(tmp_path / "a.csv")]):
        assert main(argv + extra) == 0
        lines.append(capsys.readouterr().out)
    hashes = [line.split(" config_hash=")[1].split()[0] for line in lines]
    assert hashes[0] == hashes[1]
    assert (tmp_path / "a.csv").read_text().startswith("family,tau,method,rate")


@pytest.mark.parametrize("argv", [
    ["test", "--data"],
    ["size", "--n", "10", "--p", "10", "--reps", "100"],
    ["power", "--config", str(Path(__file__).resolve().parents[1] / "configs/fvml_fig1.json")],
    ["nonlocal", "--kind", "alphaspherical", "--n", "10", "--p", "20", "--reps", "10"],
], ids=["test", "size", "power", "nonlocal"])
def test_cmd_negative_seed_exits_1(argv, tmp_path, capsys):
    # each ended in numpy's SeedSequence ValueError, a traceback
    if argv[0] == "test":
        argv = argv + [str(_write_sample_csv(tmp_path / "x.csv"))]
    rc = main(argv + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"sphuni {argv[0]}: ")
    assert "must be >= 0" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_cmd_sphuni_seed_not_an_integer_exits_1(monkeypatch, capsys):
    # int() of the variable raised ValueError outside the error handler
    monkeypatch.setenv("SPHUNI_SEED", "abc")
    rc = main(["test", "--data", "x.csv"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "sphuni test: SPHUNI_SEED must be an integer, got 'abc'\n"
    assert captured.out == ""


@pytest.mark.parametrize("field, value", [
    ("signal_grid", ["x", 1.0]),
    ("signal_grid", [None]),
    ("signal_grid", ["1.5"]),
    ("signal_grid", [True, 2.0]),
    ("seed", True),
    ("reps", False),
], ids=["grid-string", "grid-null", "grid-numeric-string", "grid-bool", "seed-bool", "reps-bool"])
def test_cmd_power_config_value_not_a_number_exits_1(tmp_path, capsys, field, value):
    # a string or null in the grid died with a traceback, and "1.5", true
    # and "seed": true ran as 1.5, 1 and seed=True
    cfg = {
        "n": 10, "p": 10, "alpha": 0.05, "reps": 100,
        "model_family": "lowrank", "signal_grid": [4.0],
        "methods": ["rayleigh"], "seed": 21,
    }
    cfg[field] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["power", "--config", str(cfg_path), "--threads", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"field {field}: " in captured.err
    assert captured.out == ""


def test_cmd_power_too_concentrated_tilt_exits_1(tmp_path, capsys):
    # kappa ~ 5.9e10 leaves the FvML marginal too narrow a window for its
    # inverse-CDF table; this printed scipy's PCHIP traceback
    cfg = {
        "n": 10, "p": 50, "alpha": 0.05, "reps": 100,
        "model_family": "fvml", "signal_grid": [1e10],
        "methods": ["sup_distance"], "seed": 21,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["power", "--config", str(cfg_path), "--threads", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("sphuni power: ")
    assert "p=50, kappa=" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask here")
@pytest.mark.parametrize("command", [
    ["size", "--n", "10", "--p", "10"],
    ["power", "--config", "cfg.json"],
    ["nulldist", "--n", "10", "--p", "10"],
    ["nonlocal", "--kind", "capmixture", "--n", "10", "--p", "10"],
])
def test_threads_default_is_the_affinity_mask(command):
    # the CPUs this process may run on, which null_inner_cdf splits its
    # work over, and not cpu_count(), which counts CPUs outside the mask
    args = _build_parser().parse_args(command)
    assert args.threads == len(os.sched_getaffinity(0))


def test_cmd_nonlocal_smoke(capsys):
    rc = main(["nonlocal", "--kind", "alphaspherical", "--n", "15", "--p", "300",
               "--reps", "100", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    for key in ("rate_sup_distance=", "rate_rayleigh=", "rate_bingham=",
                "rate_packing=", "mean_abs_rayleigh=", "share_bingham_negative="):
        assert key in out


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ["size", "--n", "10", "--p", "10", "--reps", "100"],
    ["nulldist", "--n", "10", "--p", "10", "--reps", "100"],
    ["nonlocal", "--kind", "alphaspherical", "--n", "10", "--p", "20", "--reps", "10"],
    ["power", "--config", str(Path(__file__).resolve().parents[1] / "configs/fvml_fig1.json")],
], ids=["size", "nulldist", "nonlocal", "power"])
def test_cmd_threads_below_one_exits_1(argv, threads, capsys):
    rc = main(argv + ["--threads", threads])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"field threads: need >= 1, got {threads}" in captured.err
    assert captured.out == ""


def test_cmd_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["test", "--data", str(tmp_path / "gone.csv")])
    assert rc == 1
    assert "gone.csv" in capsys.readouterr().err
