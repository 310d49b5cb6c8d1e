import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poaphases
from poaphases import corpus, instance_io
from poaphases.cli import SWEEP_SCHEMA, main


@pytest.fixture()
def fisk_path(tmp_path):
    path = tmp_path / "fisk.json"
    assert main(["examples", "fisk", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_examples_round_trip(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(["examples", name, "--out", str(path)]) == 0
    net, coms, demand = instance_io.load_instance(str(path))
    built_net, built_coms, _ = corpus.get_instance(name)
    assert [e.edge_id for e in net.edges] == [e.edge_id for e in built_net.edges]
    assert [c.od_id for c in coms] == [c.od_id for c in built_coms]


def test_solve_values(fisk_path, tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", fisk_path, "--t", "20", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["sc_eq"] == pytest.approx(12444.0, rel=1e-9)
    assert report["lambda"]["ac"] == pytest.approx(107.0, rel=1e-9)
    assert report["loads"]["ab"] == pytest.approx(4.0, abs=1e-8)
    assert report["loads"]["bc"] == pytest.approx(103.0, abs=1e-8)
    assert sorted(report["regime"]) == ["ab#0", "ac#0", "ac#1", "bc#0"]
    assert report["poa"] >= 1.0
    assert report["sc_opt"] < report["sc_eq"]
    assert report["wardrop_gap"] <= 1e-8


def test_solve_stdout(fisk_path, capsys):
    assert main(["solve", fisk_path, "--t", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flows"]["ac#1"] == pytest.approx(0.0, abs=1e-9)


def test_sweep_csv_deterministic(fisk_path, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"sweep{i}.csv"
        assert main([
            "sweep", fisk_path, "--t0", "0", "--t1", "30", "--n", "7",
            "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == SWEEP_SCHEMA
    header = lines[1].split(",")
    assert header[:2] == ["t", "mu_ab"]
    assert "regime_fingerprint" in header
    assert len(lines) == 2 + 7


def test_sweep_json(fisk_path, tmp_path):
    out = tmp_path / "sweep.json"
    assert main([
        "sweep", fisk_path, "--t0", "0", "--t1", "10", "--n", "3",
        "--format", "json", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["od_ids"] == ["ab", "ac", "bc"]
    assert len(payload["rows"]) == 3
    assert all(row["poa"] >= 1.0 for row in payload["rows"])


def test_breakpoints_fig1(tmp_path):
    inst = tmp_path / "fig1.json"
    assert main(["examples", "fig1", "--out", str(inst)]) == 0
    out = tmp_path / "bp.json"
    assert main([
        "breakpoints", str(inst), "--t0", "3.5", "--t1", "4.5",
        "--grid", "11", "--out", str(out),
    ]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    rep = reports[0]
    assert rep["t"] == pytest.approx(4.0, abs=1e-5)
    assert rep["relation"] == "contraction"
    assert rep["verdict"] == "consistent-strict"


def test_fixed_regime_explicit(fisk_path, capsys):
    assert main([
        "fixed-regime", fisk_path, "--t", "20", "--regime", "ab#0,ac#0,ac#1,bc#0",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"]["ac"] == pytest.approx(107.0, rel=1e-9)
    assert report["flows"]["ac#1"] == pytest.approx(3.0, abs=1e-8)
    assert report["residual"] <= 1e-9


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), "--t", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--t", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_uncovered_regime_exit_1(fisk_path, capsys):
    assert main([
        "fixed-regime", fisk_path, "--t", "5", "--regime", "ac#0,bc#0",
    ]) == 1
    assert "regime misses" in capsys.readouterr().err


def test_probe_mismatch_exit_2(tmp_path, capsys):
    # A probe step wide enough to straddle neighboring transitions makes the
    # one-sided regime probes disagree, which is a solver-level failure.
    inst = tmp_path / "fig1.json"
    assert main(["examples", "fig1", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main([
        "breakpoints", str(inst), "--t0", "3.5", "--t1", "4.5",
        "--grid", "11", "--eps-probe", "1.5",
    ]) == 2
    assert "solver error" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_all_zero_costs_poa_is_one(tmp_path, capsys):
    # Every cost is 0, so both totals vanish and the ratio takes its limit 1.
    inst = tmp_path / "pigou.json"
    assert main(["examples", "pigou", "--out", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    for edge in doc["edges"]:
        edge["cost"] = {"type": "affine", "a": 0.0, "b": 0.0}
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["sweep", str(inst), "--t0", "0", "--t1", "2", "--n", "3",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["poa"] for row in rows] == [1.0, 1.0, 1.0]
    assert main(["solve", str(inst), "--t", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["poa"] == 1.0


@pytest.mark.parametrize("extra", [
    ["--t0", "2", "--t1", "2"],
    ["--t0", "3", "--t1", "1"],
    ["--t0", "inf", "--t1", "inf"],
    ["--t0", "0", "--t1", "nan"],
    ["--t0", "0", "--t1", "4", "--grid", "1"],
    ["--t0", "0", "--t1", "4", "--tol-t", "nan"],
    ["--t0", "0", "--t1", "4", "--eps-probe", "0"],
])
def test_breakpoints_bad_arguments_exit_1(fisk_path, capsys, extra):
    assert main(["breakpoints", fisk_path, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: breakpoints: need")
    assert err.count("\n") == 1


@pytest.mark.parametrize("tol_t,code", [("0", 1), ("-1", 1), ("1e-20", 0)])
def test_breakpoints_tiny_tol_t_ends(fisk_path, tol_t, code):
    # These ran forever once: a nonpositive tol_t never closes the bracket,
    # and one below the float spacing stalls the bisection.  A subprocess
    # with a timeout keeps a regression from stalling the suite.
    src = str(Path(poaphases.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "poaphases.cli", "breakpoints", fisk_path,
         "--t0", "0", "--t1", "30", "--tol-t", tol_t],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == code
    if code:
        assert proc.stderr == "error: breakpoints: need a finite tol_t > 0\n"
    else:
        (rep,) = json.loads(proc.stdout)
        assert abs(rep["t"] - 11.0) < 1e-3


def _mutated_pigou(tmp_path, key, value):
    path = tmp_path / "pigou.json"
    assert main(["examples", "pigou", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    if key == "cost":
        doc["edges"][1]["cost"] = value
    else:
        doc["demand"]["rates"] = value
    path.write_text(json.dumps(doc))  # writes NaN and Infinity as JSON tokens
    return str(path)


@pytest.mark.parametrize("key,value", [
    ("cost", {"type": "affine", "a": -1.0, "b": 0.0}),
    ("cost", {"type": "affine", "a": "x", "b": 0.0}),
    ("cost", {"type": "affine", "a": float("nan"), "b": 0.0}),
    ("cost", {"type": "affine", "a": float("inf"), "b": 0.0}),
    ("cost", {"type": "poly", "coeffs": [0.0, float("nan")]}),
    ("cost", {"type": "bpr", "t0": 1.0, "cap": 0.0, "alpha": 0.15, "beta": 4.0}),
    # C^1, but decreasing for x > 31.
    ("cost", {"type": "piecewise", "x0": 1.0, "left": [1.0, 1.0],
              "right": [0.9998, 1.0003, 0.0, -1e-4]}),
    ("rates", [float("nan")]),
    ("rates", [1.0, 1.0]),
], ids=["affine-negative", "affine-string", "affine-nan", "affine-inf", "poly-nan",
        "bpr-zero-cap", "piecewise-decreasing", "rates-nan", "rates-length"])
def test_bad_instance_exit_1(tmp_path, capsys, key, value):
    path = _mutated_pigou(tmp_path, key, value)
    capsys.readouterr()
    assert main(["solve", path, "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--t", "inf"],
    ["solve", "--t", "nan"],
    ["sweep", "--t0", "0", "--t1", "inf", "--n", "3"],
    ["sweep", "--t0", "nan", "--t1", "1", "--n", "3"],
    ["fixed-regime", "--t", "inf"],
])
def test_non_finite_demand_parameter_exit_1(fisk_path, capsys, argv):
    assert main([argv[0], fisk_path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: need a finite --")
    assert err.count("\n") == 1
