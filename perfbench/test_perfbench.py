"""Tests of the benchmark's oracles against closed forms, and of its tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gridgen  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import CORPUS  # noqa: E402


def _inst(name):
    return oracle.load_instance(CORPUS / f"{name}.json")


@pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.7, 3.9])
def test_pigou_closed_form(t):
    inst = _inst("pigou")
    eq, opt = oracle.equilibrium(inst, inst.mu(t)), oracle.optimum(inst, inst.mu(t))
    assert eq.sc == pytest.approx(min(t, 1.0) * t, rel=1e-13, abs=1e-15)
    assert opt.sc == pytest.approx(t * t if t <= 0.5 else t - 0.25, rel=1e-13)
    assert eq.lam[0] == pytest.approx(min(t, 1.0), rel=1e-13)


@pytest.mark.parametrize("t", [5.0, 11.0, 20.0, 60.0])
def test_fisk_closed_form(t):
    inst = _inst("fisk")
    detour = max(0.0, (t - 11.0) / 3.0)
    x = np.array([1.0 + detour, t - detour, 100.0 + detour])
    eq = oracle.equilibrium(inst, inst.mu(t))
    assert eq.sc == pytest.approx(float(x @ (x + [0.0, 90.0, 0.0])), rel=1e-13)


def _one_sided(fn, t, side, h):
    """Three-point one-sided derivative; exact for quadratics."""
    s = -1.0 if side == "left" else 1.0
    return s * (-3.0 * fn(t) + 4.0 * fn(t + s * h) - fn(t + 2 * s * h)) / (2.0 * h)


@pytest.mark.parametrize("name,k", [(n, k) for n, exps in oracle.BREAKPOINTS.items()
                                    for k in range(len(exps))])
def test_breakpoint_closed_forms(name, k):
    """The oracle's one-sided differences reproduce the tabulated derivatives."""
    inst = _inst(name)
    exp = oracle.BREAKPOINTS[name][k]

    def sc(t):
        return oracle.equilibrium(inst, inst.mu(t)).sc

    def poa(t):
        return sc(t) / oracle.optimum(inst, inst.mu(t)).sc

    for i, side in enumerate(("left", "right")):
        want_sc = float(exp["sc_prime"][i])
        assert _one_sided(sc, exp["t"], side, 1e-2) == pytest.approx(want_sc, rel=1e-9)
        want_poa = float(exp["poa_prime"][i])
        got = _one_sided(poa, exp["t"], side, 1e-4)
        assert math.isclose(got, want_poa, rel_tol=1e-6, abs_tol=1e-9)


def _solve_report(inst, t):
    """A solve report written from the oracle's own solutions."""
    eq, opt = oracle.equilibrium(inst, inst.mu(t)), oracle.optimum(inst, inst.mu(t))
    return {
        "t": t,
        "flows": dict(zip(inst.path_ids, eq.f.tolist())),
        "loads": dict(zip(inst.edge_ids, eq.x.tolist())),
        "edge_costs": dict(zip(inst.edge_ids, inst.values(eq.x).tolist())),
        "lambda": dict(zip(inst.od_ids, eq.lam.tolist())),
        "sc_eq": eq.sc, "sc_opt": opt.sc, "poa": eq.sc / opt.sc,
    }


def test_wardrop_check_accepts_oracle_and_rejects_small_shift(tmp_path):
    inst = _inst("pigou")
    rep = _solve_report(inst, 2.0)
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(rep))
    assert oracle.check_solve_json(inst, path) == ([], 2.0)
    # Moving 1e-7 of flow off the equilibrium keeps demand met but breaks
    # the equal-cost condition by 1e-7, well above the check's tolerance.
    rep["flows"]["od#0"] -= 1e-7
    rep["flows"]["od#1"] += 1e-7
    rep["loads"] = {"e1": rep["flows"]["od#0"], "e2": rep["flows"]["od#1"]}
    rep["edge_costs"] = dict(zip(inst.edge_ids, inst.values([*rep["loads"].values()]).tolist()))
    path.write_text(json.dumps(rep))
    fails, _ = oracle.check_solve_json(inst, path)
    assert any("above its cheapest" in f for f in fails)


def test_wheatstone_property_flags_violation(tmp_path):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps([{"t": 0.59, "verdict": "consistent-weak"}]))
    assert oracle.check_breakpoints_json("wheatstone", path) == ([], [0.59])
    path.write_text(json.dumps([{"t": 0.59, "verdict": "violated"}]))
    assert oracle.check_breakpoints_json("wheatstone", path)[0]


def test_grid_paths_go_around_one_square(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(gridgen.make_grid(1)))
    inst = oracle.load_instance(path)
    assert len(inst.edge_ids) == 180 and len(inst.od_ids) == 40
    assert np.all(np.bincount(inst.od_of_path) == 2)
    assert np.all(inst.delta.sum(axis=0) == 2)


def test_grid_curvatures_are_slope_derivatives(tmp_path):
    # The polishing step's Jacobian uses them; check every family on the grid.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(gridgen.make_grid(1)))
    inst = oracle.load_instance(path)
    assert {c.kind for c in inst.costs} == set(gridgen.FAMILIES)
    x, h = np.linspace(0.2, 3.1, len(inst.edge_ids)), 1e-6
    numeric = (inst.slopes(x + h) - inst.slopes(x - h)) / (2 * h)
    assert np.allclose(inst.curvatures(x), numeric, rtol=1e-6, atol=1e-6)
    numeric = (inst.marginals(x + h) - inst.marginals(x - h)) / (2 * h)
    assert np.allclose(inst.marginal_slopes(x), numeric, rtol=1e-6, atol=1e-6)


def test_self_time_counts_overlapping_children_once():
    # [id, name, start, end, parent, attrs]: two worker spans overlap on
    # [2, 3] under one cli.main span; the child has 0.5 s of kernel time.
    spans = [
        [1, "cli.main", 0.0, 10.0, 0, {}],
        [2, "equilibrium.solve", 1.0, 3.0, 1, {"k_s": 0.5}],
        [3, "equilibrium.solve", 2.0, 4.0, 1, {}],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 7.0, 2: 1.5, 3: 2.0}
