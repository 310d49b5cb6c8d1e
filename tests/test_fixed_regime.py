import numpy as np
import pytest

from poaphases import corpus, instance_io
from poaphases.costs import AffineCost
from poaphases.equilibrium import solve_equilibrium
from poaphases.fixed_regime import (
    check_value_gradient,
    is_wardrop_consistent,
    perturbed_value,
    solve_fixed_regime,
    zero_derivative_acyclicity,
)
from poaphases.model import Commodity, Edge, ModelError, Network, Path, build_incidence


@pytest.fixture(scope="module")
def fisk():
    net, coms, _ = corpus.build_fisk()
    return net, coms


def two_parallel():
    net = Network(["O", "D"], [
        Edge("e1", "O", "D", AffineCost(1.0, 0.0)),
        Edge("e2", "O", "D", AffineCost(1.0, 4.0)),
    ])
    coms = [Commodity("od", "O", "D", (
        Path("p1", "od", ("e1",)), Path("p2", "od", ("e2",)),
    ))]
    return net, coms


def test_fisk_regime_solution(fisk):
    net, coms = fisk
    sol = solve_fixed_regime(net, coms, ["p1", "p2", "p4"], [1.0, 20.0, 100.0])
    np.testing.assert_allclose(sol.f, [1, 20, 0, 100], atol=1e-10)
    np.testing.assert_allclose(sol.m, [1, 110, 100], atol=1e-10)
    np.testing.assert_allclose(sol.eta, [1, 110, 100], atol=1e-10)
    # The outside path undercuts the level: 1 + 100 < 110.
    assert sol.nu["p3"] == pytest.approx(-9.0, abs=1e-9)
    cons = is_wardrop_consistent(net, coms, sol)
    assert cons.nonneg_flows and not cons.no_cheaper_outside and not cons.overall


def test_fisk_regime_consistent_at_low_demand(fisk):
    net, coms = fisk
    sol = solve_fixed_regime(net, coms, ["p1", "p2", "p4"], [1.0, 5.0, 100.0])
    cons = is_wardrop_consistent(net, coms, sol)
    assert cons.overall
    eq = solve_equilibrium(net, coms, np.array([1.0, 5.0, 100.0]))
    np.testing.assert_allclose(sol.x, eq.x, atol=1e-8)


def test_signed_flow_relaxation():
    net, coms = two_parallel()
    sol = solve_fixed_regime(net, coms, ["p1", "p2"], [1.0])
    np.testing.assert_allclose(sol.f, [2.5, -1.5], atol=1e-10)
    assert sol.m[0] == pytest.approx(2.5, abs=1e-10)
    assert not is_wardrop_consistent(net, coms, sol).nonneg_flows


def test_single_path_forced(fisk):
    net, coms = fisk
    sol = solve_fixed_regime(net, coms, ["p1", "p3", "p4"], [1.0, 5.0, 100.0])
    np.testing.assert_allclose(sol.f, [1, 0, 5, 100], atol=1e-10)
    # Level of the forced path equals its cost at the induced loads.
    assert sol.m[1] == pytest.approx(6.0 + 105.0, abs=1e-9)


def test_regime_must_cover_ods(fisk):
    net, coms = fisk
    with pytest.raises(ModelError):
        solve_fixed_regime(net, coms, ["p1", "p4"], [1.0, 5.0, 100.0])


def test_perturbed_value_definition(fisk):
    net, coms = fisk
    mu = [1.0, 5.0, 100.0]
    regime = ["p1", "p2", "p4"]
    sol = solve_fixed_regime(net, coms, regime, mu)
    v0 = perturbed_value(net, coms, regime, mu)
    # Equals the potential at the unperturbed solution.
    prim = sum(e.cost.primitive(x) for e, x in zip(net.edges, sol.x))
    assert v0 == pytest.approx(prim, rel=1e-12)


def test_perturbed_value_single_edge():
    net = Network(["O", "D"], [Edge("e", "O", "D", AffineCost(1.0, 0.0))])
    coms = [Commodity("od", "O", "D", (Path("p", "od", ("e",)),))]
    v = perturbed_value(net, coms, ["p"], [1.0], xi=[0.5])
    assert v == pytest.approx(1.125)  # (1.5)^2 / 2


def test_perturbed_value_slope_matches_eta(fisk):
    net, coms = fisk
    mu = [1.0, 5.0, 100.0]
    regime = ["p1", "p2", "p4"]
    sol = solve_fixed_regime(net, coms, regime, mu)
    h = 1e-5
    xi = np.zeros(3)
    xi[0] = h
    fd = (perturbed_value(net, coms, regime, mu, xi=xi)
          - perturbed_value(net, coms, regime, mu, xi=-xi)) / (2 * h)
    assert fd == pytest.approx(sol.eta[0], abs=1e-6)


def test_perturbed_value_rejects_regime_path(fisk):
    net, coms = fisk
    with pytest.raises(ModelError):
        perturbed_value(net, coms, ["p1", "p2", "p4"], [1.0, 5.0, 100.0],
                        omega={"p2": 0.1})


def test_value_gradient_fisk(fisk):
    net, coms = fisk
    rep = check_value_gradient(net, coms, ["p1", "p2", "p4"], [1.0, 5.0, 100.0])
    assert rep["passes"]
    assert rep["max_dev"] <= 1e-5
    # The demand derivative for the middle OD is its path-cost level 95.
    assert rep["solution"].m[1] == pytest.approx(95.0, abs=1e-9)
    # The pinned-flow derivative equals the outside path's reduced cost 6.
    assert rep["solution"].nu["p3"] == pytest.approx(6.0, abs=1e-9)


def test_value_gradient_fig1():
    net, coms, curve = corpus.build_fig1()
    eq = solve_equilibrium(net, coms, curve.mu(2.0))
    rep = check_value_gradient(net, coms, sorted(eq.regime), curve.mu(2.0))
    assert rep["passes"], rep


def test_multiplier_uniqueness(fisk):
    net, coms = fisk
    mu = [1.0, 20.0, 100.0]
    regime = ["p1", "p2", "p3", "p4"]
    base = solve_fixed_regime(net, coms, regime, mu)
    rng = np.random.default_rng(5)
    for _ in range(3):
        sol = solve_fixed_regime(
            net, coms, regime, mu,
            f_start=base.f[[0, 1, 2, 3]] + rng.normal(scale=0.3, size=4),
            lam_start=rng.normal(scale=10.0, size=3),
        )
        np.testing.assert_allclose(sol.m, base.m, atol=1e-9)
        np.testing.assert_allclose(sol.eta, base.eta, atol=1e-9)
        np.testing.assert_allclose(sol.x, base.x, atol=1e-9)


def test_zero_derivative_acyclicity():
    net, _, _ = corpus.build_fisk()
    ok, cycle = zero_derivative_acyclicity(net, np.zeros(3))
    assert ok and cycle == []

    twolink, _, _ = corpus.build_twolink()
    ok, cycle = zero_derivative_acyclicity(twolink, np.array([1.0, 1.0]))
    assert not ok
    assert set(cycle) == {"e1", "e2"}

    wheat, _, _ = corpus.build_wheatstone()
    # Loads where only the kinked edge e4 has zero slope.
    ok, cycle = zero_derivative_acyclicity(wheat, np.array([1.5, 0.5, 1.5, 1.0, 0.2]))
    assert ok

    fig1, _, _ = corpus.build_fig1()
    # Constant edges e2, e3, e4 form a tree, not a cycle.
    ok, _ = zero_derivative_acyclicity(fig1, np.zeros(7))
    assert ok


# A 3x4 directed grid (edges right and down) with random affine costs and two
# OD pairs over overlapping 2x2 blocks: 12 paths but a path-to-(load, demand)
# map of rank 8, so the restricted Jacobian on all paths is singular.
RANK_DEFICIENT_EDGES = [
    ("h0_0", "r0c0", "r0c1", 1.4490795451832557, 1.9243746626346918),
    ("v0_0", "r0c0", "r1c0", 0.4315596037717452, 0.341124150393988),
    ("h0_1", "r0c1", "r0c2", 1.3760219384022572, 2.560371317895482),
    ("v0_1", "r0c1", "r1c1", 0.5632024419927313, 0.654055911257208),
    ("h0_2", "r0c2", "r0c3", 1.489852344662449, 1.4120990120078254),
    ("v0_2", "r0c2", "r1c2", 0.9473994751532806, 1.0474434141528586),
    ("v0_3", "r0c3", "r1c3", 0.31493675565864565, 1.3639984977346744),
    ("h1_0", "r1c0", "r1c1", 0.7426159032794195, 1.1672302598718054),
    ("v1_0", "r1c0", "r2c0", 1.1725360748000622, 2.0507690762166537),
    ("h1_1", "r1c1", "r1c2", 1.3245542789208127, 2.2281133616657156),
    ("v1_1", "r1c1", "r2c1", 0.23279124040174412, 1.9627714491963717),
    ("h1_2", "r1c2", "r1c3", 1.1757125877598373, 2.5540230392585648),
    ("v1_2", "r1c2", "r2c2", 1.8902526426128334, 0.038469355412522166),
    ("v1_3", "r1c3", "r2c3", 1.69099093638171, 0.7599716720481613),
    ("h2_0", "r2c0", "r2c1", 1.324474381402284, 2.2932550805547702),
    ("h2_1", "r2c1", "r2c2", 1.724593203236802, 2.821808750682109),
    ("h2_2", "r2c2", "r2c3", 1.3424698052632928, 2.577625613958242),
]


def test_rank_deficient_regime_converges():
    doc = {
        "vertices": [f"r{i}c{j}" for i in range(3) for j in range(4)],
        "edges": [{"id": eid, "tail": u, "head": v, "cost": {"type": "affine", "a": a, "b": b}}
                  for eid, u, v, a, b in RANK_DEFICIENT_EDGES],
        "commodities": [
            {"id": "od0_0", "origin": "r0c0", "destination": "r2c2", "paths": "auto"},
            {"id": "od0_1", "origin": "r0c1", "destination": "r2c3", "paths": "auto"},
        ],
        "demand": {"type": "linear", "rates": [0.7333608495921111, 0.6600578496163132]},
    }
    net, coms, demand = instance_io.instance_from_dict(doc)
    inc = build_incidence(net, coms)
    assert np.linalg.matrix_rank(np.vstack([inc.delta, inc.s])) < inc.n_paths
    mu = demand.mu(1.0)
    # Null-space Newton steps move the flows but not the loads or the levels;
    # convergence is judged on the latter.
    sol = solve_fixed_regime(net, coms, list(inc.path_ids), mu)
    assert sol.residual <= 1e-12
    np.testing.assert_allclose(inc.s @ sol.f, mu, atol=1e-12)
    np.testing.assert_allclose(inc.delta @ sol.f, sol.x, atol=1e-12)
    np.testing.assert_allclose(inc.delta.T @ sol.eta, inc.s.T @ sol.m, atol=1e-10)
