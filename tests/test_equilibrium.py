import numpy as np
import pytest

from poaphases import corpus, equilibrium
from poaphases.costs import AffineCost
from poaphases.equilibrium import (
    NonConvexCostError,
    SolverError,
    active_regime,
    dual_certificate_affine,
    grad_social_optimum,
    price_of_anarchy,
    social_cost,
    solve_equilibrium,
    solve_social_optimum,
    wardrop_gap,
)
from poaphases.model import Commodity, Edge, FlowLoad, Network, Path, build_incidence


def fisk_mu(t):
    return np.array([1.0, t, 100.0])


def fisk_sc_eq(t):
    return 10001 + 90 * t + t * t if t < 11 else (28892 + 382 * t + 2 * t * t) / 3


def fisk_sc_opt(t):
    return 10001 + 90 * t + t * t if t < 56 else (26867 + 382 * t + 2 * t * t) / 3


@pytest.fixture(scope="module")
def fisk():
    net, coms, _ = corpus.build_fisk()
    return net, coms


def single_link(a=1.0, b=0.0):
    net = Network(["O", "D"], [Edge("e", "O", "D", AffineCost(a, b))])
    coms = [Commodity("od", "O", "D", (Path("p", "od", ("e",)),))]
    return net, coms


def test_fisk_low_demand(fisk):
    net, coms = fisk
    res = solve_equilibrium(net, coms, fisk_mu(5.0))
    np.testing.assert_allclose(res.f, [1, 5, 0, 100], atol=1e-9)
    np.testing.assert_allclose(res.lam, [1, 95, 100], atol=1e-9)
    assert res.sc == pytest.approx(10476.0, rel=1e-12)
    assert res.gap <= 1e-9


def test_fisk_high_demand(fisk):
    net, coms = fisk
    res = solve_equilibrium(net, coms, fisk_mu(20.0))
    assert res.f[1] == pytest.approx(17.0, abs=1e-9)
    assert res.f[2] == pytest.approx(3.0, abs=1e-9)
    assert res.sc == pytest.approx(12444.0, rel=1e-12)


def test_twolink_loads():
    net, coms, _ = corpus.build_twolink()
    res = solve_equilibrium(net, coms, np.array([1.0]))
    np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-10)
    res = solve_equilibrium(net, coms, np.array([3.0]))
    np.testing.assert_allclose(res.x, corpus.twolink_loads(3.0), atol=1e-9)


def test_zero_demand(fisk):
    net, coms = fisk
    res = solve_equilibrium(net, coms, np.zeros(3))
    np.testing.assert_array_equal(res.x, np.zeros(3))
    # Free-flow: the two-edge path costs 0 + 0, beating the 90 direct edge.
    np.testing.assert_allclose(res.lam, [0, 0, 0])
    assert res.sc == 0.0


def test_wardrop_gap(fisk):
    net, coms = fisk
    inc = build_incidence(net, coms)
    res = solve_equilibrium(net, coms, fisk_mu(5.0))
    assert wardrop_gap(net, coms, res.flow_load(), fisk_mu(5.0)) <= 1e-10

    # All the middle OD's demand on the two-edge path: the gap equals the
    # difference of the two path costs at the induced loads, computed here
    # from first principles.
    f = np.array([1.0, 0.0, 5.0, 100.0])
    x = inc.delta @ f
    c = np.array([e.cost.value(v) for e, v in zip(net.edges, x)])
    expected = (c[0] + c[2]) - c[1]
    assert expected == pytest.approx(21.0)
    fl = FlowLoad(f=f, x=x)
    assert wardrop_gap(net, coms, fl, fisk_mu(5.0)) == pytest.approx(expected, abs=1e-12)

    net1, coms1 = single_link()
    res1 = solve_equilibrium(net1, coms1, np.array([2.0]))
    assert wardrop_gap(net1, coms1, res1.flow_load(), np.array([2.0])) == 0.0


def test_wardrop_gap_rejects_infeasible(fisk):
    net, coms = fisk
    inc = build_incidence(net, coms)
    f = np.array([1.0, 1.0, 0.0, 100.0])
    fl = FlowLoad(f=f, x=inc.delta @ f)
    with pytest.raises(SolverError):
        wardrop_gap(net, coms, fl, fisk_mu(5.0))


def test_active_regime(fisk):
    net, coms = fisk
    res5 = solve_equilibrium(net, coms, fisk_mu(5.0))
    assert set(active_regime(res5, 1e-7)) == {"p1", "p2", "p4"}
    res20 = solve_equilibrium(net, coms, fisk_mu(20.0))
    assert set(active_regime(res20, 1e-7)) == {"p1", "p2", "p3", "p4"}


def test_active_regime_wheatstone():
    net, coms, _ = corpus.build_wheatstone()
    for mu in (1.9, 2.0, 2.1):
        res = solve_equilibrium(net, coms, np.array([mu]))
        assert set(res.regime) == {"p1", "p2", "p3"}


def test_social_cost(fisk):
    net, coms = fisk
    res = solve_equilibrium(net, coms, fisk_mu(5.0))
    assert social_cost(net, res.flow_load(), coms) == pytest.approx(10476.0, rel=1e-12)
    assert social_cost(net, FlowLoad(f=np.zeros(4), x=np.zeros(3))) == 0.0
    net1, coms1 = single_link()
    res1 = solve_equilibrium(net1, coms1, np.array([2.0]))
    assert social_cost(net1, res1.flow_load(), coms1) == pytest.approx(4.0)


def test_social_optimum_fisk(fisk):
    net, coms = fisk
    opt30 = solve_social_optimum(net, coms, fisk_mu(30.0))
    assert opt30.sc == pytest.approx(13601.0, rel=1e-10)
    opt60 = solve_social_optimum(net, coms, fisk_mu(60.0))
    assert opt60.sc == pytest.approx(56987.0 / 3.0, rel=1e-10)


def test_social_optimum_pigou():
    net, coms, _ = corpus.build_pigou()
    opt = solve_social_optimum(net, coms, np.array([1.0]))
    assert opt.x[1] == pytest.approx(0.5, abs=1e-9)
    assert opt.sc == pytest.approx(0.75, rel=1e-10)
    assert price_of_anarchy(net, coms, np.array([1.0])) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_social_optimum_refuses_nonconvex():
    net, coms, _ = corpus.build_twolink()
    with pytest.raises(NonConvexCostError):
        solve_social_optimum(net, coms, np.array([1.0]))


def test_price_of_anarchy_fisk(fisk):
    net, coms = fisk
    assert price_of_anarchy(net, coms, fisk_mu(5.0)) == pytest.approx(1.0, abs=1e-9)
    assert price_of_anarchy(net, coms, fisk_mu(30.0)) == pytest.approx(
        42152.0 / 40803.0, rel=1e-10
    )
    assert price_of_anarchy(net, coms, np.zeros(3)) == 1.0


def test_dual_certificate(fisk):
    net, coms = fisk
    res = solve_equilibrium(net, coms, fisk_mu(5.0))
    assert abs(dual_certificate_affine(net, coms, fisk_mu(5.0), res)) <= 1e-8
    # Perturbing a load strictly increases the certificate.
    from dataclasses import replace

    bad_x = res.x.copy()
    bad_x[0] += 0.1
    table_tau = np.array([e.cost.value(v) for e, v in zip(net.edges, bad_x)])
    bad = replace(res, x=bad_x, tau=table_tau)
    assert dual_certificate_affine(net, coms, fisk_mu(5.0), bad) > 1e-4

    net1, coms1 = single_link()
    res1 = solve_equilibrium(net1, coms1, np.array([1.0]))
    assert abs(dual_certificate_affine(net1, coms1, np.array([1.0]), res1)) <= 1e-10


def test_dual_certificate_rejects_flat_edges():
    net, coms, _ = corpus.build_fig1()
    res = solve_equilibrium(net, coms, np.array([2.0]))
    with pytest.raises(SolverError):
        dual_certificate_affine(net, coms, np.array([2.0]), res)


def test_grad_social_optimum(fisk):
    net1, coms1 = single_link()
    g = grad_social_optimum(net1, coms1, np.array([2.0]))
    assert g[0] == pytest.approx(4.0, abs=1e-9)  # d/dmu of mu^2

    net, coms = fisk
    g = grad_social_optimum(net, coms, fisk_mu(30.0))
    assert g[1] == pytest.approx(150.0, abs=1e-7)
    h = 1e-5
    fd = (
        solve_social_optimum(net, coms, fisk_mu(30.0 + h)).sc
        - solve_social_optimum(net, coms, fisk_mu(30.0 - h)).sc
    ) / (2 * h)
    assert g[1] == pytest.approx(fd, rel=1e-5)

    g0 = grad_social_optimum(net, coms, np.zeros(3))
    np.testing.assert_allclose(g0, [0.0, 0.0, 0.0], atol=1e-12)


def test_determinism_of_costs(fisk):
    # Two independent solves agree to tight tolerance on tau and lambda.
    net, coms = fisk
    a = solve_equilibrium(net, coms, fisk_mu(17.3))
    b = solve_equilibrium(net, coms, fisk_mu(17.3))
    np.testing.assert_allclose(a.tau, b.tau, atol=1e-12)
    np.testing.assert_allclose(a.lam, b.lam, atol=1e-12)


def test_equilibrium_cost_continuity(fisk):
    # Empirical modulus: lambda moves by O(delta) along the demand curve.
    net, coms = fisk
    prev = None
    worst = 0.0
    for t in np.linspace(10.0, 12.0, 41):
        lam = solve_equilibrium(net, coms, fisk_mu(t)).lam
        if prev is not None:
            worst = max(worst, float(np.max(np.abs(lam - prev))))
        prev = lam
    assert worst <= 0.2  # 2 * step * max slope with slack


def test_single_od_cost_monotone():
    net, coms, curve = corpus.build_fig1()
    lams = [
        solve_equilibrium(net, coms, curve.mu(t)).lam[0]
        for t in np.linspace(0.0, 16.0, 33)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))


def test_sc_opt_midpoint_convex(fisk):
    net, coms = fisk
    for t in (20.0, 56.0, 70.0):
        mid = solve_social_optimum(net, coms, fisk_mu(t)).sc
        lo = solve_social_optimum(net, coms, fisk_mu(t - 2.0)).sc
        hi = solve_social_optimum(net, coms, fisk_mu(t + 2.0)).sc
        assert mid <= 0.5 * (lo + hi) + 1e-8


def test_poa_at_least_one():
    for name in ("fisk", "fig1", "pigou"):
        net, coms, curve = corpus.get_instance(name)
        for t in np.linspace(0.1, 12.0, 7):
            assert price_of_anarchy(net, coms, curve.mu(t)) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Warm starts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_from,t_to", [
    (20.0, 20.5), (5.0, 20.0), (20.0, 5.0), (0.0, 30.0), (60.0, 40.0), (None, 12.0),
])
def test_warm_equilibrium_matches_cold(fisk, t_from, t_to):
    net, coms = fisk
    mu_from = np.zeros(3) if t_from is None else fisk_mu(t_from)
    start = solve_equilibrium(net, coms, mu_from)
    cold = solve_equilibrium(net, coms, fisk_mu(t_to))
    warm = solve_equilibrium(net, coms, fisk_mu(t_to), start=start)
    assert warm.regime == cold.regime
    np.testing.assert_allclose(warm.x, cold.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(warm.f, cold.f, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(warm.lam, cold.lam, rtol=1e-12)
    assert warm.sc == pytest.approx(cold.sc, rel=1e-12)
    assert warm.prep is start.prep


def test_warm_start_from_same_support_needs_one_pass():
    # Cold, the fig1 equilibrium at t = 20 adds its five paths one at a time.
    net, coms, curve = corpus.build_fig1()
    start = solve_equilibrium(net, coms, curve.mu(20.0))
    cold = solve_equilibrium(net, coms, curve.mu(20.5))
    warm = solve_equilibrium(net, coms, curve.mu(20.5), start=start)
    assert warm.regime == cold.regime
    assert warm.active_set_iters == 1 < cold.active_set_iters


def test_warm_solves_build_nothing(fisk, monkeypatch):
    net, coms = fisk
    eq = solve_equilibrium(net, coms, fisk_mu(20.0))

    def refuse(*args, **kwargs):
        raise AssertionError("a warm solve rebuilt its instance data")

    for name in ("build_incidence", "build_cost_table", "marginal"):
        monkeypatch.setattr(equilibrium, name, refuse)
    solve_equilibrium(net, coms, fisk_mu(25.0), start=eq)


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_poa_at_tiny_demand(b):
    # Found by test_properties' random search: three identical links.  The
    # equilibrium stops with cheaper unused paths (tol_gap is absolute at
    # small costs), so its sc = mu @ lam undercounts; the PoA uses edge sums.
    net = Network(["O", "D"], [Edge(f"e{i}", "O", "D", AffineCost(1.0, b)) for i in range(3)])
    coms = [Commodity("od", "O", "D", tuple(Path(f"p{i}", "od", (f"e{i}",)) for i in range(3)))]
    assert price_of_anarchy(net, coms, (3.067121613679878e-10,)) >= 1.0 - 1e-12
