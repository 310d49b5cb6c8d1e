import sys

import numpy as np
import pytest

from poaphases import corpus, equilibrium, model, sensitivity
from poaphases.costs import AffineCost
from poaphases.equilibrium import DEFAULT_OPTIONS, solve_equilibrium
from poaphases.model import Commodity, Edge, LinearDemand, Network, Path, build_incidence
from poaphases.sensitivity import (
    SensitivityError,
    affine_parametric_equilibrium,
    classify_breakpoint,
    flow_selection_pseudoinverse,
    locate_breakpoints,
    one_sided_derivatives,
    theta_qp,
)


@pytest.fixture(scope="module")
def fisk():
    return corpus.build_fisk()


def two_parallel():
    net = Network(["O", "D"], [
        Edge("e1", "O", "D", AffineCost(1.0, 0.0)),
        Edge("e2", "O", "D", AffineCost(1.0, 0.0)),
    ])
    coms = [Commodity("od", "O", "D", (
        Path("p1", "od", ("e1",)), Path("p2", "od", ("e2",)),
    ))]
    return net, coms


# ---------------------------------------------------------------------------
# Least-norm flow selection
# ---------------------------------------------------------------------------


def test_pinv_zero_correction(fisk):
    net, coms, _ = fisk
    inc = build_incidence(net, coms)
    f0 = np.array([1.0, 5.0, 0.0, 100.0])
    x0 = inc.delta @ f0
    mu0 = inc.s @ f0
    f = flow_selection_pseudoinverse(inc, f0, x0, mu0, x0, mu0)
    np.testing.assert_allclose(f, f0, atol=1e-12)


def test_pinv_symmetric_split():
    net, coms = two_parallel()
    inc = build_incidence(net, coms)
    f = flow_selection_pseudoinverse(
        inc, np.zeros(2), np.zeros(2), np.zeros(1), np.array([0.5, 0.5]), np.array([1.0])
    )
    np.testing.assert_allclose(f, [0.5, 0.5], atol=1e-12)


def test_pinv_fisk_recovery(fisk):
    net, coms, _ = fisk
    inc = build_incidence(net, coms)
    f0 = np.array([1.0, 5.0, 0.0, 100.0])
    x20 = np.array([4.0, 17.0, 103.0])  # loads of f = (1, 17, 3, 100)
    f = flow_selection_pseudoinverse(
        inc, f0, inc.delta @ f0, inc.s @ f0, x20, np.array([1.0, 20.0, 100.0])
    )
    np.testing.assert_allclose(f, [1, 17, 3, 100], atol=1e-10)


def test_pinv_affine_in_targets(fisk):
    net, coms, _ = fisk
    inc = build_incidence(net, coms)
    rng = np.random.default_rng(2)
    f0 = rng.uniform(0, 2, 4)
    x0, mu0 = inc.delta @ f0, inc.s @ f0

    def sel(x, mu):
        return flow_selection_pseudoinverse(inc, f0, x0, mu0, x, mu)

    for _ in range(5):
        fa = rng.uniform(0, 3, 4)
        fb = rng.uniform(0, 3, 4)
        a = rng.uniform(-1, 2)
        xa, mua = inc.delta @ fa, inc.s @ fa
        xb, mub = inc.delta @ fb, inc.s @ fb
        mix = sel(a * xa + (1 - a) * xb, a * mua + (1 - a) * mub)
        np.testing.assert_allclose(
            mix, a * sel(xa, mua) + (1 - a) * sel(xb, mub), atol=1e-9
        )


def test_pinv_unattainable_target(fisk):
    net, coms, _ = fisk
    inc = build_incidence(net, coms)
    with pytest.raises(SensitivityError):
        flow_selection_pseudoinverse(
            inc, np.zeros(4), np.zeros(3), np.zeros(3),
            np.array([1.0, 0.0, 0.0]), np.zeros(3),
        )


# ---------------------------------------------------------------------------
# Direction QP
# ---------------------------------------------------------------------------


def test_theta_qp_symmetric():
    net, coms = two_parallel()
    qp = theta_qp(net, coms, np.array([1.0, 1.0]), ["p1", "p2"], [1.0])
    np.testing.assert_allclose(qp.y, [0.5, 0.5], atol=1e-12)
    assert qp.theta == pytest.approx(0.5)
    assert qp.m[0] == pytest.approx(0.5)


def test_theta_qp_forced():
    net, coms = two_parallel()
    qp = theta_qp(net, coms, np.array([1.0, 1.0]), ["p1"], [1.0])
    np.testing.assert_allclose(qp.y, [1.0, 0.0], atol=1e-12)
    assert qp.theta == pytest.approx(1.0)
    assert qp.m[0] == pytest.approx(1.0)


def test_theta_qp_fisk_sides(fisk):
    net, coms, _ = fisk
    x_bar = np.array([1.0, 11.0, 101.0])
    rates = np.array([0.0, 1.0, 0.0])
    left = theta_qp(net, coms, x_bar, ["p1", "p2", "p4"], rates)
    assert left.theta == pytest.approx(1.0, abs=1e-12)
    assert left.m[1] == pytest.approx(1.0, abs=1e-12)
    right = theta_qp(net, coms, x_bar, ["p1", "p2", "p3", "p4"], rates)
    assert right.theta == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert right.m[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # Value is theta / 2, constraints hold to machine precision.
    assert right.qp_value == pytest.approx(right.theta / 2)
    inc = build_incidence(net, coms)
    np.testing.assert_allclose(inc.s @ right.y, rates, atol=1e-12)


def test_theta_equals_rates_dot_m(fisk):
    # Independent identity between the quadratic value and its multipliers.
    net, coms, _ = fisk
    x_bar = np.array([1.0, 11.0, 101.0])
    rates = np.array([0.4, 1.0, 0.2])
    for regime in (["p1", "p2", "p4"], ["p1", "p2", "p3", "p4"]):
        qp = theta_qp(net, coms, x_bar, regime, rates)
        assert qp.theta == pytest.approx(float(rates @ qp.m), rel=1e-10)


def test_qp_monotone_under_regime_inclusion(fisk):
    net, coms, _ = fisk
    x_bar = np.array([1.0, 11.0, 101.0])
    rates = np.array([0.0, 1.0, 0.0])
    small = theta_qp(net, coms, x_bar, ["p1", "p2", "p4"], rates)
    large = theta_qp(net, coms, x_bar, ["p1", "p2", "p3", "p4"], rates)
    assert large.qp_value <= small.qp_value + 1e-12


# ---------------------------------------------------------------------------
# One-sided derivatives and transitions
# ---------------------------------------------------------------------------


def test_fisk_one_sided(fisk):
    net, coms, curve = fisk
    left = one_sided_derivatives(net, coms, curve, 11.0, "left")
    right = one_sided_derivatives(net, coms, curve, 11.0, "right")
    assert left.sc_prime == pytest.approx(112.0, abs=1e-4)
    assert right.sc_prime == pytest.approx(142.0, abs=1e-4)
    assert left.poa_prime == pytest.approx(0.0, abs=1e-6)
    assert right.poa_prime == pytest.approx(5.0 / 1852.0, abs=1e-6)


def test_multiplier_matches_lambda_slope(fisk):
    # Away from transitions, the QP multiplier is the slope of the
    # equilibrium cost along the curve.
    net, coms, curve = fisk
    t = 20.0
    side = one_sided_derivatives(net, coms, curve, t, "right")
    h = 1e-4
    lam_hi = solve_equilibrium(net, coms, curve.mu(t + h)).lam
    lam_lo = solve_equilibrium(net, coms, curve.mu(t - h)).lam
    fd = (lam_hi - lam_lo) / (2 * h)
    np.testing.assert_allclose(side.lam_prime, fd, atol=1e-4)


def test_locate_breakpoints_fisk(fisk):
    net, coms, curve = fisk
    pts = locate_breakpoints(net, coms, curve, (0.0, 30.0), 31, 1e-7)
    assert len(pts) == 1
    # The regime-change detection threshold is relative to the path costs,
    # which are around 101 here, so the located point carries a bias of
    # roughly eps_active * 101 in t.
    assert pts[0] == pytest.approx(11.0, abs=5e-5)


def test_locate_breakpoints_fig1():
    net, coms, curve = corpus.build_fig1()
    pts = locate_breakpoints(net, coms, curve, (0.0, 16.0), 161, 1e-7)
    np.testing.assert_allclose(pts, [1.0, 3.0, 4.0, 6.0, 13.5], atol=1e-5)


def test_locate_breakpoints_single_path():
    net = Network(["O", "D"], [Edge("e", "O", "D", AffineCost(1.0, 0.0))])
    coms = [Commodity("od", "O", "D", (Path("p", "od", ("e",)),))]
    assert locate_breakpoints(net, coms, LinearDemand((1.0,)), (0.0, 5.0), 11, 1e-7) == []


def test_classify_fig1_contraction():
    net, coms, curve = corpus.build_fig1()
    rep = classify_breakpoint(net, coms, curve, 4.0)
    assert rep.relation == "contraction"
    assert rep.verdict == "consistent-strict"
    assert rep.sc_prime_right > rep.sc_prime_left
    assert rep.poa_prime_right > rep.poa_prime_left
    doc = rep.to_json_dict(["od"])
    assert doc["relation"] == "contraction"
    assert set(doc) >= {"t", "regime_left", "regime_right", "theta",
                        "sc_prime", "poa_prime", "lambda_prime", "verdict"}


def test_classify_fig1_expansion():
    net, coms, curve = corpus.build_fig1()
    rep = classify_breakpoint(net, coms, curve, 3.0)
    assert rep.relation == "expansion"
    assert rep.verdict == "consistent-strict"
    assert rep.sc_prime_left > rep.sc_prime_right


def test_classify_fisk_annotated(fisk):
    net, coms, curve = fisk
    rep = classify_breakpoint(net, coms, curve, 11.0)
    assert rep.relation == "expansion"
    assert rep.verdict == "not-applicable"
    assert any("demand not proportional" in a for a in rep.annotations)


@pytest.mark.parametrize("eps,order", [(0.5, "<"), (1.0, "="), (2.0, ">")])
def test_contraction_expansion_trichotomy(eps, order):
    net, coms, curve = corpus.build_contraction_expansion(eps)
    left = one_sided_derivatives(net, coms, curve, 2.0, "left")
    right = one_sided_derivatives(net, coms, curve, 2.0, "right")
    assert left.lam_prime[0] == pytest.approx(eps / (1 + 2 * eps), abs=1e-6)
    assert right.lam_prime[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    rep = classify_breakpoint(net, coms, curve, 2.0)
    assert rep.relation == "incomparable"
    assert rep.verdict == "not-applicable"
    diff = left.lam_prime[0] - right.lam_prime[0]
    assert {"<": diff < 0, "=": abs(diff) < 1e-6, ">": diff > 0}[order]


def test_watling_equality_case():
    net, coms, curve = corpus.build_watling_equality()
    left = one_sided_derivatives(net, coms, curve, 1.0, "left")
    right = one_sided_derivatives(net, coms, curve, 1.0, "right")
    assert left.lam_prime[0] == pytest.approx(0.0, abs=1e-6)
    assert right.lam_prime[0] == pytest.approx(0.0, abs=1e-6)


def test_probe_regime_mismatch_raises(fisk):
    net, coms, curve = fisk
    # A probe long enough to straddle the transition is rejected.
    with pytest.raises(SensitivityError):
        one_sided_derivatives(net, coms, curve, 11.5, "left", eps_probe=0.4)


# ---------------------------------------------------------------------------
# Parametric affine form
# ---------------------------------------------------------------------------


def test_affine_parametric_fisk_interval(fisk):
    net, coms, _ = fisk
    curve = LinearDemand((0.05, 1.0, 5.0))
    # Below the transition (demand pattern (0.05t, t, 5t) stays in a fixed
    # active set on [1, 2]); verify against direct solves.
    regime = sorted(solve_equilibrium(net, coms, curve.mu(1.5)).regime)
    w, z = affine_parametric_equilibrium(net, coms, curve, regime, (1.0, 2.0))
    for t in (1.0, 1.4, 2.0):
        eq = solve_equilibrium(net, coms, curve.mu(t))
        np.testing.assert_allclose(w * t + z, eq.f, atol=1e-7)


def test_affine_parametric_single_link():
    net = Network(["O", "D"], [Edge("e", "O", "D", AffineCost(1.0, 0.0))])
    coms = [Commodity("od", "O", "D", (Path("p", "od", ("e",)),))]
    w, z = affine_parametric_equilibrium(net, coms, LinearDemand((1.0,)), ["p"], (0.5, 2.0))
    assert w[0] == pytest.approx(1.0, abs=1e-10)
    assert z[0] == pytest.approx(0.0, abs=1e-10)


def test_affine_parametric_requires_affine():
    net, coms, curve = corpus.build_twolink()
    with pytest.raises(SensitivityError):
        affine_parametric_equilibrium(net, coms, curve, ["p1", "p2"], (0.5, 1.0))


def test_affine_parametric_stale_regime_diverges_from_equilibrium(fisk):
    # With affine costs the restricted KKT system is linear in t, so the
    # parametric line exists on any interval.  If the interval straddles a
    # regime change, the line no longer matches the true equilibrium on the
    # far side; verify the mismatch is detectable.
    net, coms, _ = fisk
    curve = LinearDemand((1.0 / 11.0, 1.0, 100.0 / 11.0))
    w, z = affine_parametric_equilibrium(net, coms, curve, ["p1", "p3", "p4"], (2.0, 8.0))
    t_far = 40.0
    res = solve_equilibrium(net, coms, tuple(np.asarray(curve.mu(t_far))))
    inc = build_incidence(net, coms)
    f_line = w * t_far + z
    x_line = inc.delta @ f_line
    assert np.max(np.abs(x_line - res.x)) > 1e-2


# ---------------------------------------------------------------------------
# Warm-started scan: same answers, less work
# ---------------------------------------------------------------------------


def cold_scan(net, coms, curve, t_range, grid_n=101, tol_t=1e-7, opts=DEFAULT_OPTIONS):
    """The scan with every probe a cold solve, as it was before warm starts.

    Returns the located points and the (mu, regime) of every probe in order.
    """
    probes = []

    def probe(t):
        mu = curve.mu(t)
        regime = tuple(sorted(solve_equilibrium(net, coms, mu, opts).regime))
        probes.append((tuple(mu), regime))
        return regime

    t0, t1 = float(t_range[0]), float(t_range[1])
    grid = np.linspace(t0, t1, grid_n)
    regimes = [probe(t) for t in grid]
    found = []
    for a, b, ra, rb in zip(grid[:-1], grid[1:], regimes[:-1], regimes[1:]):
        if ra == rb:
            continue
        lo, hi, rlo = a, b, ra
        while hi - lo > tol_t:
            mid = 0.5 * (lo + hi)
            if probe(mid) == rlo:
                lo = mid
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    out = []
    for t in found:
        if out and abs(t - out[-1]) <= 10 * tol_t:
            continue
        delta = max(100 * tol_t, 1e-6 * (1.0 + abs(t)))
        if probe(t - delta) != probe(t + delta):
            out.append(t)
    return out, probes


def count_calls(monkeypatch, module, name, record=None):
    """Wrap `module.name` wherever poaphases holds it; returns the call list."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(record(args, result) if record else None)
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "poaphases" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("name,t_range", [
    ("fisk", (0.0, 80.0)),
    ("pigou", (0.0, 4.0)),
    ("wheatstone", (0.0, 4.0)),
    ("fig1", (0.0, 16.0)),
    ("contraction-expansion", (0.0, 4.0)),
    ("watling-equality", (0.0, 2.0)),
])
def test_warm_scan_matches_cold_scan(monkeypatch, name, t_range):
    net, coms, curve = corpus.get_instance(name)
    ref_points, ref_probes = cold_scan(net, coms, curve, t_range)
    probes = count_calls(monkeypatch, equilibrium, "solve_equilibrium",
                         lambda args, res: (tuple(args[2]), tuple(sorted(res.regime))))
    points = locate_breakpoints(net, coms, curve, t_range)
    assert [float(t) for t in points] == [float(t) for t in ref_points]
    assert probes == ref_probes


def test_classify_shares_t_bar_solves(monkeypatch):
    # Two probes per side, plus one equilibrium and one optimum at t-bar
    # shared by both sides (the optimum solves the marginal game).
    net, coms, curve = corpus.build_pigou()
    solves = count_calls(monkeypatch, equilibrium, "solve_equilibrium")
    rep = classify_breakpoint(net, coms, curve, 1.0)
    assert rep.relation == "expansion"
    assert len(solves) == 6


def test_scan_builds_incidence_once(monkeypatch):
    net, coms, curve = corpus.build_fig1()
    builds = count_calls(monkeypatch, model, "build_incidence")
    solves = count_calls(monkeypatch, sensitivity, "solve_equilibrium")
    assert len(locate_breakpoints(net, coms, curve, (0.0, 16.0))) == 5
    assert len(solves) > 100
    assert len(builds) <= 2


# Known defects of the grid-and-bisect scanner, kept as they are until the
# exact continuation of ROADMAP item 6 replaces it.

@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: eps_active band reports fisk early")
def test_scan_locates_fisk_at_11(fisk):
    net, coms, curve = fisk
    (t,) = locate_breakpoints(net, coms, curve, (0.0, 80.0))
    assert abs(t - 11.0) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: quadratic gap closing, reported at 0.99955")
def test_scan_locates_watling_equality_at_1():
    net, coms, curve = corpus.build_watling_equality()
    (t,) = locate_breakpoints(net, coms, curve, (0.0, 2.0))
    assert abs(t - 1.0) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the t = 2 transition is reported twice")
def test_scan_reports_contraction_expansion_once():
    net, coms, curve = corpus.build_contraction_expansion()
    pts = locate_breakpoints(net, coms, curve, (0.0, 4.0))
    np.testing.assert_allclose(pts, [0.5, 2.0], atol=1e-5)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: coarse grid misses 3 and 6 on [0, 400]")
def test_scan_finds_all_fig1_transitions_on_wide_range():
    net, coms, curve = corpus.build_fig1()
    pts = locate_breakpoints(net, coms, curve, (0.0, 400.0))
    np.testing.assert_allclose(pts, [1.0, 3.0, 4.0, 6.0, 13.5], atol=1e-5)
