import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poaphases import corpus
from poaphases.costs import AffineCost
from poaphases.equilibrium import solve_equilibrium
from poaphases.model import (
    AffineDemand,
    Commodity,
    Edge,
    LinearDemand,
    ModelError,
    Network,
    Path,
    PathCountOverflow,
    PiecewiseAffineDemand,
    build_incidence,
    check_feasible,
    disjointify,
    enumerate_paths,
    eval_demand,
    loads_from_flow,
)


@pytest.fixture
def fisk():
    net, coms, _ = corpus.build_fisk()
    return net, coms


def test_build_incidence_fisk(fisk):
    net, coms = fisk
    inc = build_incidence(net, coms)
    assert inc.delta.shape == (3, 4)
    assert inc.s.shape == (3, 4)
    # Middle OD row selects its two paths.
    np.testing.assert_array_equal(inc.s[1], [0, 1, 1, 0])
    # The two-edge path has ones exactly on its edges.
    np.testing.assert_array_equal(inc.delta[:, 2], [1, 0, 1])


def test_build_incidence_fig1_column():
    net, coms, _ = corpus.build_fig1()
    inc = build_incidence(net, coms)
    assert inc.delta.shape == (7, 5)
    j = inc.path_index("p_zigzag")
    col = np.zeros(7)
    col[[0, 2, 4]] = 1  # e1, e3, e5
    np.testing.assert_array_equal(inc.delta[:, j], col)


def test_build_incidence_single_edge():
    net = Network(["O", "D"], [Edge("e", "O", "D", AffineCost(1.0, 0.0))])
    coms = [Commodity("od", "O", "D", (Path("p", "od", ("e",)),))]
    inc = build_incidence(net, coms)
    np.testing.assert_array_equal(inc.delta, [[1.0]])
    np.testing.assert_array_equal(inc.s, [[1.0]])


def test_invalid_paths_rejected():
    net = Network(["O", "M", "D"], [
        Edge("e1", "O", "M", AffineCost(1.0, 0.0)),
        Edge("e2", "M", "D", AffineCost(1.0, 0.0)),
    ])
    with pytest.raises(ModelError):  # non-chaining
        build_incidence(net, [Commodity("od", "O", "D", (Path("p", "od", ("e2", "e1")),))])
    with pytest.raises(ModelError):  # unknown edge
        build_incidence(net, [Commodity("od", "O", "D", (Path("p", "od", ("e1", "zz")),))])
    with pytest.raises(ModelError):  # duplicate path id
        build_incidence(net, [
            Commodity("a", "O", "M", (Path("p", "a", ("e1",)),)),
            Commodity("b", "M", "D", (Path("p", "b", ("e2",)),)),
        ])
    with pytest.raises(ModelError):  # wrong endpoints
        build_incidence(net, [Commodity("od", "O", "D", (Path("p", "od", ("e1",)),))])


def test_loads_from_flow(fisk):
    net, coms = fisk
    inc = build_incidence(net, coms)
    np.testing.assert_array_equal(loads_from_flow(inc, np.zeros(4)), np.zeros(3))
    t = 7.0
    x = loads_from_flow(inc, np.array([1.0, t, 0.0, 100.0]))
    np.testing.assert_allclose(x, [1.0, t, 100.0])
    with pytest.raises(ModelError):
        loads_from_flow(inc, np.zeros(5))


def test_loads_single_path_indicator():
    net, coms, _ = corpus.build_fig1()
    inc = build_incidence(net, coms)
    f = np.zeros(5)
    f[inc.path_index("p_zigzag")] = 1.0
    x = loads_from_flow(inc, f)
    np.testing.assert_array_equal(x, [1, 0, 1, 0, 1, 0, 0])


def test_check_feasible(fisk):
    net, coms = fisk
    inc = build_incidence(net, coms)
    assert check_feasible(inc, [1, 11, 0, 100], [1, 11, 100], 1e-9)
    assert not check_feasible(inc, [1, 10, 0, 100], [1, 11, 100], 1e-9)
    assert not check_feasible(inc, [1, 12, -1, 100], [1, 11, 100], 1e-9)


def test_enumerate_paths_wheatstone():
    net, _, _ = corpus.build_wheatstone()
    paths = enumerate_paths(net, "O", "D")
    seqs = {p.edges for p in paths}
    assert seqs == {("e1", "e3"), ("e2", "e4"), ("e1", "e5", "e4")}


def test_enumerate_paths_parallel_and_fig1():
    net = Network(["O", "D"], [
        Edge("a", "O", "D", AffineCost(1.0, 0.0)),
        Edge("b", "O", "D", AffineCost(1.0, 0.0)),
    ])
    assert len(enumerate_paths(net, "O", "D")) == 2
    fig1, _, _ = corpus.build_fig1()
    paths = enumerate_paths(fig1, "O", "D")
    assert len(paths) == 5
    # Deterministic order, no duplicates, valid paths.
    seqs = [p.edges for p in paths]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5
    for p in paths:
        fig1.validate_path(p)


def test_enumerate_paths_overflow_and_unreachable():
    fig1, _, _ = corpus.build_fig1()
    with pytest.raises(PathCountOverflow):
        enumerate_paths(fig1, "O", "D", max_paths=3)
    assert enumerate_paths(fig1, "D", "O") == []


def test_disjointify_noop(fisk):
    net, coms = fisk
    net2, coms2 = disjointify(net, coms)
    assert net2 is net and list(coms2) == list(coms)
    single = [coms[0]]
    assert disjointify(net, single)[1] == single


def test_disjointify_preserves_loads():
    # Two ODs over the same origin/destination sharing both path edge lists.
    net = Network(["O", "D"], [
        Edge("a", "O", "D", AffineCost(1.0, 0.0)),
        Edge("b", "O", "D", AffineCost(2.0, 1.0)),
    ])
    paths1 = (Path("h1a", "h1", ("a",)), Path("h1b", "h1", ("b",)))
    paths2 = (Path("h2a", "h2", ("a",)), Path("h2b", "h2", ("b",)))
    coms = [Commodity("h1", "O", "D", paths1), Commodity("h2", "O", "D", paths2)]
    net2, coms2 = disjointify(net, coms)
    assert len(net2.edges) == 3
    assert coms2[1].origin.startswith("__origin")
    mu = np.array([1.0, 2.0])
    merged = solve_equilibrium(net, [Commodity("h", "O", "D", paths1)], np.array([3.0]))
    rewired = solve_equilibrium(net2, coms2, mu)
    np.testing.assert_allclose(rewired.x[:2], merged.x, atol=1e-9)


def test_eval_demand_linear():
    mu, dl, dr = eval_demand(LinearDemand((1.0, 2.0)), 3.0)
    np.testing.assert_array_equal(mu, [3.0, 6.0])
    np.testing.assert_array_equal(dl, [1.0, 2.0])
    np.testing.assert_array_equal(dr, [1.0, 2.0])


def test_eval_demand_affine_fisk():
    _, _, curve = corpus.build_fisk()
    mu, dl, dr = eval_demand(curve, 7.0)
    np.testing.assert_array_equal(mu, [1.0, 7.0, 100.0])
    np.testing.assert_array_equal(dl, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(dr, [0.0, 1.0, 0.0])


def test_eval_demand_piecewise_knot():
    curve = PiecewiseAffineDemand((0.0, 2.0, 4.0), ((0.0,), (2.0,), (8.0,)))
    mu, dl, dr = eval_demand(curve, 2.0)
    assert mu[0] == pytest.approx(2.0)
    assert dl[0] == pytest.approx(1.0)
    assert dr[0] == pytest.approx(3.0)
    with pytest.raises(ModelError):
        curve.mu(5.0)


def test_demand_validation():
    with pytest.raises(ModelError):
        LinearDemand((-1.0,))
    with pytest.raises(ModelError):
        AffineDemand((1.0,), (-2.0,))  # negative at t = 0
    with pytest.raises(ModelError):
        PiecewiseAffineDemand((0.0, 0.0), ((1.0,), (1.0,)))
    # NaN passes the sign checks, so each curve checks finiteness first.
    for bad in (float("nan"), float("inf")):
        for build in (
            lambda v: LinearDemand((1.0, v)),
            lambda v: AffineDemand((v,), (1.0,)),
            lambda v: AffineDemand((1.0,), (v,)),
            lambda v: PiecewiseAffineDemand((0.0, v), ((1.0,), (1.0,))),
            lambda v: PiecewiseAffineDemand((0.0, 1.0), ((1.0,), (v,))),
        ):
            with pytest.raises(ModelError, match="finite"):
                build(bad)


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_loads_linearity(f, g, a, b):
    net, coms, _ = corpus.build_fisk()
    inc = build_incidence(net, coms)
    f = np.array(f)
    g = np.array(g)
    lhs = loads_from_flow(inc, a * f + b * g)
    rhs = a * loads_from_flow(inc, f) + b * loads_from_flow(inc, g)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


@given(st.floats(0, 50))
@settings(max_examples=40, deadline=None)
def test_linear_demand_scales_exactly(t):
    curve = LinearDemand((1.5, 0.25))
    np.testing.assert_array_equal(curve.mu(t), t * curve.mu(1.0))
