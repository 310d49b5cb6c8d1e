import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poaphases.costs import (
    AffineCost,
    BPRCost,
    CostError,
    PiecewiseC1Cost,
    PolynomialCost,
    fenchel_conjugate_affine,
    marginal,
)

FAMILIES = [
    AffineCost(1.0, 90.0),
    AffineCost(2.0, 5.0),
    PolynomialCost((0.0, 0.0, 1.0)),
    PolynomialCost((1.0, 0.5, 0.0, 2.0)),
    BPRCost(1.0, 2.0, 0.15, 4.0),
    BPRCost(2.0, 1.0, 1.0, 2.0),
    PiecewiseC1Cost(1.0, (0.0, 2.0, -1.0), (2.0, -2.0, 1.0)),
]


def test_eval_examples():
    assert AffineCost(1.0, 90.0).value(11.0) == 101.0
    # Kinked pair: value 1 and slope 0 at the junction.
    c1 = PiecewiseC1Cost(1.0, (0.0, 2.0, -1.0), (2.0, -2.0, 1.0))
    assert c1.value(1.0) == pytest.approx(1.0)
    assert c1.derivative(1.0) == pytest.approx(0.0)
    assert BPRCost(1.0, 1.0, 0.0, 4.0).value(7.3) == pytest.approx(1.0)
    assert AffineCost(2.0, 5.0).derivative(123.0) == 2.0
    assert PolynomialCost((0.0, 0.0, 1.0)).derivative(3.0) == 6.0


def test_primitive_examples():
    assert AffineCost(1.0, 0.0).primitive(2.0) == pytest.approx(2.0)
    # 1 + x^2 integrates to x + x^3/3.
    c2 = PolynomialCost((1.0, 0.0, 1.0))
    assert c2.primitive(1.0) == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("cost", FAMILIES)
def test_derivative_finite_difference(cost):
    h = 1e-5
    for x in np.linspace(0.1, 4.0, 9):
        fd = (cost.value(x + h) - cost.value(x - h)) / (2 * h)
        assert cost.derivative(x) == pytest.approx(fd, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("cost", FAMILIES)
def test_primitive_finite_difference(cost):
    h = 1e-5
    for x in np.linspace(0.1, 4.0, 9):
        fd = (cost.primitive(x + h) - cost.primitive(x - h)) / (2 * h)
        assert cost.value(x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize(
    "cost",
    [AffineCost(1.0, 0.0), AffineCost(1.0, 90.0), PolynomialCost((0.0, 0.0, 1.0)),
     PolynomialCost((1.0, 2.0))],
)
def test_marginal_identity(cost):
    m = marginal(cost)
    for x in np.linspace(0.0, 5.0, 11):
        assert m.value(x) == pytest.approx(cost.value(x) + x * cost.derivative(x), rel=1e-12)


def test_marginal_affine_examples():
    assert marginal(AffineCost(1.0, 0.0)) == AffineCost(2.0, 0.0)
    assert marginal(AffineCost(1.0, 90.0)) == AffineCost(2.0, 90.0)
    m = marginal(PolynomialCost((0.0, 0.0, 1.0)))
    assert m.value(2.0) == pytest.approx(12.0)  # 3x^2


def test_marginal_rejects_nonconvex_total_cost():
    # x*c(x) for the kinked pair is not convex; the transform must refuse.
    c1 = PiecewiseC1Cost(1.0, (0.0, 2.0, -1.0), (2.0, -2.0, 1.0))
    with pytest.raises(CostError):
        marginal(c1)


def _conjugate_oracle(a, b, eta):
    # Brute-force maximization of eta*x - (a x^2 / 2 + b x) over a dense grid.
    xs = np.linspace(0.0, 50.0, 400_001)
    return float(np.max(eta * xs - (a * xs**2 / 2 + b * xs)))


@pytest.mark.parametrize("a,b,eta,expect", [
    (1.0, 0.0, 1.0, 0.5),
    (1.0, 90.0, 90.0, 0.0),
    (2.0, 1.0, 5.0, 4.0),
])
def test_fenchel_conjugate_against_oracle(a, b, eta, expect):
    got = fenchel_conjugate_affine(AffineCost(a, b), eta)
    assert got == pytest.approx(expect, abs=1e-9)
    assert got == pytest.approx(_conjugate_oracle(a, b, eta), abs=1e-6)


@given(
    a=st.floats(0.1, 5.0), b=st.floats(0.0, 5.0),
    x=st.floats(0.0, 10.0), eta=st.floats(0.0, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_fenchel_young(a, b, x, eta):
    cost = AffineCost(a, b)
    cx = cost.primitive(x)
    assert cx + fenchel_conjugate_affine(cost, eta) >= x * eta - 1e-9
    eta_eq = cost.value(x)
    gap = cx + fenchel_conjugate_affine(cost, eta_eq) - x * eta_eq
    assert abs(gap) <= 1e-9 * (1 + abs(cx))


def test_fenchel_conjugate_requires_positive_slope():
    with pytest.raises(CostError):
        fenchel_conjugate_affine(AffineCost(0.0, 1.0), 2.0)


def test_piecewise_validation():
    with pytest.raises(CostError):
        PiecewiseC1Cost(1.0, (0.0,), (5.0,))  # value jump at the junction
    with pytest.raises(CostError):
        PiecewiseC1Cost(1.0, (0.0, 1.0), (1.0, 2.0))  # derivative jump
    with pytest.raises(CostError):
        PiecewiseC1Cost(1.0, (2.0, -2.0), (0.0,))  # decreasing on the left
    # Monotonicity is checked exactly on each piece.  C^1 at 1 and increasing
    # up to x = 31, but the cubic term wins beyond any finite sample range:
    # c(200) = -598.94.
    with pytest.raises(CostError, match=r"nondecreasing on \[1.0, inf\]"):
        PiecewiseC1Cost(1.0, (1.0, 1.0), (0.9998, 1.0003, 0.0, -1e-4))
    # A dip inside the left piece, whose slope is 2 at both ends.
    with pytest.raises(CostError, match=r"nondecreasing on \[0.0, 2.0\]"):
        PiecewiseC1Cost(2.0, (0.0, 2.0, -3.0, 1.0), (-4.0, 2.0))
    # Slopes that touch zero inside a piece are accepted: c'(x) = 3 (x - 1/2)^2
    # on the left, and (x - 1)^2 + 3/4 on the right.
    c = PiecewiseC1Cost(1.0, (0.875, 0.75, -1.5, 1.0),
                        (1.125 - 1.75 + 1.0 - 1.0 / 3.0, 1.75, -1.0, 1.0 / 3.0))
    assert c.derivative(0.5) == pytest.approx(0.0, abs=1e-15)


def test_constructor_validation():
    with pytest.raises(CostError):
        AffineCost(-1.0, 0.0)
    with pytest.raises(CostError):
        PolynomialCost((1.0, -2.0))
    with pytest.raises(CostError):
        BPRCost(0.0, 1.0, 1.0, 4.0)
    with pytest.raises(CostError):
        BPRCost(1.0, 1.0, 1.0, 0.5)
    # NaN passes every sign check, so each family checks finiteness first.
    for bad in (float("nan"), float("inf"), -float("inf")):
        for build in (
            lambda v: AffineCost(v, 0.0),
            lambda v: AffineCost(1.0, v),
            lambda v: PolynomialCost((1.0, v)),
            lambda v: BPRCost(1.0, v, 0.15, 4.0),
            lambda v: BPRCost(1.0, 1.0, 0.15, v),
            lambda v: PiecewiseC1Cost(v, (0.0, 1.0), (0.0, 1.0)),
            lambda v: PiecewiseC1Cost(1.0, (0.0, 1.0), (0.0, v)),
        ):
            with pytest.raises(CostError, match="finite"):
                build(bad)


def test_negative_argument_rejected_without_extension():
    with pytest.raises(CostError):
        AffineCost(1.0, 0.0).value(-1.0)
