import numpy as np
import pytest

from poaphases import kernels
from poaphases.costs import (
    DEFAULT_EXTENSION_SLOPE,
    AffineCost,
    BPRCost,
    PiecewiseC1Cost,
    PolynomialCost,
    build_cost_table,
)

COSTS = [
    AffineCost(1.0, 90.0),
    AffineCost(0.0, 1.0),
    PolynomialCost((1.0, 0.0, 1.0)),
    PolynomialCost((0.5,)),
    BPRCost(1.0, 2.0, 0.15, 4.0),
    PiecewiseC1Cost(1.0, (0.0, 2.0, -1.0), (2.0, -2.0, 1.0)),
    PiecewiseC1Cost(1.0, (0.9, 0.2, -0.1), (11.0, -20.0, 10.0)),
]


@pytest.fixture(scope="module")
def table():
    return build_cost_table(COSTS)


@pytest.mark.parametrize("mode", [kernels.MODE_VALUE, kernels.MODE_DERIV, kernels.MODE_PRIMITIVE])
def test_numpy_matches_scalar_costs(table, mode):
    # The batched kernel must agree with per-cost scalar evaluation on x >= 0.
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.uniform(0.0, 6.0, size=len(COSTS))
        out = np.empty_like(x)
        kernels.eval_batch(
            table.kinds, table.params, table.ext_slope, table.value_at_zero, x, mode, out
        )
        for i, c in enumerate(COSTS):
            ref = {
                kernels.MODE_VALUE: c.value,
                kernels.MODE_DERIV: c.derivative,
                kernels.MODE_PRIMITIVE: c.primitive,
            }[mode](x[i])
            assert out[i] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_negative_extension_is_linear(table):
    # For x < 0 the value continues linearly from c(0), and the derivative is
    # the constant max(c'(0), DEFAULT_EXTENSION_SLOPE).
    slopes = [max(c.derivative(0.0), DEFAULT_EXTENSION_SLOPE) for c in COSTS]
    np.testing.assert_array_equal(table.ext_slope, slopes)
    assert table.ext_slope[1] == DEFAULT_EXTENSION_SLOPE  # flat AffineCost(0, 1)
    assert table.ext_slope[0] == 1.0
    x = np.full(len(COSTS), -1.5)
    vals = table.values(x)
    derivs = table.derivs(x)
    zeros = table.values(np.zeros(len(COSTS)))
    np.testing.assert_allclose(vals, zeros + table.ext_slope * (-1.5), rtol=1e-14)
    np.testing.assert_allclose(derivs, table.ext_slope, rtol=1e-14)


def test_primitive_is_antiderivative(table):
    h = 1e-6
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-1.0, 5.0, size=len(COSTS))
        fd = (table.primitives(x + h) - table.primitives(x - h)) / (2 * h)
        np.testing.assert_allclose(fd, table.values(x), rtol=1e-6, atol=1e-6)


def test_potential_slope(table):
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 3.0, size=len(COSTS))
    dx = rng.normal(size=len(COSTS))
    h = 1e-7
    fd = (table.potential(x + h * dx) - table.potential(x - h * dx)) / (2 * h)
    assert table.potential_slope(x, dx) == pytest.approx(fd, rel=1e-5, abs=1e-5)
