"""Edge cost families and the calculus the solvers need.

Each family provides value, derivative, exact primitive (antiderivative with
value 0 at 0), the marginal-cost transform ``c(x) + x c'(x)``, and an encoding
into the flat tables consumed by :mod:`poaphases.kernels`.  The scalar methods
are defined on ``[0, inf)`` and are the reference the kernel is tested
against.  The solvers evaluate costs through the table of
:func:`build_cost_table`, which continues each cost linearly below zero for
the relaxed fixed-regime solvers, which may probe negative loads.
Constructors reject non-finite parameters, and piecewise costs are checked
to be nondecreasing exactly, piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

#: Least slope of the negative-load continuation, for costs flat at zero.
DEFAULT_EXTENSION_SLOPE = 1e-2


class CostError(ValueError):
    """Invalid cost-function construction or evaluation."""


def _check_nonneg_x(x: float) -> None:
    if x < 0:
        raise CostError(f"cost evaluated at negative load {x}; costs are defined on x >= 0")


def _check_finite(family: str, values) -> None:
    # NaN passes every sign check, so finiteness is checked first.
    if not all(math.isfinite(v) for v in values):
        raise CostError(f"{family} cost parameters must be finite, got {tuple(values)}")


@dataclass(frozen=True)
class AffineCost:
    """c(x) = a*x + b with a, b >= 0."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        _check_finite("affine", (self.a, self.b))
        if self.a < 0 or self.b < 0:
            raise CostError(f"affine cost needs a, b >= 0, got a={self.a}, b={self.b}")

    def value(self, x: float) -> float:
        _check_nonneg_x(x)
        return self.a * x + self.b

    def derivative(self, x: float) -> float:
        _check_nonneg_x(x)
        return self.a

    def primitive(self, x: float) -> float:
        _check_nonneg_x(x)
        return 0.5 * self.a * x * x + self.b * x

    def marginal(self) -> "AffineCost":
        return AffineCost(2.0 * self.a, self.b)

    def encode(self):
        return kernels.KIND_POLY, [2.0, self.b, self.a]


@dataclass(frozen=True)
class PolynomialCost:
    """c(x) = sum_k coeffs[k] * x**k with nonnegative coefficients."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise CostError("polynomial cost needs at least one coefficient")
        if len(coeffs) > 8:
            raise CostError("polynomial costs support degree <= 7")
        _check_finite("polynomial", coeffs)
        if any(c < 0 for c in coeffs):
            raise CostError(f"polynomial coefficients must be nonnegative: {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def value(self, x: float) -> float:
        _check_nonneg_x(x)
        return float(np.polynomial.polynomial.polyval(x, self.coeffs))

    def derivative(self, x: float) -> float:
        _check_nonneg_x(x)
        d = [k * c for k, c in enumerate(self.coeffs)][1:] or [0.0]
        return float(np.polynomial.polynomial.polyval(x, d))

    def primitive(self, x: float) -> float:
        _check_nonneg_x(x)
        p = [0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        return float(np.polynomial.polynomial.polyval(x, p))

    def marginal(self) -> "PolynomialCost":
        return PolynomialCost(tuple((k + 1) * c for k, c in enumerate(self.coeffs)))

    def encode(self):
        return kernels.KIND_POLY, [float(len(self.coeffs)), *self.coeffs]


@dataclass(frozen=True)
class BPRCost:
    """c(x) = t0 * (1 + alpha * (x / cap)**beta)."""

    t0: float
    cap: float
    alpha: float
    beta: float

    def __post_init__(self):
        _check_finite("BPR", (self.t0, self.cap, self.alpha, self.beta))
        if self.t0 <= 0 or self.cap <= 0 or self.alpha < 0 or self.beta < 1:
            raise CostError(
                f"BPR needs t0 > 0, cap > 0, alpha >= 0, beta >= 1; got {self}"
            )

    def value(self, x: float) -> float:
        _check_nonneg_x(x)
        return self.t0 * (1.0 + self.alpha * (x / self.cap) ** self.beta)

    def derivative(self, x: float) -> float:
        _check_nonneg_x(x)
        if x == 0.0 and self.beta > 1:
            return 0.0
        return self.t0 * self.alpha * self.beta * (x / self.cap) ** (self.beta - 1) / self.cap

    def primitive(self, x: float) -> float:
        _check_nonneg_x(x)
        return self.t0 * x + self.t0 * self.alpha * self.cap / (self.beta + 1) * (
            x / self.cap
        ) ** (self.beta + 1)

    def marginal(self) -> "BPRCost":
        return BPRCost(self.t0, self.cap, self.alpha * (1.0 + self.beta), self.beta)

    def encode(self):
        return kernels.KIND_BPR, [self.t0, self.cap, self.alpha, self.beta]


def _piece_val(coeffs, x):
    return float(np.polynomial.polynomial.polyval(x, coeffs))


def _piece_deriv(coeffs, x):
    d = [k * c for k, c in enumerate(coeffs)][1:] or [0.0]
    return float(np.polynomial.polynomial.polyval(x, d))


def _check_nondecreasing(coeffs, lo: float, hi: float = math.inf) -> None:
    """Raise CostError unless the polynomial ``coeffs`` is nondecreasing on [lo, hi].

    The slope c' is checked at the ends of the interval and at every root of
    c'' inside it (the real parts of all its roots, which include the real
    ones), so every minimum of c' on the interval is seen.  On an unbounded
    interval c' must also not fall without bound: its leading coefficient
    must be nonnegative.  The tolerance is a rounding bound of the slope.
    """
    poly = np.polynomial.polynomial
    d = poly.polytrim(poly.polyder(coeffs))
    crit = poly.polyroots(poly.polyder(d)).real
    pts = [lo, *crit[(crit > lo) & (crit < hi)]]
    if hi < math.inf:
        pts.append(hi)
    pts = np.array(pts)
    rounding = 1e-12 * poly.polyval(np.abs(pts), np.abs(d))
    falls_forever = hi == math.inf and d[-1] < 0
    if falls_forever or np.any(poly.polyval(pts, d) < -rounding):
        raise CostError(f"piecewise cost is not nondecreasing on [{lo}, {hi}]")


@dataclass(frozen=True)
class PiecewiseC1Cost:
    """Two polynomial pieces joined at ``x0``.

    The default contract is a C^1 junction (value and derivative agree at
    x0) and a nondecreasing graph, both validated at construction.  The
    marginal transform of a C^1 piecewise cost can have a derivative jump at
    x0; such functions are represented with ``require_c1=False`` and carry
    only the continuity + monotonicity guarantees.
    """

    x0: float
    left: tuple
    right: tuple
    require_c1: bool = True

    def __post_init__(self):
        left = tuple(float(c) for c in self.left)
        right = tuple(float(c) for c in self.right)
        if len(left) > 5 or len(right) > 5 or not left or not right:
            raise CostError("piecewise pieces must have 1..5 coefficients")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        _check_finite("piecewise", (self.x0, *left, *right))
        if self.x0 <= 0:
            raise CostError(f"piecewise breakpoint must be positive, got {self.x0}")
        v_gap = abs(_piece_val(left, self.x0) - _piece_val(right, self.x0))
        if v_gap > 1e-12:
            raise CostError(f"piecewise pieces disagree in value at x0 (gap {v_gap})")
        if self.require_c1:
            d_gap = abs(_piece_deriv(left, self.x0) - _piece_deriv(right, self.x0))
            if d_gap > 1e-12:
                raise CostError(
                    f"piecewise pieces disagree in derivative at x0 (gap {d_gap})"
                )
        # Individual pieces are often non-monotone polynomials, so the
        # nondecreasing assumption has to be checked, not trusted.
        _check_nondecreasing(left, 0.0, self.x0)
        _check_nondecreasing(right, self.x0)
        if self.value(0.0) < 0:
            raise CostError("piecewise cost is negative at 0")

    def value(self, x: float) -> float:
        _check_nonneg_x(x)
        return _piece_val(self.left if x <= self.x0 else self.right, x)

    def derivative(self, x: float) -> float:
        _check_nonneg_x(x)
        return _piece_deriv(self.left if x <= self.x0 else self.right, x)

    def primitive(self, x: float) -> float:
        _check_nonneg_x(x)

        def raw(coeffs, y):
            p = [0.0] + [c / (k + 1) for k, c in enumerate(coeffs)]
            return float(np.polynomial.polynomial.polyval(y, p))

        if x <= self.x0:
            return raw(self.left, x)
        return raw(self.left, self.x0) + raw(self.right, x) - raw(self.right, self.x0)

    def marginal(self) -> "PiecewiseC1Cost":
        def marg(coeffs):
            # d/dx [x * C(x)] pieces: c(x) + x c'(x) = sum (k+1) c_k x^k
            return tuple((k + 1) * c for k, c in enumerate(coeffs))

        return PiecewiseC1Cost(self.x0, marg(self.left), marg(self.right), require_c1=False)

    def encode(self):
        nl, nr = len(self.left), len(self.right)
        row = [self.x0, float(nl)]
        row += list(self.left) + [0.0] * (5 - nl)
        row += [float(nr)]
        row += list(self.right) + [0.0] * (5 - nr)
        return kernels.KIND_PIECEWISE, row


CostFunction = AffineCost | PolynomialCost | BPRCost | PiecewiseC1Cost


def marginal(cost: CostFunction) -> CostFunction:
    """Marginal-cost transform c(x) + x * c'(x).

    Raises :class:`CostError` when the transform is not nondecreasing, i.e.
    when x * c(x) is not convex and the social-optimum reduction does not
    apply.
    """
    return cost.marginal()


def fenchel_conjugate_affine(cost: AffineCost, eta: float) -> float:
    """Conjugate of the primitive C(x) = a x^2 / 2 + b x over x >= 0."""
    if not isinstance(cost, AffineCost) or cost.a <= 0:
        raise CostError("Fenchel conjugate certificate supports affine costs with a > 0")
    return max(eta - cost.b, 0.0) ** 2 / (2.0 * cost.a)


def build_cost_table(costs) -> kernels.CostTable:
    """Encode a sequence of costs into a kernel table.

    Below zero the table continues each cost linearly from c(0) with slope
    max(c'(0), DEFAULT_EXTENSION_SLOPE).  When c'(0) = 0 the continuation has
    a derivative kink at 0; solutions of the relaxed problems are re-verified
    in the nonnegative domain anyway.
    """
    n = len(costs)
    kinds = np.zeros(n, dtype=np.int64)
    params = np.zeros((n, kernels.PARAM_WIDTH), dtype=np.float64)
    ext_slope = np.zeros(n, dtype=np.float64)
    value_at_zero = np.zeros(n, dtype=np.float64)
    for i, c in enumerate(costs):
        kind, row = c.encode()
        kinds[i] = kind
        params[i, : len(row)] = row
        ext_slope[i] = max(c.derivative(0.0), DEFAULT_EXTENSION_SLOPE)
        value_at_zero[i] = c.value(0.0)
    return kernels.CostTable(kinds, params, ext_slope, value_at_zero)
