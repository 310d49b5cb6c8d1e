"""Batched edge-cost evaluation: the one path by which the solvers see costs.

Every solver in this package spends its inner iterations evaluating all edge
costs (value, first derivative, integral from zero) at a load vector.  The
cost families are encoded into flat numeric tables (see
:func:`poaphases.costs.build_cost_table`) and evaluated by one per-edge loop,
:func:`eval_batch`.

Negative loads are evaluated through the linear continuation
``c(0) + s * x`` with per-edge slope ``s``; this table is the only place the
continuation lives.
"""

from __future__ import annotations

import numpy as np

# Cost-family codes used in the encoded tables.
KIND_POLY = 0
KIND_BPR = 1
KIND_PIECEWISE = 2

# Per-edge parameter row layout (width PARAM_WIDTH, unused slots zero):
#   poly:      [ncoef, c0, c1, ..., c7]                (ascending degree)
#   bpr:       [t0, cap, alpha, beta]
#   piecewise: [x0, nl, l0..l4, nr, r0..r4]            (two polynomial pieces)
PARAM_WIDTH = 14

MODE_VALUE = 0
MODE_DERIV = 1
MODE_PRIMITIVE = 2


def _poly_value(params, off, n, x):
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc = acc * x + params[off + k]
    return acc


def _poly_deriv(params, off, n, x):
    acc = 0.0
    for k in range(n - 1, 0, -1):
        acc = acc * x + k * params[off + k]
    return acc


def _poly_primitive(params, off, n, x):
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc = acc * x + params[off + k] / (k + 1)
    return acc * x


def eval_batch(kinds, params, ext_slope, value_at_zero, x, mode, out):
    """Evaluate every edge's cost in ``mode`` at its load ``x[e]`` into ``out``."""
    for e in range(x.shape[0]):
        xe = x[e]
        if xe < 0.0:
            # linear continuation below zero
            if mode == MODE_VALUE:
                out[e] = value_at_zero[e] + ext_slope[e] * xe
            elif mode == MODE_DERIV:
                out[e] = ext_slope[e]
            else:
                out[e] = value_at_zero[e] * xe + 0.5 * ext_slope[e] * xe * xe
            continue
        kind = kinds[e]
        if kind == KIND_POLY:
            n = int(params[e, 0])
            if mode == MODE_VALUE:
                out[e] = _poly_value(params[e], 1, n, xe)
            elif mode == MODE_DERIV:
                out[e] = _poly_deriv(params[e], 1, n, xe)
            else:
                out[e] = _poly_primitive(params[e], 1, n, xe)
        elif kind == KIND_BPR:
            t0 = params[e, 0]
            cap = params[e, 1]
            alpha = params[e, 2]
            beta = params[e, 3]
            ratio = xe / cap
            if mode == MODE_VALUE:
                out[e] = t0 * (1.0 + alpha * ratio**beta)
            elif mode == MODE_DERIV:
                if xe == 0.0 and beta > 1.0:
                    out[e] = 0.0
                else:
                    out[e] = t0 * alpha * beta * ratio ** (beta - 1.0) / cap
            else:
                out[e] = t0 * xe + t0 * alpha * cap / (beta + 1.0) * ratio ** (
                    beta + 1.0
                )
        else:  # KIND_PIECEWISE
            x0 = params[e, 0]
            nl = int(params[e, 1])
            nr = int(params[e, 2 + 5])
            if xe <= x0:
                if mode == MODE_VALUE:
                    out[e] = _poly_value(params[e], 2, nl, xe)
                elif mode == MODE_DERIV:
                    out[e] = _poly_deriv(params[e], 2, nl, xe)
                else:
                    out[e] = _poly_primitive(params[e], 2, nl, xe)
            else:
                if mode == MODE_VALUE:
                    out[e] = _poly_value(params[e], 8, nr, xe)
                elif mode == MODE_DERIV:
                    out[e] = _poly_deriv(params[e], 8, nr, xe)
                else:
                    out[e] = (
                        _poly_primitive(params[e], 2, nl, x0)
                        + _poly_primitive(params[e], 8, nr, xe)
                        - _poly_primitive(params[e], 8, nr, x0)
                    )
    return out


class CostTable:
    """Encoded cost functions for a fixed edge ordering.

    ``values``/``derivs``/``primitives`` evaluate all edges at once; the
    potential is the sum of the primitives.
    """

    __slots__ = ("kinds", "params", "ext_slope", "value_at_zero", "n_edges")

    def __init__(self, kinds, params, ext_slope, value_at_zero):
        self.kinds = np.ascontiguousarray(kinds, dtype=np.int64)
        self.params = np.ascontiguousarray(params, dtype=np.float64)
        self.ext_slope = np.ascontiguousarray(ext_slope, dtype=np.float64)
        self.value_at_zero = np.ascontiguousarray(value_at_zero, dtype=np.float64)
        self.n_edges = self.kinds.shape[0]

    def _eval(self, x, mode, out=None):
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty_like(x)
        eval_batch(self.kinds, self.params, self.ext_slope, self.value_at_zero, x, mode, out)
        return out

    def values(self, x, out=None):
        return self._eval(x, MODE_VALUE, out)

    def derivs(self, x, out=None):
        return self._eval(x, MODE_DERIV, out)

    def primitives(self, x, out=None):
        return self._eval(x, MODE_PRIMITIVE, out)

    def potential(self, x) -> float:
        return float(self.primitives(x).sum())

    def potential_slope(self, x, dx) -> float:
        """d/da of potential(x + a*dx) at a = 0."""
        return float(self.values(x) @ dx)
