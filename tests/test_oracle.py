"""Cross-check of the equilibrium and optimum solvers against a generic minimizer.

The oracle here keeps its own path incidence, cost polynomials, potentials
and gradients, and hands them to ``scipy.optimize.minimize`` (SLSQP over
nonnegative path flows meeting the demands).  Nothing of poaphases is used
beyond building the instance and calling the solver under test.  Loads are
compared only on edges whose cost strictly increases, where they are unique;
edge costs and per-OD equilibrium costs are unique everywhere.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from poaphases.costs import AffineCost, PolynomialCost
from poaphases.equilibrium import (
    dual_certificate_affine,
    solve_equilibrium,
    solve_social_optimum,
)
from poaphases.model import Commodity, Edge, Network, Path


class Instance:
    """Edges as (tail, head, coefficient list of c); ODs as (origin, dest, demand)."""

    def __init__(self, n_vertices, edges, ods):
        self.n_vertices = n_vertices
        self.edges = [(u, v, [float(c) for c in coeffs]) for u, v, coeffs in edges]
        self.ods = ods
        self.paths = []  # (od index, tuple of edge indices)
        for h, (o, d, _) in enumerate(ods):
            for p in self._simple_paths(o, d):
                self.paths.append((h, p))
        self.delta = np.zeros((len(self.edges), len(self.paths)))
        self.s = np.zeros((len(ods), len(self.paths)))
        for j, (h, p) in enumerate(self.paths):
            self.delta[list(p), j] = 1.0
            self.s[h, j] = 1.0
        self.mu = np.array([float(m) for _, _, m in ods])

    def _simple_paths(self, o, d):
        out = []

        def walk(v, seen, used):
            if v == d:
                out.append(tuple(used))
                return
            for i, (u, w, _) in enumerate(self.edges):
                if u == v and w not in seen:
                    walk(w, seen | {w}, used + [i])

        walk(o, {o}, [])
        return out

    # Oracle side: plain polynomial arithmetic on the coefficient lists.
    def cost(self, x):
        return np.array([sum(c * xe**k for k, c in enumerate(cs))
                         for xe, (_, _, cs) in zip(x, self.edges)])

    def slope_is_positive(self):
        return np.array([any(c > 0 for c in cs[1:]) for _, _, cs in self.edges])

    def potential(self, x):
        return sum(sum(c * xe ** (k + 1) / (k + 1) for k, c in enumerate(cs))
                   for xe, (_, _, cs) in zip(x, self.edges))

    def total_cost(self, x):
        return float(x @ self.cost(x))

    def marginal_cost(self, x):
        return np.array([sum((k + 1) * c * xe**k for k, c in enumerate(cs))
                         for xe, (_, _, cs) in zip(x, self.edges)])

    def minimize(self, objective, edge_gradient):
        """Minimize objective(loads) over path flows; returns the loads."""
        delta, s, mu = self.delta, self.s, self.mu
        f0 = s.T @ (mu / s.sum(axis=1))
        res = minimize(
            lambda f: objective(delta @ f),
            f0,
            jac=lambda f: delta.T @ edge_gradient(delta @ f),
            method="SLSQP",
            bounds=[(0.0, None)] * len(f0),
            constraints=[{"type": "eq", "fun": lambda f: s @ f - mu, "jac": lambda f: s}],
            options={"ftol": 1e-15, "maxiter": 2000},
        )
        # Status 8 means no descent direction is left at this ftol: converged.
        assert res.success or res.status == 8, res.message
        return delta @ np.maximum(res.x, 0.0)

    # Solver side: the same instance in poaphases' model.
    def to_model(self):
        vertices = [f"v{i}" for i in range(self.n_vertices)]
        edges = []
        for i, (u, v, cs) in enumerate(self.edges):
            cost = AffineCost(cs[1], cs[0]) if len(cs) == 2 else PolynomialCost(tuple(cs))
            edges.append(Edge(f"e{i}", f"v{u}", f"v{v}", cost))
        coms = []
        for h, (o, d, _) in enumerate(self.ods):
            paths = tuple(Path(f"p{j}", f"od{h}", tuple(f"e{i}" for i in p))
                          for j, (hj, p) in enumerate(self.paths) if hj == h)
            coms.append(Commodity(f"od{h}", f"v{o}", f"v{d}", paths))
        return Network(vertices, edges), coms


def random_instance(seed, affine_only=False):
    """A small DAG with 1-3 ODs; some edges are flat, some quadratic."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.45]
    edges = []
    for u, v in pairs:
        b = float(rng.uniform(0.0, 3.0))
        kind = 0.5 if affine_only else rng.random()
        if kind < 0.2:
            coeffs = [b, 0.0]  # zero slope: a constant cost
        elif kind < 0.75:
            coeffs = [b, float(rng.uniform(0.2, 2.0))]
        else:
            coeffs = [b, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.5))]
        edges.append((u, v, coeffs))
    ods = []
    for _ in range(int(rng.integers(1, 4))):
        o = int(rng.integers(0, n - 1))
        d = int(rng.integers(o + 1, n))
        if (o, d) not in [(a, b) for a, b, _ in ods]:
            ods.append((o, d, float(rng.uniform(0.2, 4.0))))
    return Instance(n, edges, ods)


def braess(demand):
    # Braess network; the zero-cost bridge ties all three paths at demand 1.
    return Instance(4, [(0, 1, [0.0, 1.0]), (1, 3, [1.0, 0.0]), (0, 2, [1.0, 0.0]),
                        (2, 3, [0.0, 1.0]), (1, 2, [0.0, 0.0])], [(0, 3, demand)])


DEGENERATE = {
    # Pigou at its threshold: the constant link is tied and unused.
    "pigou-threshold": Instance(2, [(0, 1, [0.0, 1.0]), (0, 1, [1.0, 0.0])], [(0, 1, 1.0)]),
    # Two identical links and a constant one, tied exactly at demand 2.
    "twin-links-threshold": Instance(
        2, [(0, 1, [1.0, 1.0]), (0, 1, [1.0, 1.0]), (0, 1, [2.0, 0.0])], [(0, 1, 2.0)]),
    # Two constant links of equal cost: loads are not unique, costs are.
    "flat-tie": Instance(2, [(0, 1, [1.0, 0.0]), (0, 1, [1.0, 0.0]), (0, 1, [0.5, 1.0])],
                         [(0, 1, 3.0)]),
    "braess-tie": braess(1.0),
    "braess-above": braess(1.5),
    "braess-below": braess(0.5),
    # Two ODs sharing a flat edge, with identical parallel routes.
    "shared-flat": Instance(
        4, [(0, 1, [0.0, 1.0]), (0, 1, [0.0, 1.0]), (1, 2, [2.0, 0.0]),
            (2, 3, [0.0, 0.5]), (1, 3, [2.0, 0.2])],
        [(0, 3, 2.0), (1, 3, 1.0)]),
}

CASES = [(f"seed{k}", random_instance(k)) for k in range(30)]
CASES += [(f"affine{k}", random_instance(k, affine_only=True)) for k in range(10)]
CASES += list(DEGENERATE.items())


def check_against(inst, res, x_oracle, edge_cost, objective):
    scale = 1.0 + float(np.max(inst.mu))
    strict = inst.slope_is_positive()
    np.testing.assert_allclose(res.x[strict], x_oracle[strict], atol=1e-7 * scale)
    # Edge costs and per-OD levels are unique even where loads are not.
    np.testing.assert_allclose(res.tau, edge_cost(x_oracle), atol=1e-7 * scale)
    pc = inst.delta.T @ edge_cost(res.x)
    lam = np.array([np.min(pc[inst.s[h] > 0]) for h in range(len(inst.ods))])
    np.testing.assert_allclose(res.lam, lam, atol=1e-9 * scale)
    # Only cheapest paths carry flow, and nothing beats the solver's objective.
    used = res.f > 1e-9 * scale
    assert np.all(pc[used] <= (inst.s.T @ lam)[used] + 1e-9 * scale)
    np.testing.assert_allclose(inst.s @ res.f, inst.mu, atol=1e-9 * scale)
    assert objective(res.x) <= objective(x_oracle) + 1e-9 * scale**3


@pytest.mark.parametrize("name,inst", CASES, ids=[name for name, _ in CASES])
def test_equilibrium_matches_beckmann_minimizer(name, inst):
    net, coms = inst.to_model()
    res = solve_equilibrium(net, coms, inst.mu)
    x_oracle = inst.minimize(inst.potential, inst.cost)
    check_against(inst, res, x_oracle, inst.cost, inst.potential)


@pytest.mark.parametrize("name,inst", CASES, ids=[name for name, _ in CASES])
def test_optimum_matches_total_cost_minimizer(name, inst):
    net, coms = inst.to_model()
    res = solve_social_optimum(net, coms, inst.mu)
    x_oracle = inst.minimize(inst.total_cost, inst.marginal_cost)
    check_against(inst, res, x_oracle, inst.marginal_cost, inst.total_cost)
    assert res.sc == pytest.approx(inst.total_cost(x_oracle), rel=1e-9, abs=1e-9)


AFFINE = [(name, inst) for name, inst in CASES
          if all(len(cs) == 2 and cs[1] > 0 for _, _, cs in inst.edges)]


@pytest.mark.parametrize("name,inst", AFFINE, ids=[name for name, _ in AFFINE])
def test_affine_duality_gap_vanishes(name, inst):
    net, coms = inst.to_model()
    res = solve_equilibrium(net, coms, inst.mu)
    phi = inst.potential(res.x)
    assert abs(dual_certificate_affine(net, coms, inst.mu, res)) <= 1e-9 * (1.0 + abs(phi))
