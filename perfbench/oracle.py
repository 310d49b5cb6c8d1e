"""Correctness oracles that share no code with poaphases.

The oracles read the same instance JSON the CLI reads, but evaluate costs
with their own formulas, enumerate paths with their own search, and find
equilibria and optima with a generic constrained minimiser
(``scipy.optimize.minimize``, SLSQP) over path flows:

* the Wardrop equilibrium minimises the Beckmann potential
  ``sum_e int_0^{x_e} c_e``;
* the social optimum minimises the total cost ``sum_e x_e c_e(x_e)``.

Each ``check_*`` function returns a list of human-readable failures; an
empty list means the CLI output agrees with the oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import least_squares, minimize

#: Relative agreement required between CLI values and the oracle solve.
#: Both the program (1e-12 KKT residual by default) and the polished oracle
#: reach about 1e-14 on these instances, so 1e-9 passes at the default
#: tolerances and fails when a solver tolerance is loosened by a few decades.
REL_ORACLE = 1e-9
#: Relative tolerance for identities recomputed exactly from a solve output.
REL_EXACT = 1e-9


# ---------------------------------------------------------------------------
# Cost formulas
# ---------------------------------------------------------------------------


def _poly(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


def _poly_d(coeffs, x):
    return sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k > 0)


def _poly_dd(coeffs, x):
    return sum(k * (k - 1) * c * x ** (k - 2) for k, c in enumerate(coeffs) if k > 1)


def _poly_int(coeffs, x):
    return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))


class EdgeCost:
    """One edge cost: value c(x), slope c'(x), curvature c''(x) and primitive int_0^x c."""

    def __init__(self, frag: dict):
        self.kind = frag["type"]
        if self.kind == "affine":
            self.coeffs = (float(frag["b"]), float(frag["a"]))
        elif self.kind == "poly":
            self.coeffs = tuple(float(c) for c in frag["coeffs"])
        elif self.kind == "bpr":
            self.bpr = tuple(float(frag[k]) for k in ("t0", "cap", "alpha", "beta"))
        elif self.kind == "piecewise":
            self.x0 = float(frag["x0"])
            self.left = tuple(float(c) for c in frag["left"])
            self.right = tuple(float(c) for c in frag["right"])
        else:
            raise ValueError(f"oracle does not know cost type {self.kind!r}")

    def value(self, x):
        if self.kind in ("affine", "poly"):
            return _poly(self.coeffs, x)
        if self.kind == "bpr":
            t0, cap, alpha, beta = self.bpr
            return t0 * (1.0 + alpha * (x / cap) ** beta)
        return _poly(self.left if x <= self.x0 else self.right, x)

    def slope(self, x):
        if self.kind in ("affine", "poly"):
            return _poly_d(self.coeffs, x)
        if self.kind == "bpr":
            t0, cap, alpha, beta = self.bpr
            return t0 * alpha * beta * (x / cap) ** (beta - 1.0) / cap
        return _poly_d(self.left if x <= self.x0 else self.right, x)

    def curvature(self, x):
        if self.kind in ("affine", "poly"):
            return _poly_dd(self.coeffs, x)
        if self.kind == "bpr":
            t0, cap, alpha, beta = self.bpr
            if beta == 1.0 or (x == 0.0 and beta < 2.0):
                # Zero, or the one-sided limit is infinite; the curvature
                # only steers the polishing step, so 0 serves for both.
                return 0.0
            return t0 * alpha * beta * (beta - 1.0) * (x / cap) ** (beta - 2.0) / (cap * cap)
        return _poly_dd(self.left if x <= self.x0 else self.right, x)

    def primitive(self, x):
        if self.kind in ("affine", "poly"):
            return _poly_int(self.coeffs, x)
        if self.kind == "bpr":
            t0, cap, alpha, beta = self.bpr
            return t0 * x + t0 * alpha * cap / (beta + 1.0) * (x / cap) ** (beta + 1.0)
        if x <= self.x0:
            return _poly_int(self.left, x)
        return (_poly_int(self.left, self.x0) + _poly_int(self.right, x)
                - _poly_int(self.right, self.x0))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _simple_paths(out_edges, origin, dest):
    found = []

    def walk(v, seen, trail):
        if v == dest:
            found.append(tuple(trail))
            return
        for eid, head in out_edges.get(v, ()):
            if head not in seen:
                walk(head, seen | {head}, trail + [eid])

    walk(origin, {origin}, [])
    return sorted(found)


@dataclass
class Instance:
    edge_ids: list
    costs: list  # EdgeCost per edge
    od_ids: list
    path_ids: list  # "<od>#<i>", the CLI's naming
    delta: np.ndarray  # edges x paths, 0/1
    od_of_path: np.ndarray  # per path, OD index
    demand: dict

    def mu(self, t: float) -> np.ndarray:
        d = self.demand
        if d["type"] == "linear":
            return t * np.asarray(d["rates"], dtype=float)
        if d["type"] == "affine":
            return t * np.asarray(d["slope"], dtype=float) + np.asarray(d["intercept"], dtype=float)
        raise ValueError(f"oracle does not know demand type {d['type']!r}")

    def values(self, x):
        return np.array([c.value(max(v, 0.0)) for c, v in zip(self.costs, x)])

    def slopes(self, x):
        return np.array([c.slope(max(v, 0.0)) for c, v in zip(self.costs, x)])

    def curvatures(self, x):
        return np.array([c.curvature(max(v, 0.0)) for c, v in zip(self.costs, x)])

    def marginals(self, x):
        """Marginal edge costs c(x) + x c'(x), the optimum's edge prices."""
        xp = np.maximum(x, 0.0)
        return self.values(x) + xp * self.slopes(x)

    def marginal_slopes(self, x):
        """Derivatives 2 c'(x) + x c''(x) of the marginal edge costs."""
        xp = np.maximum(x, 0.0)
        return 2.0 * self.slopes(x) + xp * self.curvatures(x)


def load_instance(path) -> Instance:
    with open(path) as fh:
        doc = json.load(fh)
    edge_ids = [e["id"] for e in doc["edges"]]
    out_edges = {}
    for e in doc["edges"]:
        out_edges.setdefault(e["tail"], []).append((e["id"], e["head"]))
    for lst in out_edges.values():
        lst.sort()
    row = {eid: i for i, eid in enumerate(edge_ids)}
    cols, path_ids, od_of_path, od_ids = [], [], [], []
    for h, com in enumerate(doc["commodities"]):
        od_ids.append(com["id"])
        paths = com["paths"]
        if paths == "auto":
            paths = _simple_paths(out_edges, com["origin"], com["destination"])
        for i, seq in enumerate(paths):
            col = np.zeros(len(edge_ids))
            col[[row[eid] for eid in seq]] = 1.0
            cols.append(col)
            path_ids.append(f"{com['id']}#{i}")
            od_of_path.append(h)
    return Instance(edge_ids, [EdgeCost(e["cost"]) for e in doc["edges"]], od_ids,
                    path_ids, np.column_stack(cols), np.asarray(od_of_path), doc["demand"])


# ---------------------------------------------------------------------------
# Generic minimiser
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    f: np.ndarray
    x: np.ndarray
    lam: np.ndarray  # per-OD cheapest path cost in the game that was solved
    sc: float  # total cost sum_e x_e c_e(x_e) in the original game


def _minimise(inst: Instance, mu, objective, edge_cost, edge_cost_slope) -> np.ndarray:
    """Path flows minimising ``objective`` over the demand simplex.

    SLSQP stops on objective change, which bounds the flows only to about
    the square root of machine precision.  The result is then polished on
    its support by solving ``path cost = lambda_h`` and the demand rows with
    Levenberg-Marquardt, which tolerates the rank-deficient systems that
    non-unique path decompositions give.  ``edge_cost_slope`` is the
    derivative of ``edge_cost``, for the polishing step's Jacobian.
    """
    n_p, n_h = len(inst.path_ids), len(inst.od_ids)
    s = np.zeros((n_h, n_p))
    s[inst.od_of_path, np.arange(n_p)] = 1.0
    f0 = mu[inst.od_of_path] / s.sum(axis=1)[inst.od_of_path]
    res = minimize(
        lambda f: objective(inst.delta @ f),
        f0,
        jac=lambda f: inst.delta.T @ edge_cost(inst.delta @ f),
        method="SLSQP",
        bounds=[(0.0, None)] * n_p,
        constraints=[{"type": "eq", "fun": lambda f: s @ f - mu, "jac": lambda f: s}],
        options={"ftol": 1e-16, "maxiter": 2000},
    )
    if not res.success and "Positive directional derivative" not in res.message:
        # SLSQP reports the line-search stall it hits once the iterate is
        # already optimal to machine precision; anything else is a failure.
        raise RuntimeError(f"oracle minimiser failed: {res.message}")
    f = np.maximum(res.x, 0.0)
    on = np.flatnonzero(f > 1e-9 * (1.0 + mu[inst.od_of_path]))
    if on.size == 0:
        return f
    d_on, s_on = inst.delta[:, on], s[:, on]
    pc = d_on.T @ edge_cost(d_on @ f[on])
    lam0 = np.array([pc[s_on[h] > 0].min(initial=0.0) for h in range(n_h)])

    def stationarity(z):
        fv, lv = z[:on.size], z[on.size:]
        return np.concatenate([d_on.T @ edge_cost(d_on @ fv) - s_on.T @ lv, s_on @ fv - mu])

    def jacobian(z):
        hess = d_on.T @ (edge_cost_slope(d_on @ z[:on.size])[:, None] * d_on)
        return np.block([[hess, -s_on.T], [s_on, np.zeros((n_h, n_h))]])

    sol = least_squares(stationarity, np.concatenate([f[on], lam0]), jac=jacobian,
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    polished = np.zeros(n_p)
    polished[on] = sol.x[:on.size]
    if np.min(polished) >= 0.0 and np.max(np.abs(sol.fun)) < np.max(np.abs(stationarity(
            np.concatenate([f[on], lam0])))):
        return polished
    return f


def _finish(inst, mu, f, marginal: bool) -> Solution:
    x = inst.delta @ f
    c = inst.values(x)
    pc = inst.delta.T @ (inst.marginals(x) if marginal else c)
    lam = np.array([pc[inst.od_of_path == h].min() for h in range(len(inst.od_ids))])
    return Solution(f=f, x=x, lam=lam, sc=float(x @ c))


def equilibrium(inst: Instance, mu) -> Solution:
    """Wardrop equilibrium: minimise the Beckmann potential."""
    mu = np.asarray(mu, dtype=float)
    f = _minimise(inst, mu,
                  lambda x: sum(c.primitive(max(v, 0.0)) for c, v in zip(inst.costs, x)),
                  inst.values, inst.slopes)
    return _finish(inst, mu, f, marginal=False)


def optimum(inst: Instance, mu) -> Solution:
    """Social optimum: minimise the total cost sum_e x_e c_e(x_e)."""
    mu = np.asarray(mu, dtype=float)
    f = _minimise(inst, mu,
                  lambda x: float(np.maximum(x, 0.0) @ inst.values(x)),
                  inst.marginals, inst.marginal_slopes)
    return _finish(inst, mu, f, marginal=True)


# ---------------------------------------------------------------------------
# Checks on CLI output
# ---------------------------------------------------------------------------


def _close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(b))


def check_sweep_csv(inst: Instance, path) -> tuple:
    """Compare every sweep row with the oracle; returns (failures, t values)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fails, ts = [], []
    if not lines or lines[0] != "#schema=poa-sweep-v1":
        return [f"{path}: missing sweep schema line"], ts
    for row in csv.DictReader(lines[1:]):
        t = float(row["t"])
        ts.append(t)
        where = f"{path} t={t:.17g}"
        mu = inst.mu(t)
        for h, od in enumerate(inst.od_ids):
            if not _close(float(row[f"mu_{od}"]), mu[h], REL_EXACT):
                fails.append(f"{where}: mu_{od} {row[f'mu_{od}']} != {mu[h]!r}")
        eq, opt = equilibrium(inst, mu), optimum(inst, mu)
        sc_eq, sc_opt, poa = float(row["sc_eq"]), float(row["sc_opt"]), float(row["poa"])
        if not _close(sc_eq, eq.sc, REL_ORACLE):
            fails.append(f"{where}: sc_eq {sc_eq!r} vs oracle {eq.sc!r}")
        if not _close(sc_opt, opt.sc, REL_ORACLE):
            fails.append(f"{where}: sc_opt {sc_opt!r} vs oracle {opt.sc!r}")
        for h, od in enumerate(inst.od_ids):
            lam = float(row[f"lambda_{od}"])
            if not _close(lam, eq.lam[h], REL_ORACLE):
                fails.append(f"{where}: lambda_{od} {lam!r} vs oracle {eq.lam[h]!r}")
        if np.any(mu > 0):
            if not _close(poa, sc_eq / sc_opt, REL_EXACT):
                fails.append(f"{where}: poa {poa!r} != sc_eq/sc_opt")
            if poa < 1.0 - REL_EXACT:
                fails.append(f"{where}: poa {poa!r} < 1")
        regime = set(row["regime"].split(";"))
        used = {pid for pid, fv, h in zip(inst.path_ids, eq.f, inst.od_of_path)
                if fv > 1e-6 * (1.0 + mu[h])}
        if not used <= regime:
            fails.append(f"{where}: oracle uses {sorted(used - regime)} outside regime")
    return fails, ts


def check_solve_json(inst: Instance, path) -> tuple:
    """Wardrop check recomputed from one solve report; returns (failures, t)."""
    with open(path) as fh:
        rep = json.load(fh)
    t = float(rep["t"])
    where = f"{path} t={t:.17g}"
    fails = []
    mu = inst.mu(t)
    f = np.array([rep["flows"][pid] for pid in inst.path_ids])
    x = np.array([rep["loads"][eid] for eid in inst.edge_ids])
    tau = np.array([rep["edge_costs"][eid] for eid in inst.edge_ids])
    scale = 1.0 + float(np.max(mu, initial=0.0))
    if np.min(f, initial=0.0) < 0.0:
        fails.append(f"{where}: negative path flow")
    for h, od in enumerate(inst.od_ids):
        if abs(f[inst.od_of_path == h].sum() - mu[h]) > REL_EXACT * scale:
            fails.append(f"{where}: flows of {od} do not meet demand {mu[h]!r}")
    if np.max(np.abs(inst.delta @ f - x)) > REL_EXACT * scale:
        fails.append(f"{where}: loads differ from Delta f")
    own = inst.values(x)
    if np.max(np.abs(own - tau) / (1.0 + np.abs(own))) > REL_EXACT:
        fails.append(f"{where}: edge costs differ from the cost formulas at the loads")
    pc = inst.delta.T @ own
    for h, od in enumerate(inst.od_ids):
        mine = inst.od_of_path == h
        best = pc[mine].min()
        worst_used = pc[mine & (f > 0.0)].max(initial=best)
        if worst_used - best > REL_EXACT * (1.0 + abs(best)):
            fails.append(f"{where}: {od} uses a path {worst_used - best:.3e} above its cheapest")
        if not _close(rep["lambda"][od], best, REL_EXACT):
            fails.append(f"{where}: lambda {od} {rep['lambda'][od]!r} vs cheapest {best!r}")
    sc = float(x @ own)
    if not _close(rep["sc_eq"], sc, REL_EXACT):
        fails.append(f"{where}: sc_eq {rep['sc_eq']!r} vs sum x c(x) {sc!r}")
    opt = optimum(inst, mu)
    if rep.get("sc_opt") is None or not _close(rep["sc_opt"], opt.sc, REL_ORACLE):
        fails.append(f"{where}: sc_opt {rep.get('sc_opt')!r} vs oracle {opt.sc!r}")
    elif rep["poa"] < 1.0 - REL_EXACT or not _close(rep["poa"], rep["sc_eq"] / rep["sc_opt"],
                                                      REL_EXACT):
        fails.append(f"{where}: poa {rep['poa']!r} inconsistent with sc_eq/sc_opt")
    return fails, t


# ---------------------------------------------------------------------------
# Breakpoint closed forms
# ---------------------------------------------------------------------------

#: Transitions inside each scanned range, with their one-sided derivatives.
#: fisk: below t = 11 all of OD ac takes its direct link, so
#: sc = 10001 + 90 t + t^2 (slope 112); above, the detour carries (t - 11) / 3
#: (slope 142).  The optimum keeps the direct link until t = 56, so
#: sc_opt' = 112 on both sides and poa' = (142 - 112) / 11112 on the right.
#: pigou: sc = t^2 below 1 and t above; sc_opt = t - 1/4 there.
#: fig1 at 1: the zig-zag path alone gives sc = 4t^2/3; with the upper path
#: sc = t (t/3 + 1), and sc_opt = t^2/3 + t - 1/4.  fig1 at 3: the lower path
#: joins at cost 2, so sc = 2t on the right; sc_opt = t^2/4 + t there.
#:
#: ``tol_t`` is the allowed location error.  The CLI bisects to 1e-7, but a
#: path counts as active once its cost gap is below eps_active (1e-7) times
#: 1 + lambda, so the reported point comes early by that gap over its slope:
#: 2e-7 on pigou, up to 9e-7 on fig1, and 1.02e-5 on fisk (lambda = 101).
BREAKPOINTS = {
    "fisk": [{"t": 11.0, "tol_t": 2e-5, "relation": "expansion",
              "sc_prime": (Fraction(112), Fraction(142)),
              "poa_prime": (Fraction(0), Fraction(5, 1852))}],
    "pigou": [{"t": 1.0, "tol_t": 1e-6, "relation": "expansion",
               "sc_prime": (Fraction(2), Fraction(1)),
               "poa_prime": (Fraction(8, 9), Fraction(-4, 9))}],
    "fig1": [{"t": 1.0, "tol_t": 2e-6, "relation": "expansion",
              "sc_prime": (Fraction(8, 3), Fraction(5, 3)),
              "poa_prime": (Fraction(96, 169), Fraction(-60, 169))},
             {"t": 3.0, "tol_t": 2e-6, "relation": "expansion",
              "sc_prime": (Fraction(3), Fraction(2)),
              "poa_prime": (Fraction(4, 147), Fraction(-8, 49))}],
}

#: Derivatives are evaluated at the reported point, which is early by up to
#: tol_t, so they carry a relative error of the same order.
REL_DERIV = 1e-6


def check_breakpoints_json(name: str, path) -> tuple:
    """Check one breakpoint report list; returns (failures, probed t values)."""
    with open(path) as fh:
        reports = json.load(fh)
    fails = []
    ts = [r["t"] for r in reports]
    if name == "wheatstone":
        # The paper's theorem: under proportional demand, the smaller active
        # set never has the smaller derivative.
        if not reports:
            fails.append(f"{path}: no transition found on wheatstone")
        for r in reports:
            if r["verdict"] == "violated":
                fails.append(f"{path}: verdict violated at t={r['t']!r}")
        return fails, ts
    expected = BREAKPOINTS[name]
    if len(reports) != len(expected):
        return [f"{path}: {len(reports)} transitions, expected {len(expected)}"], ts
    for r, exp in zip(reports, expected):
        where = f"{path} t={r['t']!r}"
        if abs(r["t"] - exp["t"]) > exp["tol_t"]:
            fails.append(f"{where}: expected a transition at {exp['t']}")
        if r["relation"] != exp["relation"]:
            fails.append(f"{where}: relation {r['relation']} != {exp['relation']}")
        for key in ("sc_prime", "poa_prime"):
            for side, want in zip(("left", "right"), exp[key]):
                got = r[key][side]
                if got is None or not math.isclose(got, float(want), rel_tol=REL_DERIV,
                                                   abs_tol=REL_DERIV * 1e-3):
                    fails.append(f"{where}: {key} {side} {got!r} != {want}")
    return fails, ts
