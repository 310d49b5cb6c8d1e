"""One-sided derivatives of equilibrium quantities along a demand curve.

At a demand value where the active path set changes, the equilibrium cost,
total cost, and efficiency ratio typically have distinct left and right
derivatives.  Each side is characterized by an equality-constrained
quadratic program over flow directions supported on that side's active set;
its multipliers are the one-sided derivatives of the per-OD equilibrium
costs.  This module solves those programs, scans demand ranges for the
transition points, and classifies the derivative jumps.

The scan and the classification solve many nearby demands on one instance.
Each probe after the first is warm-started from an earlier solution (see
``start`` in :func:`~poaphases.equilibrium.solve_equilibrium`), so the
instance is prepared once per scan and once per transition, and each probe
begins from a nearby support.  The probes, and so the points and regimes
reported, are the same as with cold solves.  A transition's classification
solves the equilibrium and the optimum at t-bar once for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import AffineCost, BPRCost, build_cost_table
from .equilibrium import (
    DEFAULT_OPTIONS,
    EquilibriumResult,
    NonConvexCostError,
    Prepared,
    SolverError,
    SolverOptions,
    solve_equilibrium,
    solve_social_optimum,
)
from .fixed_regime import regime_indices, solve_fixed_regime
from .model import Incidence, LinearDemand, build_incidence


class SensitivityError(RuntimeError):
    pass


def flow_selection_pseudoinverse(inc: Incidence, f0, x0, mu0, x, mu,
                                 tol: float = 1e-9) -> np.ndarray:
    """Least-norm flow correction reaching target loads and demands.

    Returns f0 plus the minimal-norm solution of the stacked linear system
    mapping flow changes to (load change, demand change).  Errors when the
    target is not reachable from any flow.
    """
    f0 = np.asarray(f0, dtype=float)
    rhs = np.concatenate([
        np.asarray(x, dtype=float) - np.asarray(x0, dtype=float),
        np.asarray(mu, dtype=float) - np.asarray(mu0, dtype=float),
    ])
    stacked = np.vstack([inc.delta, inc.s])
    df = np.linalg.pinv(stacked) @ rhs
    resid = float(np.max(np.abs(stacked @ df - rhs), initial=0.0))
    if resid > tol * (1.0 + np.max(np.abs(rhs), initial=0.0)):
        raise SensitivityError(
            f"target loads/demands are not attainable by any flow: residual {resid:.3e}"
        )
    return f0 + df


@dataclass
class QPResult:
    y: np.ndarray  # per-path direction, zero off regime
    z: np.ndarray  # per-edge direction z = Delta y
    theta: float  # sum_e c'_e z_e^2
    qp_value: float  # half of theta (the quadratic objective at y)
    m: np.ndarray  # per-OD multipliers = one-sided derivatives of lambda


def theta_qp(net, commodities, x_bar, regime, rates,
             opts: SolverOptions = DEFAULT_OPTIONS,
             prep: Prepared | None = None) -> QPResult:
    """Minimize (1/2) sum_e c'_e(x_bar) z_e^2 over regime-supported directions.

    The equality constraints force the per-OD direction sums to `rates`.
    Solved as one KKT linear system; singular systems get the minimal-norm
    solution, which leaves z, the value, and the multipliers unchanged.
    ``prep``, the prepared data of an equilibrium (not an optimum) on the
    same instance and options, supplies the incidence and cost table instead
    of building them again.
    """
    if prep is None:
        inc = build_incidence(net, commodities)
        table = build_cost_table(net.costs)
    else:
        inc, table = prep.inc, prep.table
    x_bar = np.asarray(x_bar, dtype=float)
    rates = np.asarray(rates, dtype=float)
    idx = regime_indices(inc, regime)
    delta_r = inc.delta[:, idx]
    s_r = inc.s[:, idx]
    slopes = table.derivs(np.maximum(x_bar, 0.0))
    q = delta_r.T @ (slopes[:, None] * delta_r)
    k, h = len(idx), inc.n_ods
    kkt = np.zeros((k + h, k + h))
    kkt[:k, :k] = q
    kkt[:k, k:] = -s_r.T
    kkt[k:, :k] = s_r
    rhs = np.concatenate([np.zeros(k), rates])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    y_r, m = sol[:k], sol[k:]
    feas = np.max(np.abs(s_r @ y_r - rates), initial=0.0)
    if feas > 1e-10 * (1.0 + np.max(np.abs(rates), initial=0.0)):
        raise SensitivityError(f"direction QP constraints unsatisfied: residual {feas:.3e}")
    y = np.zeros(inc.n_paths)
    y[idx] = y_r
    z = inc.delta @ y
    theta = float(slopes @ z**2)
    return QPResult(y=y, z=z, theta=theta, qp_value=0.5 * theta, m=m)


@dataclass
class SensitivityResult:
    side: str  # "left" or "right"
    t: float
    regime: tuple
    y: np.ndarray
    z: np.ndarray
    theta: float
    lam_prime: np.ndarray  # per OD
    sc_prime: float
    sc_opt_prime: float | None
    poa_prime: float | None
    sc_eq: float
    sc_opt: float | None
    notes: tuple = ()


def _probe(net, commodities, curve, t, opts, start=None) -> EquilibriumResult:
    return solve_equilibrium(net, commodities, curve.mu(t), opts, start=start)


def _regime(res: EquilibriumResult) -> tuple:
    return tuple(sorted(res.regime))


def _solve_at(net, commodities, curve, t_bar, opts):
    """Equilibrium and optimum at t_bar, shared by both sides of a transition.

    The optimum is None, with a note saying why, when its transform is refused.
    """
    mu_bar = curve.mu(t_bar)
    eq = solve_equilibrium(net, commodities, mu_bar, opts)
    try:
        return eq, solve_social_optimum(net, commodities, mu_bar, opts), None
    except NonConvexCostError as exc:
        return eq, None, f"optimum unavailable: {exc}"


def _one_side(net, commodities, curve, t_bar, side, eps, opts,
              eq, opt, opt_note) -> SensitivityResult:
    sign = -1.0 if side == "left" else 1.0
    # The regime probes start from the solution at t_bar.
    r1 = _regime(_probe(net, commodities, curve, t_bar + sign * eps, opts, eq))
    r2 = _regime(_probe(net, commodities, curve, t_bar + sign * 2 * eps, opts, eq))
    if r1 != r2:
        raise SensitivityError(
            f"active set not locally constant on the {side} of t={t_bar}: "
            f"{r1} at offset {eps:g} vs {r2} at {2 * eps:g}"
        )
    mu_bar = curve.mu(t_bar)
    d_left, d_right = curve.derivative(t_bar)
    rates = d_left if side == "left" else d_right
    qp = theta_qp(net, commodities, eq.x, r1, rates, opts, prep=eq.prep)
    sc_prime = float(rates @ eq.lam + mu_bar @ qp.m)
    notes = []
    if not isinstance(curve, LinearDemand):
        notes.append("extension: guarantees proven only for proportional demand")
    if any(isinstance(e.cost, BPRCost) for e in net.edges):
        notes.append("heuristic: zero-slope-at-origin costs lack smoothness guarantees")
    if opt is None:
        sc_opt = sc_opt_prime = poa_prime = None
        notes.append(opt_note)
    else:
        sc_opt = opt.sc
        # The optimum's multipliers are the gradient of the optimal social cost.
        sc_opt_prime = float(rates @ opt.lam)
        poa_prime = (sc_prime * sc_opt - eq.sc * sc_opt_prime) / sc_opt**2 if sc_opt > 0 else None
    return SensitivityResult(
        side=side, t=float(t_bar), regime=r1, y=qp.y, z=qp.z, theta=qp.theta,
        lam_prime=qp.m, sc_prime=sc_prime, sc_opt_prime=sc_opt_prime,
        poa_prime=poa_prime, sc_eq=eq.sc, sc_opt=sc_opt, notes=tuple(notes),
    )


def one_sided_derivatives(net, commodities, curve, t_bar, side,
                          eps_probe: float | None = None,
                          opts: SolverOptions = DEFAULT_OPTIONS) -> SensitivityResult:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    eps = eps_probe if eps_probe is not None else 1e-4 * (1.0 + abs(t_bar))
    return _one_side(net, commodities, curve, t_bar, side, eps, opts,
                     *_solve_at(net, commodities, curve, t_bar, opts))


def locate_breakpoints(net, commodities, curve, t_range, grid_n: int = 101,
                       tol_t: float = 1e-7,
                       opts: SolverOptions = DEFAULT_OPTIONS) -> list:
    """Scan a demand interval for active-set transition points.

    Samples the active set on a uniform grid and bisects every adjacent pair
    that disagrees.  Points where the set merely touches a different value
    (identical sets just left and right) are discarded.  Transitions finer
    than the grid spacing can be missed; refine with a larger grid_n.

    Every probe after the first is warm-started: a grid point from the one
    before it, a bisection midpoint from the bracket's lower end, and the
    two confirmation probes of a transition from the bracket end on their
    side.  A warm start reaches the equilibrium a cold solve reaches, so the
    probes and the regimes they find are unchanged; only the work falls.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise ValueError("need finite t0 < t1")
    if grid_n < 2:
        raise ValueError("need grid_n >= 2")
    if not (np.isfinite(tol_t) and tol_t > 0):
        raise ValueError("need a finite tol_t > 0")
    grid = np.linspace(t0, t1, grid_n)
    sols = []
    for t in grid:
        sols.append(_probe(net, commodities, curve, t, opts, sols[-1] if sols else None))
    regimes = [_regime(r) for r in sols]
    found = []
    for k in range(grid_n - 1):
        if regimes[k] == regimes[k + 1]:
            continue
        lo, hi, rlo = grid[k], grid[k + 1], regimes[k]
        s_lo, s_hi = sols[k], sols[k + 1]
        while hi - lo > tol_t:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # tol_t is below the float spacing at this t
            s_mid = _probe(net, commodities, curve, mid, opts, s_lo)
            if _regime(s_mid) == rlo:
                lo, s_lo = mid, s_mid
            else:
                hi, s_hi = mid, s_mid
        found.append((0.5 * (lo + hi), s_lo, s_hi))
    # Merge near-duplicates and drop isolated touch points.
    out = []
    for t, s_lo, s_hi in found:
        if out and abs(t - out[-1]) <= 10 * tol_t:
            continue
        delta = max(100 * tol_t, 1e-6 * (1.0 + abs(t)))
        left = _regime(_probe(net, commodities, curve, t - delta, opts, s_lo))
        right = _regime(_probe(net, commodities, curve, t + delta, opts, s_hi))
        if left != right:
            out.append(t)
    return out


@dataclass
class BreakpointReport:
    t: float
    eps_probe: float
    regime_left: tuple
    regime_right: tuple
    relation: str  # expansion | contraction | equal | incomparable
    theta_left: float
    theta_right: float
    sc_prime_left: float
    sc_prime_right: float
    poa_prime_left: float | None
    poa_prime_right: float | None
    lam_prime_left: tuple
    lam_prime_right: tuple
    verdict: str  # consistent-weak | consistent-strict | violated | not-applicable
    annotations: tuple = ()

    def to_json_dict(self, od_ids=None) -> dict:
        lam = {"left": list(self.lam_prime_left), "right": list(self.lam_prime_right)}
        if od_ids is not None:
            lam = {
                side: dict(zip(od_ids, vals))
                for side, vals in (("left", self.lam_prime_left), ("right", self.lam_prime_right))
            }
        return {
            "t": self.t,
            "eps_probe": self.eps_probe,
            "regime_left": sorted(self.regime_left),
            "regime_right": sorted(self.regime_right),
            "relation": self.relation,
            "theta": {"left": self.theta_left, "right": self.theta_right},
            "sc_prime": {"left": self.sc_prime_left, "right": self.sc_prime_right},
            "poa_prime": {"left": self.poa_prime_left, "right": self.poa_prime_right},
            "lambda_prime": lam,
            "verdict": self.verdict,
            "annotations": list(self.annotations),
        }


def _containment(left: set, right: set) -> str:
    if left == right:
        return "equal"
    if left < right:
        return "expansion"
    if left > right:
        return "contraction"
    return "incomparable"


def classify_breakpoint(net, commodities, curve, t_bar,
                        eps_probe: float | None = None,
                        opts: SolverOptions = DEFAULT_OPTIONS,
                        rel_tol: float = 1e-6,
                        strict_margin: float = 1e-8) -> BreakpointReport:
    """Compare left/right derivative data at an active-set transition.

    For proportional (single-ray) demand with a nested transition, checks the
    smaller-active-set-has-the-larger-derivative property: weak inequalities
    for smooth strictly increasing costs, strict ones when every cost is
    affine.  Anything outside that scope is reported as observations only.
    """
    eps = eps_probe if eps_probe is not None else 1e-4 * (1.0 + abs(t_bar))
    at = _solve_at(net, commodities, curve, t_bar, opts)
    left = _one_side(net, commodities, curve, t_bar, "left", eps, opts, *at)
    right = _one_side(net, commodities, curve, t_bar, "right", eps, opts, *at)
    relation = _containment(set(left.regime), set(right.regime))
    annotations = list(dict.fromkeys(left.notes + right.notes))

    linear = isinstance(curve, LinearDemand)
    all_affine = all(isinstance(e.cost, AffineCost) for e in net.edges)
    verdict = "not-applicable"
    if linear and relation in ("expansion", "contraction"):
        # Smaller active set on the left for an expansion, right for a contraction.
        if relation == "expansion":
            diffs = [left.sc_prime - right.sc_prime]
            if left.poa_prime is not None and right.poa_prime is not None:
                diffs.append(left.poa_prime - right.poa_prime)
        else:
            diffs = [right.sc_prime - left.sc_prime]
            if left.poa_prime is not None and right.poa_prime is not None:
                diffs.append(right.poa_prime - left.poa_prime)
        scale = 1.0 + max(abs(left.sc_prime), abs(right.sc_prime))
        if any(d < -rel_tol * scale for d in diffs):
            verdict = "violated"
        elif all_affine and all(d > strict_margin for d in diffs):
            verdict = "consistent-strict"
        else:
            verdict = "consistent-weak"
    elif relation in ("expansion", "contraction"):
        # Outside the proven scope; still note when the direction reverses.
        if relation == "expansion":
            diff = left.sc_prime - right.sc_prime
        else:
            diff = right.sc_prime - left.sc_prime
        if diff < -rel_tol * (1.0 + max(abs(left.sc_prime), abs(right.sc_prime))):
            annotations.append("ordering-direction reversed; demand not proportional")
    return BreakpointReport(
        t=float(t_bar), eps_probe=eps,
        regime_left=left.regime, regime_right=right.regime, relation=relation,
        theta_left=left.theta, theta_right=right.theta,
        sc_prime_left=left.sc_prime, sc_prime_right=right.sc_prime,
        poa_prime_left=left.poa_prime, poa_prime_right=right.poa_prime,
        lam_prime_left=tuple(left.lam_prime), lam_prime_right=tuple(right.lam_prime),
        verdict=verdict, annotations=tuple(annotations),
    )


def affine_parametric_equilibrium(net, commodities, curve: LinearDemand, regime,
                                  t_interval, tol: float = 1e-8):
    """Coefficients (w, z) with flows f(t) = w t + z on a fixed active set.

    Requires affine costs and proportional demand; the restricted solves at
    the interval endpoints determine the line, and the midpoint verifies it.
    Flows are normalized to the least-norm decomposition of their loads so
    the line is well defined even when decompositions are not unique.
    """
    if not all(isinstance(e.cost, AffineCost) for e in net.edges):
        raise SensitivityError("parametric form requires affine costs on every edge")
    if not isinstance(curve, LinearDemand):
        raise SensitivityError("parametric form requires proportional demand")
    inc = build_incidence(net, commodities)
    t0, t1 = float(t_interval[0]), float(t_interval[1])
    if t1 <= t0:
        raise SensitivityError("need t1 > t0")

    def norm_flows(t):
        sol = solve_fixed_regime(net, commodities, regime, curve.mu(t))
        return flow_selection_pseudoinverse(
            inc,
            np.zeros(inc.n_paths),
            np.zeros(inc.n_edges),
            np.zeros(inc.n_ods),
            sol.x,
            curve.mu(t),
        )

    f0 = norm_flows(t0)
    f1 = norm_flows(t1)
    w = (f1 - f0) / (t1 - t0)
    z = f0 - w * t0
    tm = 0.5 * (t0 + t1)
    fm = norm_flows(tm)
    resid = float(np.max(np.abs(w * tm + z - fm), initial=0.0))
    if resid > tol * (1.0 + np.max(np.abs(fm), initial=0.0)):
        raise SensitivityError(
            f"flows are not affine on the interval (residual {resid:.3e}); "
            "the active set likely changes inside it"
        )
    return w, z
