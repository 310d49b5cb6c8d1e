"""Relaxed restricted-support routing problems with signed flows.

Given a regime (a path subset hitting every OD pair), the relaxed problem
minimizes the congestion potential over flows supported on the regime with
the sign constraint dropped.  Costs are linearly extended to negative loads
so the problem stays well posed.  The KKT system is solved by a damped
Newton method in flow coordinates; singular Jacobians get least-squares
(minimal-norm) steps, which leaves the loads and multipliers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import build_cost_table
from .model import Incidence, ModelError, build_incidence


class FixedRegimeError(RuntimeError):
    """Newton failure or ill-posed restricted problem."""


def regime_indices(inc: Incidence, regime) -> np.ndarray:
    """Sorted column indices of the regime's paths; validates OD coverage."""
    idx = sorted(inc.path_index(pid) for pid in regime)
    if len(set(idx)) != len(idx):
        raise ModelError("regime contains duplicate path ids")
    covered = set(inc.od_of_path(j) for j in idx)
    if covered != set(range(inc.n_ods)):
        missing = [inc.od_ids[h] for h in range(inc.n_ods) if h not in covered]
        raise ModelError(f"regime misses OD pairs: {missing}")
    return np.asarray(idx, dtype=int)


def _newton_kkt(table, delta_r, s_r, rhs, f0, lam0, offset, *,
                tol_res=1e-12, tol_step=1e-9, max_iters=80):
    """Damped Newton on the stationarity system of the restricted problem.

    Unknowns are (f, lam); the residual stacks
      delta_r^T c(delta_r f + offset) - s_r^T lam   (path-cost levelling)
      s_r f - rhs                                   (demand balance)
    Returns (f, lam, x, res_inf, iters, converged).
    """
    n_e = delta_r.shape[0]
    k = delta_r.shape[1]
    h = s_r.shape[0]
    f = np.array(f0, dtype=float)
    lam = np.array(lam0, dtype=float)
    cbuf = np.empty(n_e)
    dbuf = np.empty(n_e)

    def residual(fv, lv):
        x = delta_r @ fv + offset
        table.values(x, out=cbuf)
        r1 = delta_r.T @ cbuf - s_r.T @ lv
        r2 = s_r @ fv - rhs
        return np.concatenate([r1, r2]), x

    res, x = residual(f, lam)
    res_norm = np.max(np.abs(res), initial=0.0)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        table.derivs(x, out=dbuf)
        q = delta_r.T @ (dbuf[:, None] * delta_r)
        jac = np.zeros((k + h, k + h))
        jac[:k, :k] = q
        jac[:k, k:] = -s_r.T
        jac[k:, :k] = s_r
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        # Guard against a solve that "succeeded" on a singular matrix.
        if np.max(np.abs(jac @ step + res)) > 1e-8 * (1.0 + res_norm):
            step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        alpha = 1.0
        accepted = False
        for _ in range(40):
            f_try = f + alpha * step[:k]
            lam_try = lam + alpha * step[k:]
            res_try, x_try = residual(f_try, lam_try)
            norm_try = np.max(np.abs(res_try), initial=0.0)
            if norm_try <= res_norm * (1 - 1e-4 * alpha) or norm_try < tol_res:
                f, lam, res, x, res_norm = f_try, lam_try, res_try, x_try, norm_try
                accepted = True
                break
            alpha *= 0.5
        # Measure the step on the loads and multipliers only: on a singular
        # regime the flows are not unique and a null-space step moves them
        # without changing anything the solution is judged by.
        step_norm = alpha * max(np.max(np.abs(delta_r @ step[:k]), initial=0.0),
                                np.max(np.abs(step[k:]), initial=0.0))
        if res_norm <= tol_res and step_norm <= tol_step:
            converged = True
            break
        if not accepted:
            # No descent available: stationary for the damped iteration.
            converged = res_norm <= tol_res
            break
    return f, lam, x, res_norm, it, converged


@dataclass
class RelaxedSolution:
    regime: tuple
    f: np.ndarray  # full path vector, exact zeros off regime
    x: np.ndarray  # per-edge loads, may be negative
    m: np.ndarray  # per-OD path-cost levels
    eta: np.ndarray  # per-edge costs at the solution loads
    nu: dict  # off-regime path id -> reduced cost sum(eta on path) - m
    residual: float
    iters: int


@dataclass
class WardropConsistency:
    nonneg_flows: bool
    no_cheaper_outside: bool

    @property
    def overall(self) -> bool:
        return self.nonneg_flows and self.no_cheaper_outside


def _prepare(net, commodities):
    inc = build_incidence(net, commodities)
    table = build_cost_table(net.costs)
    return inc, table


def _initial_flow(inc, idx, mu):
    """Spread each OD's demand equally over its regime paths."""
    f = np.zeros(len(idx))
    for h in range(inc.n_ods):
        own = [i for i, j in enumerate(idx) if inc.od_of_path(j) == h]
        f[own] = mu[h] / len(own)
    return f


def solve_fixed_regime(net, commodities, regime, mu, *,
                       f_start=None, lam_start=None,
                       tol_res: float = 1e-12, tol_step: float = 1e-9,
                       max_iters: int = 80) -> RelaxedSolution:
    """Solve the sign-relaxed restricted problem and extract multipliers."""
    inc, table = _prepare(net, commodities)
    mu = np.asarray(mu, dtype=float)
    idx = regime_indices(inc, regime)
    delta_r = inc.delta[:, idx]
    s_r = inc.s[:, idx]
    f0 = np.asarray(f_start, dtype=float) if f_start is not None else _initial_flow(inc, idx, mu)
    lam0 = np.asarray(lam_start, dtype=float) if lam_start is not None else np.zeros(inc.n_ods)
    offset = np.zeros(inc.n_edges)
    f_r, m, x, res, iters, ok = _newton_kkt(
        table, delta_r, s_r, mu, f0, lam0, offset,
        tol_res=tol_res, tol_step=tol_step, max_iters=max_iters,
    )
    if not ok:
        raise FixedRegimeError(
            f"restricted Newton did not converge: residual {res:.3e} after {iters} iterations"
        )
    f_full = np.zeros(inc.n_paths)
    f_full[idx] = f_r
    eta = table.values(x)
    nu = {}
    rset = set(int(j) for j in idx)
    for j in range(inc.n_paths):
        if j in rset:
            continue
        h = inc.od_of_path(j)
        nu[inc.path_ids[j]] = float(inc.delta[:, j] @ eta - m[h])
    return RelaxedSolution(
        regime=tuple(sorted(regime)), f=f_full, x=x, m=m, eta=eta,
        nu=nu, residual=float(res), iters=iters,
    )


def is_wardrop_consistent(net, commodities, sol: RelaxedSolution,
                          tol: float = 1e-9) -> WardropConsistency:
    inc = build_incidence(net, commodities)
    rset = set(sol.regime)
    on = np.array([pid in rset for pid in inc.path_ids])
    nonneg = bool(np.min(sol.f[on], initial=0.0) >= -tol)
    no_cheaper = True
    for j in range(inc.n_paths):
        if on[j]:
            continue
        h = inc.od_of_path(j)
        if inc.delta[:, j] @ sol.eta < sol.m[h] - tol * (1 + abs(sol.m[h])):
            no_cheaper = False
            break
    return WardropConsistency(nonneg_flows=nonneg, no_cheaper_outside=no_cheaper)


def perturbed_value(net, commodities, regime, mu, xi=None, omega=None) -> float:
    """Minimum potential with loads shifted by xi and off-regime flows pinned.

    omega maps off-regime path ids to fixed flow values; pinning a regime
    path is rejected.  Substituting the pinned flows turns the problem back
    into a pure restricted solve with adjusted demands and a load offset.
    """
    inc, table = _prepare(net, commodities)
    mu = np.asarray(mu, dtype=float)
    idx = regime_indices(inc, regime)
    rset = set(int(j) for j in idx)
    xi_v = np.zeros(inc.n_edges) if xi is None else np.asarray(xi, dtype=float)
    mu_eff = mu.copy()
    offset = xi_v.copy()
    if omega:
        for pid, w in omega.items():
            j = inc.path_index(pid)
            if j in rset:
                raise ModelError(f"path {pid} is in the regime; only outside flows can be pinned")
            mu_eff[inc.od_of_path(j)] -= w
            offset += w * inc.delta[:, j]
    delta_r = inc.delta[:, idx]
    s_r = inc.s[:, idx]
    f0 = _initial_flow(inc, idx, mu_eff)
    f_r, m, x, res, iters, ok = _newton_kkt(
        table, delta_r, s_r, mu_eff, f0, np.zeros(inc.n_ods), offset,
    )
    if not ok:
        raise FixedRegimeError(f"perturbed restricted solve failed: residual {res:.3e}")
    return float(table.potential(x))


def check_value_gradient(net, commodities, regime, mu, *,
                         h_fd: float = 1e-4, tol_fd: float = 1e-5) -> dict:
    """Central finite differences of the perturbed value vs multipliers.

    Differentiates in every demand coordinate, every load-offset coordinate,
    and every pinned off-regime flow coordinate, comparing against the
    multipliers (m, eta, nu) of the unperturbed restricted solve.
    """
    inc, _ = _prepare(net, commodities)
    mu = np.asarray(mu, dtype=float)
    sol = solve_fixed_regime(net, commodities, regime, mu)

    def val(mu_v, xi_v, omega):
        return perturbed_value(net, commodities, regime, mu_v, xi_v, omega)

    dev_m = 0.0
    for h in range(inc.n_ods):
        e = np.zeros(inc.n_ods)
        e[h] = h_fd
        fd = (val(mu + e, None, None) - val(mu - e, None, None)) / (2 * h_fd)
        dev_m = max(dev_m, abs(fd - sol.m[h]))
    dev_eta = 0.0
    for e_i in range(inc.n_edges):
        xi = np.zeros(inc.n_edges)
        xi[e_i] = h_fd
        fd = (val(mu, xi, None) - val(mu, -xi, None)) / (2 * h_fd)
        dev_eta = max(dev_eta, abs(fd - sol.eta[e_i]))
    dev_nu = 0.0
    for pid, nu_p in sol.nu.items():
        fd = (val(mu, None, {pid: h_fd}) - val(mu, None, {pid: -h_fd})) / (2 * h_fd)
        dev_nu = max(dev_nu, abs(fd - nu_p))
    worst = max(dev_m, dev_eta, dev_nu)
    return {
        "max_dev_demand": dev_m,
        "max_dev_load": dev_eta,
        "max_dev_pinned": dev_nu,
        "max_dev": worst,
        "passes": worst <= tol_fd,
        "solution": sol,
    }


def zero_derivative_acyclicity(net, x, tol_deriv: float = 1e-9):
    """Check that edges with (near) zero cost slope form an undirected forest.

    Returns (True, []) when acyclic, otherwise (False, cycle) with the cycle
    given as a list of edge ids.
    """
    x = np.asarray(x, dtype=float)
    flat = [e for e, load in zip(net.edges, x) if e.cost.derivative(max(load, 0.0)) <= tol_deriv]
    adj = {}
    for e in flat:
        adj.setdefault(e.tail, []).append((e.head, e.edge_id))
        adj.setdefault(e.head, []).append((e.tail, e.edge_id))
    parent = {}
    for e in flat:
        if e.tail not in parent:
            # BFS tree of the component rooted at e.tail.
            parent[e.tail] = (None, None)
            queue = [e.tail]
            while queue:
                v = queue.pop(0)
                for w, eid in adj.get(v, []):
                    if eid == parent[v][1]:
                        continue
                    if w in parent:
                        # Cycle: join the tree paths of v and w plus (v, w).
                        def root_path(u):
                            out = []
                            while parent[u][0] is not None:
                                out.append((u, parent[u][0], parent[u][1]))
                                u = parent[u][0]
                            return out
                        pv = root_path(v)
                        pw = root_path(w)
                        edges_v = [eid_ for _, _, eid_ in pv]
                        edges_w = [eid_ for _, _, eid_ in pw]
                        common = set(edges_v) & set(edges_w)
                        cycle = [eid] + [i for i in edges_v if i not in common]
                        cycle += [i for i in edges_w if i not in common]
                        return False, cycle
                    parent[w] = (v, eid)
                    queue.append(w)
    return True, []
