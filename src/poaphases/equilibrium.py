"""Wardrop equilibria, social optima, and the price of anarchy.

The equilibrium solver minimizes the congestion potential (sum over edges of
the cost primitive) over feasible path flows by an active-set method.  It
starts from the all-or-nothing support at zero load, solves each support's
stationarity system exactly by Newton, drops paths whose flow turns negative
and adds the most violated cheaper path until no path outside the support
is cheaper.  The edge costs are accurate enough for derivative work
downstream.

Every result carries its instance's prepared data (incidence, cost table,
pseudo-inverse).  Passing a result as ``start`` to the next solve on the
same instance reuses that data and begins from the result's support, which
is how the breakpoint scan solves hundreds of nearby demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .costs import (
    AffineCost,
    CostError,
    build_cost_table,
    fenchel_conjugate_affine,
    marginal,
)
from .fixed_regime import _newton_kkt
from .kernels import CostTable
from .model import Commodity, Edge, FlowLoad, Incidence, Network, build_incidence


class SolverError(RuntimeError):
    pass


class NonConvexCostError(SolverError):
    """Raised when a social-optimum computation needs convex x*c(x) and lacks it."""


@dataclass(frozen=True)
class SolverOptions:
    tol_gap: float = 1e-9
    eps_active: float = 1e-7
    active_set_max_iters: int = 100
    newton_tol_res: float = 1e-12
    newton_tol_step: float = 1e-9
    newton_max_iters: int = 80


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class Prepared:
    """What a solve needs of its instance, built once and shared by warm starts.

    Paths are grouped by OD in incidence order, so each OD's paths are the
    slice of columns from its ``od_start`` entry to the next one.
    """

    inc: Incidence
    od_of_path: np.ndarray  # per-path OD index
    od_start: np.ndarray  # index of each OD's first path
    table: CostTable  # the costs the solve levels (marginal costs for an optimum)
    pinv: np.ndarray  # pinv([delta; s]): (loads, demands) -> minimal-norm flow


def _prepare(net: Network, commodities) -> Prepared:
    inc = build_incidence(net, commodities)
    counts = inc.s.sum(axis=1).astype(int)
    return Prepared(
        inc=inc,
        od_of_path=np.repeat(np.arange(inc.n_ods), counts),
        od_start=np.cumsum(counts) - counts,
        table=build_cost_table(net.costs),
        pinv=np.linalg.pinv(np.vstack([inc.delta, inc.s])),
    )


@dataclass
class EquilibriumResult:
    x: np.ndarray  # per-edge loads
    tau: np.ndarray  # per-edge costs at x
    path_costs: np.ndarray
    lam: np.ndarray  # per-OD minimal path cost
    f: np.ndarray  # one nonnegative flow decomposition
    potential: float
    gap: float
    regime: tuple  # active path ids at eps_active
    sc: float  # total cost sum_e x_e tau_e
    active_set_iters: int
    path_ids: tuple = ()
    path_od: tuple = ()  # per-path OD index
    fw_iters: int = 0  # retired warm-start counter, always 0; kept for existing readers
    prep: Prepared | None = field(default=None, repr=False, compare=False)

    def flow_load(self) -> FlowLoad:
        return FlowLoad(f=self.f.copy(), x=self.x.copy())


def _cheapest(prep: Prepared, pc) -> np.ndarray:
    """Index of each OD's cheapest path (the lowest index on ties)."""
    order = np.lexsort((pc, prep.od_of_path))
    return order[prep.od_start]


def _all_or_nothing(prep: Prepared, path_costs, mu):
    """Send each OD's whole demand down its cheapest path (lowest index ties)."""
    f = np.zeros(prep.inc.n_paths)
    f[_cheapest(prep, path_costs)] = mu
    return f


def solve_equilibrium(net: Network, commodities, mu,
                      opts: SolverOptions = DEFAULT_OPTIONS,
                      start: EquilibriumResult | None = None) -> EquilibriumResult:
    """Wardrop equilibrium at demand ``mu``.

    ``start`` is an earlier result of this function on the same instance
    with the same options.  The solve then takes the incidence, cost table
    and pseudo-inverse from it instead of building them from ``net`` and
    ``commodities``, and its active-set loop begins from the start's
    support, flows and multipliers instead of from all-or-nothing; if that
    loop fails, it restarts from all-or-nothing.  The equilibrium is the
    same; a start near ``mu`` only reaches it in fewer iterations.
    """
    prep = _prepare(net, commodities) if start is None else start.prep
    inc = prep.inc
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (inc.n_ods,):
        raise SolverError(f"demand has shape {mu.shape}, expected ({inc.n_ods},)")
    if np.any(mu < 0):
        raise SolverError("negative demand")
    if not np.any(mu > 0):
        return _assemble(prep, np.zeros(inc.n_paths), opts, 0)

    if start is not None:
        try:
            return _active_set(prep, mu, opts, *_warm_support(prep, start))
        except SolverError:
            # Newton can stall on a rank-deficient regime from one starting
            # point and close it from another; the cold start is the reference.
            pass
    return _active_set(prep, mu, opts, *_cold_support(prep, mu))


def _cold_support(prep: Prepared, mu):
    """All-or-nothing flow at zero load; the support adds each OD's cheapest
    path under that flow's loads."""
    inc, table = prep.inc, prep.table
    f = _all_or_nothing(prep, inc.delta.T @ table.values(np.zeros(inc.n_edges)), mu)
    used = f > 1e-8 * (1.0 + mu[prep.od_of_path])
    used[_cheapest(prep, inc.delta.T @ table.values(inc.delta @ f))] = True
    return f, np.zeros(inc.n_ods), used


def _warm_support(prep: Prepared, start: EquilibriumResult):
    """The earlier solution's flows, multipliers and used paths; an OD that
    had no demand there starts from its cheapest path."""
    used = start.f > 0
    unserved = np.flatnonzero(prep.inc.s @ used == 0)
    used[_cheapest(prep, start.path_costs)[unserved]] = True
    return start.f.copy(), start.lam.copy(), used


def _active_set(prep: Prepared, mu, opts, f, lam, used) -> EquilibriumResult:
    """Newton on the support, drop negative paths, add the most violated one."""
    inc, table, od = prep.inc, prep.table, prep.od_of_path
    active = np.flatnonzero(used).tolist()
    just_dropped = None
    as_iters = 0
    f_r = None
    for as_iters in range(1, opts.active_set_max_iters + 1):
        idx = np.asarray(active, dtype=int)
        delta_r = inc.delta[:, idx]
        s_r = inc.s[:, idx]
        f0 = f[idx]
        # Rebalance the current flows onto the demand constraint.
        for h in range(inc.n_ods):
            own = np.flatnonzero(s_r[h])
            tot = f0[own].sum()
            if tot > 0:
                f0[own] *= mu[h] / tot
            else:
                f0[own] = mu[h] / len(own)
        f_r, lam, x_r, res, nit, ok = _newton_kkt(
            table, delta_r, s_r, mu, f0, lam, np.zeros(inc.n_edges),
            tol_res=opts.newton_tol_res, tol_step=opts.newton_tol_step,
            max_iters=opts.newton_max_iters,
        )
        if not ok:
            raise SolverError(
                f"active-set Newton failed on regime of size {len(idx)}: residual {res:.3e}"
            )
        scale = 1.0 + float(np.max(mu, initial=0.0))
        neg = np.flatnonzero(f_r < -1e-10 * scale)
        if neg.size:
            # Drop the most negative path unless it is its OD's only one.
            order = neg[np.argsort(f_r[neg])]
            dropped = None
            for j_local in order:
                h = od[idx[j_local]]
                if int(np.sum(s_r[h])) > 1:
                    dropped = int(idx[j_local])
                    break
            if dropped is not None:
                active.remove(dropped)
                just_dropped = dropped
                f = np.zeros(inc.n_paths)
                f[idx] = np.maximum(f_r, 0.0)
                continue
        # Add the most violated path: the largest relative saving over its
        # OD's level, among paths outside the support and beyond tol_gap.
        pc = inc.delta.T @ table.values(np.maximum(delta_r @ f_r, 0.0))
        lam_p = lam[od]
        slack = pc - lam_p
        rel = 1.0 + np.abs(lam_p)
        cand = slack < -opts.tol_gap * rel
        cand[idx] = False
        if just_dropped is not None:
            cand[just_dropped] = False
        if not cand.any():
            break
        js = np.flatnonzero(cand)
        active = sorted(active + [int(js[np.argmax(-slack[js] / rel[js])])])
        just_dropped = None
        f = np.zeros(inc.n_paths)
        f[idx] = np.maximum(f_r, 0.0)
    else:
        raise SolverError("active-set loop exceeded iteration budget")

    f_full = np.zeros(inc.n_paths)
    f_full[np.asarray(active, dtype=int)] = np.maximum(f_r, 0.0)
    return _assemble(prep, f_full, opts, as_iters)


def _assemble(prep: Prepared, f, opts, as_iters) -> EquilibriumResult:
    inc, table, od = prep.inc, prep.table, prep.od_of_path
    mu = inc.s @ f
    x = inc.delta @ f
    # Prefer the minimal-norm decomposition when it stays nonnegative, so the
    # reported flow is a deterministic function of (x, mu) alone.
    f_min = prep.pinv @ np.concatenate([x, mu])
    if np.min(f_min, initial=0.0) >= -1e-9:
        f = np.maximum(f_min, 0.0)
    scale = 1.0 + float(np.max(mu, initial=0.0))
    f[f <= 1e-12 * scale] = 0.0
    x = inc.delta @ f
    tau = table.values(x)
    pc = inc.delta.T @ tau
    lam = np.minimum.reduceat(pc, prep.od_start)
    lam_p = lam[od]
    gap = float(np.max((pc - inc.s.T @ lam) * (f > 0), initial=0.0))
    in_band = pc - lam_p <= opts.eps_active * (1.0 + np.abs(lam_p))
    regime = tuple(inc.path_ids[j] for j in np.flatnonzero(in_band))
    sc_edges = float(x @ tau)
    sc_dual = float(mu @ lam)
    if abs(sc_edges - sc_dual) > 1e-7 * (1.0 + abs(sc_edges)):
        raise SolverError(
            f"total-cost identity violated: edge sum {sc_edges!r} vs demand sum {sc_dual!r}"
        )
    return EquilibriumResult(
        x=x, tau=tau, path_costs=pc, lam=lam, f=f,
        potential=float(table.potential(np.maximum(x, 0.0))),
        gap=gap, regime=regime, sc=sc_dual,
        active_set_iters=as_iters,
        path_ids=inc.path_ids,
        path_od=tuple(od.tolist()),
        prep=prep,
    )


def wardrop_gap(net, commodities, fl: FlowLoad, mu) -> float:
    """Worst excess of a used path's cost over its OD's cheapest alternative."""
    inc = build_incidence(net, commodities)
    mu = np.asarray(mu, dtype=float)
    fl.check_consistent(inc)
    if np.max(np.abs(inc.s @ fl.f - mu), initial=0.0) > 1e-6 * (1.0 + np.max(np.abs(mu), initial=0.0)):
        raise SolverError("flow does not meet the demand vector")
    if np.min(fl.f, initial=0.0) < -1e-9:
        raise SolverError("flow has negative entries")
    table = build_cost_table(net.costs)
    pc = inc.delta.T @ table.values(np.maximum(fl.x, 0.0))
    worst = 0.0
    for h in range(inc.n_ods):
        own = np.flatnonzero(inc.s[h])
        best = np.min(pc[own])
        for j in own:
            if fl.f[j] > 0:
                worst = max(worst, float(pc[j] - best))
    return worst


def active_regime(res: EquilibriumResult, eps_active: float) -> tuple:
    """Paths whose cost is within a relative eps of their OD's equilibrium cost."""
    out = []
    for pid, cost, h in zip(res.path_ids, res.path_costs, res.path_od):
        lamv = res.lam[h]
        if cost - lamv <= eps_active * (1.0 + abs(lamv)):
            out.append(pid)
    return tuple(out)


def social_cost(net, fl: FlowLoad, commodities=None) -> float:
    """Total travel cost of a consistent flow-load pair."""
    table = build_cost_table(net.costs)
    c = table.values(np.maximum(fl.x, 0.0))
    edge_sum = float(fl.x @ c)
    if commodities is not None:
        inc = build_incidence(net, commodities)
        fl.check_consistent(inc)
        path_sum = float(fl.f @ (inc.delta.T @ c))
        if abs(edge_sum - path_sum) > 1e-9 * (1.0 + abs(edge_sum)):
            raise SolverError("edge-sum and path-sum total costs disagree")
    return edge_sum


def marginal_network(net: Network) -> Network:
    """Same graph with every cost replaced by its marginal-cost transform."""
    try:
        edges = [Edge(e.edge_id, e.tail, e.head, marginal(e.cost)) for e in net.edges]
    except CostError as exc:
        raise NonConvexCostError(
            f"total edge cost x*c(x) is not convex, optimum transform refused: {exc}"
        ) from exc
    return Network(net.vertices, edges)


def solve_social_optimum(net, commodities, mu,
                         opts: SolverOptions = DEFAULT_OPTIONS) -> EquilibriumResult:
    """System optimum as the equilibrium of the marginal-cost game.

    The returned result carries the marginal game's costs; `sc` is replaced
    by the original-cost total so it reads as the optimal social cost.
    """
    mnet = marginal_network(net)
    res = solve_equilibrium(mnet, commodities, mu, opts)
    sc_opt = social_cost(net, FlowLoad(f=res.f, x=res.x))
    return replace(res, sc=sc_opt)


def grad_social_optimum(net, commodities, mu,
                        opts: SolverOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """Per-OD derivative of the optimal social cost (marginal-game costs)."""
    return solve_social_optimum(net, commodities, mu, opts).lam


def poa_ratio(mu, sc_eq: float, sc_opt: float) -> float:
    """Equilibrium over optimal social cost.

    At zero demand, or when the optimal total vanishes (all costs free at the
    optimal loads), the ratio is taken as its limiting value 1.
    """
    if sc_opt == 0.0 or not np.any(np.asarray(mu) > 0):
        return 1.0
    return sc_eq / sc_opt


def price_of_anarchy(net, commodities, mu,
                     opts: SolverOptions = DEFAULT_OPTIONS) -> float:
    mu = np.asarray(mu, dtype=float)
    if not np.any(mu > 0):
        return 1.0  # no traffic: skip both solves, poa_ratio would give 1
    eq = solve_equilibrium(net, commodities, mu, opts)
    opt = solve_social_optimum(net, commodities, mu, opts)
    # Both totals are edge sums over the computed flows.  eq.sc = mu @ lam
    # reads the cheapest path's cost, which at tiny demand can sit below the
    # used paths' by up to tol_gap and so push the ratio under 1.
    return poa_ratio(mu, social_cost(net, eq.flow_load()), opt.sc)


def dual_certificate_affine(net, commodities, mu, res: EquilibriumResult) -> float:
    """Duality gap certifying equilibrium loads, for strictly increasing affine costs."""
    for e in net.edges:
        if not isinstance(e.cost, AffineCost) or e.cost.a <= 0:
            raise SolverError(
                f"dual certificate needs affine costs with positive slope; edge {e.edge_id} fails"
            )
    inc = build_incidence(net, commodities)
    mu = np.asarray(mu, dtype=float)
    table = build_cost_table(net.costs)
    phi = float(table.potential(np.maximum(res.x, 0.0)))
    conj = sum(fenchel_conjugate_affine(e.cost, float(t)) for e, t in zip(net.edges, res.tau))
    pc = inc.delta.T @ res.tau
    dual = -conj + sum(
        mu[h] * float(np.min(pc[np.flatnonzero(inc.s[h])])) for h in range(inc.n_ods)
    )
    return phi - dual
