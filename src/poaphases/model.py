"""Routing game structure: multigraph, commodities, paths, demand curves.

All types are immutable after construction and validated eagerly.  Ordering
is deterministic everywhere: edges in declaration order, paths in (commodity
order, declared path order), so downstream regimes and reports are
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import AffineCost, CostFunction


class ModelError(ValueError):
    """Invalid network / commodity / demand construction."""


@dataclass(frozen=True)
class Edge:
    edge_id: str
    tail: str
    head: str
    cost: CostFunction


@dataclass(frozen=True)
class Path:
    path_id: str
    od_id: str
    edges: tuple  # ordered edge-id sequence


@dataclass(frozen=True)
class Commodity:
    od_id: str
    origin: str
    destination: str
    paths: tuple  # of Path

    def __post_init__(self):
        if not self.paths:
            raise ModelError(f"commodity {self.od_id} has an empty path set")


class Network:
    """Directed multigraph with per-edge cost functions."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ModelError("duplicate vertex ids")
        ids = [e.edge_id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate edge ids")
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                raise ModelError(f"edge {e.edge_id} references undeclared vertex")
        self.edge_index = {e.edge_id: i for i, e in enumerate(self.edges)}
        self.edge_by_id = {e.edge_id: e for e in self.edges}

    @property
    def costs(self):
        return [e.cost for e in self.edges]

    def validate_path(self, path: Path) -> None:
        if not path.edges:
            raise ModelError(f"path {path.path_id} has no edges")
        seen_edges = []
        for eid in path.edges:
            if eid not in self.edge_by_id:
                raise ModelError(f"path {path.path_id} references unknown edge {eid}")
            seen_edges.append(self.edge_by_id[eid])
        for a, b in zip(seen_edges, seen_edges[1:]):
            if a.head != b.tail:
                raise ModelError(
                    f"path {path.path_id} does not chain at {a.edge_id} -> {b.edge_id}"
                )
        visited = [seen_edges[0].tail] + [e.head for e in seen_edges]
        if len(set(visited)) != len(visited):
            raise ModelError(f"path {path.path_id} is not simple")


def validate_commodities(network: Network, commodities) -> None:
    seen_pids = set()
    for com in commodities:
        for p in com.paths:
            network.validate_path(p)
            if p.path_id in seen_pids:
                raise ModelError(f"duplicate path id {p.path_id}")
            seen_pids.add(p.path_id)
            first = network.edge_by_id[p.edges[0]]
            last = network.edge_by_id[p.edges[-1]]
            if first.tail != com.origin or last.head != com.destination:
                raise ModelError(
                    f"path {p.path_id} does not join {com.origin} -> {com.destination}"
                )


@dataclass(frozen=True)
class Incidence:
    """Edge-path matrix Delta and OD-path matrix S, with index maps."""

    delta: np.ndarray  # (E, P) 0/1
    s: np.ndarray  # (H, P) 0/1
    edge_ids: tuple
    path_ids: tuple
    od_ids: tuple

    @property
    def n_edges(self):
        return self.delta.shape[0]

    @property
    def n_paths(self):
        return self.delta.shape[1]

    @property
    def n_ods(self):
        return self.s.shape[0]

    def path_index(self, path_id: str) -> int:
        return self.path_ids.index(path_id)

    def od_of_path(self, j: int) -> int:
        return int(np.argmax(self.s[:, j]))


def build_incidence(network: Network, commodities) -> Incidence:
    """Assemble Delta (edges x paths) and S (ODs x paths).

    Column order is (commodity order, declared path order); each S column has
    exactly one 1 because path sets are disjoint across commodities.
    """
    validate_commodities(network, commodities)
    path_ids = []
    od_ids = tuple(c.od_id for c in commodities)
    cols = []
    srows = []
    for h, com in enumerate(commodities):
        for p in com.paths:
            path_ids.append(p.path_id)
            col = np.zeros(len(network.edges))
            for eid in p.edges:
                col[network.edge_index[eid]] = 1.0
            cols.append(col)
            srow = np.zeros(len(commodities))
            srow[h] = 1.0
            srows.append(srow)
    delta = np.column_stack(cols) if cols else np.zeros((len(network.edges), 0))
    s = np.column_stack(srows) if srows else np.zeros((len(commodities), 0))
    return Incidence(
        delta=delta,
        s=s,
        edge_ids=tuple(e.edge_id for e in network.edges),
        path_ids=tuple(path_ids),
        od_ids=od_ids,
    )


def loads_from_flow(inc: Incidence, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (inc.n_paths,):
        raise ModelError(f"flow has shape {f.shape}, expected ({inc.n_paths},)")
    return inc.delta @ f


def check_feasible(inc: Incidence, f, mu, tol: float) -> bool:
    f = np.asarray(f, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if f.shape != (inc.n_paths,) or mu.shape != (inc.n_ods,):
        raise ModelError("dimension mismatch in check_feasible")
    return bool(
        np.max(np.abs(inc.s @ f - mu), initial=0.0) <= tol and np.min(f, initial=0.0) >= -tol
    )


class PathCountOverflow(ModelError):
    pass


def enumerate_paths(network: Network, origin, destination, max_paths: int = 64):
    """All simple directed paths, ordered lexicographically by edge-id sequence."""
    if origin == destination:
        raise ModelError("origin equals destination")
    if origin not in network.edge_index and origin not in network.vertices:
        raise ModelError(f"unknown vertex {origin}")
    out_edges = {}
    for e in network.edges:
        out_edges.setdefault(e.tail, []).append(e)
    for lst in out_edges.values():
        lst.sort(key=lambda e: e.edge_id)

    results = []

    def dfs(vertex, visited, trail):
        if vertex == destination:
            results.append(tuple(trail))
            if len(results) > max_paths:
                raise PathCountOverflow(
                    f"more than {max_paths} simple paths {origin} -> {destination}"
                )
            return
        for e in out_edges.get(vertex, []):
            if e.head in visited:
                continue
            visited.add(e.head)
            trail.append(e.edge_id)
            dfs(e.head, visited, trail)
            trail.pop()
            visited.discard(e.head)

    dfs(origin, {origin}, [])
    results.sort()
    return [
        Path(path_id=f"{origin}->{destination}#{i}", od_id="", edges=seq)
        for i, seq in enumerate(results)
    ]


def disjointify(network: Network, commodities):
    """Rewire commodities that share a path through dummy origins.

    Any path (as an edge-id sequence) appearing in more than one commodity
    gets the later commodities rerouted through a fresh zero-cost edge from a
    dummy origin, which leaves equilibrium loads on original edges unchanged.
    Already-disjoint inputs are returned as-is.
    """
    seen = {}
    clashing = set()
    for com in commodities:
        for p in com.paths:
            if p.edges in seen and seen[p.edges] != com.od_id:
                clashing.add(com.od_id)
            else:
                seen.setdefault(p.edges, com.od_id)
    if not clashing:
        return network, list(commodities)

    vertices = list(network.vertices)
    edges = list(network.edges)
    new_commodities = []
    for com in commodities:
        if com.od_id not in clashing:
            new_commodities.append(com)
            continue
        dummy_v = f"__origin_{com.od_id}"
        dummy_e = f"__feed_{com.od_id}"
        vertices.append(dummy_v)
        edges.append(Edge(dummy_e, dummy_v, com.origin, AffineCost(0.0, 0.0)))
        new_paths = tuple(
            Path(p.path_id, p.od_id, (dummy_e,) + tuple(p.edges)) for p in com.paths
        )
        new_commodities.append(
            Commodity(com.od_id, dummy_v, com.destination, new_paths)
        )
    return Network(vertices, edges), new_commodities


# ---------------------------------------------------------------------------
# Demand curves
# ---------------------------------------------------------------------------


class DemandError(ModelError):
    pass


def _as_vec(v, n, what):
    arr = np.asarray(v, dtype=float)
    if arr.shape != (n,):
        raise DemandError(f"{what} has shape {arr.shape}, expected ({n},)")
    return arr


@dataclass(frozen=True)
class LinearDemand:
    """mu(t) = t * rates."""

    rates: tuple
    t_min: float = 0.0
    t_max: float = float("inf")

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", tuple(r))
        if not np.all(np.isfinite(r) & (r >= 0)):
            raise DemandError(f"linear demand rates must be finite and nonnegative: {r}")
        if self.t_min < 0:
            raise DemandError("linear demand domain must lie in t >= 0")

    def mu(self, t):
        self._check(t)
        return t * np.asarray(self.rates)

    def derivative(self, t):
        self._check(t)
        r = np.asarray(self.rates)
        return r.copy(), r.copy()

    def _check(self, t):
        if not (self.t_min <= t <= self.t_max):
            raise DemandError(f"t={t} outside demand domain [{self.t_min}, {self.t_max}]")


@dataclass(frozen=True)
class AffineDemand:
    """mu(t) = slope * t + intercept."""

    slope: tuple
    intercept: tuple
    t_min: float = 0.0
    t_max: float = float("inf")

    def __post_init__(self):
        w = np.asarray(self.slope, dtype=float)
        z = np.asarray(self.intercept, dtype=float)
        if w.shape != z.shape:
            raise DemandError("slope and intercept dimensions differ")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(z))):
            raise DemandError(f"affine demand must be finite: slope {w}, intercept {z}")
        object.__setattr__(self, "slope", tuple(w))
        object.__setattr__(self, "intercept", tuple(z))
        for t in (self.t_min, min(self.t_max, 1e12)):
            if np.any(w * t + z < 0):
                raise DemandError(f"affine demand negative at t={t}")

    def mu(self, t):
        self._check(t)
        return np.asarray(self.slope) * t + np.asarray(self.intercept)

    def derivative(self, t):
        self._check(t)
        w = np.asarray(self.slope)
        return w.copy(), w.copy()

    def _check(self, t):
        if not (self.t_min <= t <= self.t_max):
            raise DemandError(f"t={t} outside demand domain [{self.t_min}, {self.t_max}]")


@dataclass(frozen=True)
class PiecewiseAffineDemand:
    """Linear interpolation between knots (t_k, mu_k); domain [t_0, t_K]."""

    knots: tuple  # increasing t values
    values: tuple  # tuple of per-OD tuples, one per knot

    def __post_init__(self):
        ts = np.asarray(self.knots, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or len(ts) < 2:
            raise DemandError("piecewise demand needs at least two knots")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vals))):
            raise DemandError("piecewise demand knots and values must be finite")
        if np.any(np.diff(ts) <= 0):
            raise DemandError("piecewise demand knots must be strictly increasing")
        if vals.shape[0] != len(ts):
            raise DemandError("one value vector per knot required")
        if np.any(vals < 0):
            raise DemandError("piecewise demand values must be nonnegative")
        object.__setattr__(self, "knots", tuple(ts))
        object.__setattr__(self, "values", tuple(tuple(v) for v in vals))

    @property
    def t_min(self):
        return self.knots[0]

    @property
    def t_max(self):
        return self.knots[-1]

    def _segment(self, k):
        ts = self.knots
        vals = np.asarray(self.values)
        return (vals[k + 1] - vals[k]) / (ts[k + 1] - ts[k])

    def mu(self, t):
        self._check(t)
        ts = np.asarray(self.knots)
        vals = np.asarray(self.values)
        k = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        k = max(k, 0)
        return vals[k] + self._segment(k) * (t - ts[k])

    def derivative(self, t):
        self._check(t)
        ts = np.asarray(self.knots)
        n_seg = len(ts) - 1
        k_right = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), n_seg - 1)
        k_left = min(max(int(np.searchsorted(ts, t, side="left")) - 1, 0), n_seg - 1)
        return self._segment(k_left).copy(), self._segment(k_right).copy()

    def _check(self, t):
        if not (self.t_min <= t <= self.t_max):
            raise DemandError(f"t={t} outside demand domain [{self.t_min}, {self.t_max}]")


DemandCurve = LinearDemand | AffineDemand | PiecewiseAffineDemand


def eval_demand(curve: DemandCurve, t: float):
    """Return (mu(t), left derivative, right derivative)."""
    left, right = curve.derivative(t)
    return curve.mu(t), left, right


@dataclass(frozen=True)
class FlowLoad:
    """A path flow with its induced edge loads (x = Delta f)."""

    f: np.ndarray
    x: np.ndarray

    @staticmethod
    def from_flow(inc: Incidence, f) -> "FlowLoad":
        f = np.asarray(f, dtype=float)
        return FlowLoad(f=f, x=loads_from_flow(inc, f))

    def check_consistent(self, inc: Incidence, tol: float = 1e-9) -> None:
        if np.max(np.abs(inc.delta @ self.f - self.x), initial=0.0) > tol:
            raise ModelError("flow/load pair inconsistent: x != Delta f")
