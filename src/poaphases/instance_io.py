"""JSON (de)serialization of routing instances.

Schema: {"vertices": [...],
         "edges": [{"id", "tail", "head", "cost": {...}}, ...],
         "commodities": [{"id", "origin", "destination",
                          "paths": [["e1","e2"], ...] | "auto"}, ...],
         "demand": {"type": "linear"|"affine"|"piecewise", ...}}

Cost fragments: {"type":"affine","a":..,"b":..}, {"type":"poly","coeffs":[..]},
{"type":"bpr","t0":..,"cap":..,"alpha":..,"beta":..},
{"type":"piecewise","x0":..,"left":[..],"right":[..]} with ascending
coefficient lists.  "paths": "auto" enumerates all simple paths (capped).
"""

from __future__ import annotations

import json

from .costs import AffineCost, BPRCost, PiecewiseC1Cost, PolynomialCost
from .model import (
    AffineDemand,
    Commodity,
    Edge,
    LinearDemand,
    ModelError,
    Network,
    Path,
    PiecewiseAffineDemand,
    enumerate_paths,
)


class InstanceFormatError(ValueError):
    pass


def cost_from_json(frag: dict):
    try:
        kind = frag["type"]
        if kind == "affine":
            return AffineCost(float(frag["a"]), float(frag["b"]))
        if kind == "poly":
            return PolynomialCost(tuple(float(c) for c in frag["coeffs"]))
        if kind == "bpr":
            return BPRCost(float(frag["t0"]), float(frag["cap"]),
                           float(frag["alpha"]), float(frag["beta"]))
        if kind == "piecewise":
            return PiecewiseC1Cost(float(frag["x0"]),
                                   tuple(float(c) for c in frag["left"]),
                                   tuple(float(c) for c in frag["right"]))
    except KeyError as exc:
        raise InstanceFormatError(f"cost fragment missing field {exc}: {frag}") from exc
    except (ValueError, TypeError) as exc:  # CostError is a ValueError
        raise InstanceFormatError(f"bad cost fragment {frag}: {exc}") from exc
    raise InstanceFormatError(f"unknown cost type {frag.get('type')!r}")


def cost_to_json(cost) -> dict:
    if isinstance(cost, AffineCost):
        return {"type": "affine", "a": cost.a, "b": cost.b}
    if isinstance(cost, PolynomialCost):
        return {"type": "poly", "coeffs": list(cost.coeffs)}
    if isinstance(cost, BPRCost):
        return {"type": "bpr", "t0": cost.t0, "cap": cost.cap,
                "alpha": cost.alpha, "beta": cost.beta}
    if isinstance(cost, PiecewiseC1Cost):
        return {"type": "piecewise", "x0": cost.x0,
                "left": list(cost.left), "right": list(cost.right)}
    raise InstanceFormatError(f"cannot serialize cost {cost!r}")


def demand_from_json(frag: dict, n_ods: int):
    """The demand curve of ``frag``, checked to give one entry per commodity."""
    kind = frag.get("type")
    if kind not in ("linear", "affine", "piecewise"):
        raise InstanceFormatError(f"unknown demand type {kind!r}")
    try:
        dom = {}
        if "t_min" in frag:
            dom["t_min"] = float(frag["t_min"])
        if "t_max" in frag:
            dom["t_max"] = float(frag["t_max"])
        if kind == "linear":
            curve = LinearDemand(tuple(float(v) for v in frag["rates"]), **dom)
        elif kind == "affine":
            curve = AffineDemand(tuple(float(v) for v in frag["slope"]),
                                 tuple(float(v) for v in frag["intercept"]), **dom)
        else:
            curve = PiecewiseAffineDemand(tuple(float(t) for t in frag["knots"]),
                                          tuple(tuple(float(v) for v in row)
                                                for row in frag["values"]))
    except ValueError as exc:  # DemandError is a ValueError
        raise InstanceFormatError(f"demand: {exc}") from exc
    width = len(curve.mu(curve.t_min))
    if width != n_ods:
        raise InstanceFormatError(f"demand has {width} entries for {n_ods} commodities")
    return curve


def demand_to_json(curve) -> dict:
    if isinstance(curve, LinearDemand):
        return {"type": "linear", "rates": list(curve.rates)}
    if isinstance(curve, AffineDemand):
        return {"type": "affine", "slope": list(curve.slope),
                "intercept": list(curve.intercept)}
    if isinstance(curve, PiecewiseAffineDemand):
        return {"type": "piecewise", "knots": list(curve.knots),
                "values": [list(v) for v in curve.values]}
    raise InstanceFormatError(f"cannot serialize demand {curve!r}")


def instance_from_dict(doc: dict, path_cap: int = 64):
    try:
        net = Network(
            doc["vertices"],
            [Edge(e["id"], e["tail"], e["head"], cost_from_json(e["cost"]))
             for e in doc["edges"]],
        )
        commodities = []
        for com in doc["commodities"]:
            cid, origin, dest = com["id"], com["origin"], com["destination"]
            if com["paths"] == "auto":
                raw = enumerate_paths(net, origin, dest, max_paths=path_cap)
                paths = tuple(
                    Path(f"{cid}#{i}", cid, p.edges) for i, p in enumerate(raw)
                )
                if not paths:
                    raise InstanceFormatError(
                        f"commodity {cid}: no path from {origin} to {dest}"
                    )
            else:
                paths = tuple(
                    Path(f"{cid}#{i}", cid, tuple(seq))
                    for i, seq in enumerate(com["paths"])
                )
            commodities.append(Commodity(cid, origin, dest, paths))
        demand = demand_from_json(doc["demand"], len(commodities))
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"malformed instance document: {exc}") from exc
    except ModelError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return net, commodities, demand


def instance_to_dict(net, commodities, demand) -> dict:
    return {
        "vertices": list(net.vertices),
        "edges": [
            {"id": e.edge_id, "tail": e.tail, "head": e.head,
             "cost": cost_to_json(e.cost)}
            for e in net.edges
        ],
        "commodities": [
            {"id": c.od_id, "origin": c.origin, "destination": c.destination,
             "paths": [list(p.edges) for p in c.paths]}
            for c in commodities
        ],
        "demand": demand_to_json(demand),
    }


def load_instance(path, path_cap: int = 64):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return instance_from_dict(doc, path_cap)


def save_instance(path, net, commodities, demand) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(net, commodities, demand), fh, indent=2, sort_keys=True)
        fh.write("\n")
