"""Seeded synthetic directed-grid instances in the poaphases JSON format.

The grid has ``rows x cols`` vertices ``r{i}c{j}`` with one edge to the right
(``h{i}_{j}``) and one edge down (``v{i}_{j}``) from each vertex.  Each OD pair
joins the top-left and bottom-right corners of a ``box x box`` block of grid
cells, with ``"paths": "auto"``; for ``box == 1`` that is the two paths around
one grid square.  Blocks are drawn without replacement, costs are drawn per
edge from the requested families, and demand is proportional
(``mu(t) = t * rates``).  Every cost family drawn here has a nondecreasing,
convex ``x * c(x)``, so the social optimum is defined.

Run ``python3 perfbench/gridgen.py --seed 7 --out grid.json`` to write the
instance a seed produces.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

FAMILIES = ("affine", "poly", "bpr", "piecewise")


def _cost(family: str, rng) -> dict:
    if family == "affine":
        return {"type": "affine", "a": rng.uniform(0.2, 2.0), "b": rng.uniform(0.0, 3.0)}
    if family == "poly":
        return {"type": "poly",
                "coeffs": [rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.5)]}
    if family == "bpr":
        return {"type": "bpr", "t0": rng.uniform(0.5, 3.0), "cap": rng.uniform(1.0, 4.0),
                "alpha": 0.15, "beta": 4.0}
    # Affine up to x0, then the same line plus k (x - x0)^2: C^1 at x0,
    # nondecreasing and convex, so x * c(x) is convex.
    a, b = rng.uniform(0.2, 1.5), rng.uniform(0.5, 3.0)
    x0, k = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
    return {"type": "piecewise", "x0": x0, "left": [b, a],
            "right": [b + k * x0 * x0, a - 2.0 * k * x0, k]}


def make_grid(seed: int, rows: int = 10, cols: int = 10, n_ods: int = 40,
              box: int = 1, families=FAMILIES) -> dict:
    """Instance document for the given seed and shape."""
    rng = np.random.default_rng(seed)
    vertices = [f"r{i}c{j}" for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append({"id": f"h{i}_{j}", "tail": f"r{i}c{j}", "head": f"r{i}c{j + 1}"})
            if i + 1 < rows:
                edges.append({"id": f"v{i}_{j}", "tail": f"r{i}c{j}", "head": f"r{i + 1}c{j}"})
    for e in edges:
        e["cost"] = _cost(families[int(rng.integers(len(families)))], rng)
    corners = [(i, j) for i in range(rows - box) for j in range(cols - box)]
    if n_ods > len(corners):
        raise ValueError(f"{n_ods} ODs requested but the grid has {len(corners)} blocks")
    picks = sorted(int(k) for k in rng.choice(len(corners), size=n_ods, replace=False))
    commodities = []
    for k in picks:
        i, j = corners[k]
        commodities.append({"id": f"od{i}_{j}", "origin": f"r{i}c{j}",
                            "destination": f"r{i + box}c{j + box}", "paths": "auto"})
    rates = [float(r) for r in rng.uniform(0.5, 1.5, size=n_ods)]
    return {"vertices": vertices, "edges": edges, "commodities": commodities,
            "demand": {"type": "linear", "rates": rates}}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, default=10)
    ap.add_argument("--cols", type=int, default=10)
    ap.add_argument("--ods", type=int, default=40)
    ap.add_argument("--box", type=int, default=1)
    ap.add_argument("--costs", default=",".join(FAMILIES),
                    help="comma-separated cost families to draw from")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    families = tuple(args.costs.split(","))
    unknown = set(families) - set(FAMILIES)
    if unknown:
        ap.error(f"unknown cost families {sorted(unknown)}")
    doc = make_grid(args.seed, args.rows, args.cols, args.ods, args.box, families)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
