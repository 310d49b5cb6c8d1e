"""Time the batched cost kernel at several table widths.

Usage: python3 benchmarks/bench_kernels.py [--edges N [N ...]] [--reps R]

Prints the time of one values/derivs/primitives pass over a mixed table
(affine, polynomial, BPR and piecewise edges in turn) and the time per edge.
"""

import argparse
import time

import numpy as np

from poaphases.costs import (
    AffineCost,
    BPRCost,
    PiecewiseC1Cost,
    PolynomialCost,
    build_cost_table,
)


def make_table(n_edges: int, rng):
    costs = []
    for i in range(n_edges):
        kind = i % 4
        if kind == 0:
            costs.append(AffineCost(rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0)))
        elif kind == 1:
            costs.append(PolynomialCost((rng.uniform(0.0, 1.0), 0.0, rng.uniform(0.1, 1.0))))
        elif kind == 2:
            costs.append(BPRCost(1.0, rng.uniform(1.0, 3.0), 0.15, 4.0))
        else:
            costs.append(PiecewiseC1Cost(1.0, (0.0, 2.0, -1.0), (2.0, -2.0, 1.0)))
    return build_cost_table(costs)


def bench(table, xs, reps):
    """Seconds per pass of the three evaluation modes."""
    start = time.perf_counter()
    for r in range(reps):
        x = xs[r % len(xs)]
        table.values(x)
        table.derivs(x)
        table.primitives(x)
    return (time.perf_counter() - start) / reps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--edges", type=int, nargs="+", default=[7, 200, 20_000])
    ap.add_argument("--reps", type=int, default=None,
                    help="passes per width (default: about 60,000 edge evaluations)")
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    for n in args.edges:
        table = make_table(n, rng)
        xs = [rng.uniform(-1.0, 5.0, size=n) for _ in range(8)]
        reps = args.reps or max(3, 60_000 // n)
        t = bench(table, xs, reps)
        print(f"{n:7d} edges: {t * 1e3:9.3f} ms per 3-mode pass, "
              f"{t / (3 * n) * 1e9:7.0f} ns per edge")


if __name__ == "__main__":
    main()
