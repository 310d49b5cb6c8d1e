"""The benchmark's workloads: which instances each loads, and its passes.

A pass is a fixed list of CLI commands.  Every pass of a run moves all its
demand values by its own random shift in [0, SHIFT_SPAN), drawn from the run
seed and the pass index, so no demand point is asked for twice in one run
and a result cache shared across commands could not inflate a number.  The
shift is small enough that each pass does the same work: the solvers'
iteration counts change smoothly with the demand.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "instances"

#: Seed of the synthetic grid.  It is fixed so that every run measures the
#: same network, on which every solve of the grid workload succeeds; the run
#: seed varies the demand points.  `python3 perfbench/gridgen.py --seed 1`
#: rebuilds it.
GRID_SEED = 1

SHIFT_SPAN = 0.01


def _sweep(inst, t0, t1, n):
    return ("sweep", inst, ["--t0", repr(t0), "--t1", repr(t1), "--n", str(n)])


def _solve(inst, t):
    return ("solve", inst, ["--t", repr(t)])


def _breakpoints(inst, t0, t1):
    return ("breakpoints", inst, ["--t0", repr(t0), "--t1", repr(t1)])


def corpus_sweep(s):
    # Frank-Wolfe needs 10^3..10^4 iterations per solve at most of these
    # points, on networks of 6-7 edges.
    return [
        _sweep("fig1", s, 16.0 + s, 2),
        _sweep("contraction-expansion", s, 6.0 + s, 2),
        _solve("fig1", 2.5 + s),
        _solve("contraction-expansion", 1.0 + s),
    ]


def grid_sweep(s):
    # 180 edges and 40 ODs; demand kept where every solve succeeds.  The
    # optimum at 0.3 takes about 270 Frank-Wolfe iterations, those at 0.1
    # and 0.2 under 50.  The heavy point is a `solve`, which runs on one
    # worker: how far the sweep's two workers overlap follows the host's
    # load, so a pass spends only about a fifth of its time in them.
    return [
        _sweep("grid", 0.1 + s, 0.2 + s, 2),
        _solve("grid", 0.3 + s),
    ]


def corpus_breakpoints(s):
    # Hundreds of cheap solves per scan; the regime changes inside each range.
    return [
        _breakpoints("fisk", s, 80.0 + s),
        _breakpoints("pigou", s, 4.0 + s),
        _breakpoints("wheatstone", s, 4.0 + s),
        _breakpoints("fig1", s, 3.2 + s),
    ]


WORKLOADS = {
    "corpus-sweep": corpus_sweep,
    "grid-sweep": grid_sweep,
    "corpus-breakpoints": corpus_breakpoints,
}


def instance_names(workload: str) -> list:
    return sorted({inst for _, inst, _ in WORKLOADS[workload](0.0)})


def instance_path(name: str, run_dir: Path) -> Path:
    """Corpus instances ship with the benchmark; the grid is written per run."""
    return run_dir / "grid.json" if name == "grid" else CORPUS / f"{name}.json"


def pass_commands(workload: str, seed: int, k: int) -> list:
    """Commands of pass ``k`` as (verb, instance name, extra CLI args)."""
    shift = SHIFT_SPAN * float(np.random.default_rng([seed, k]).random())
    return WORKLOADS[workload](shift)
