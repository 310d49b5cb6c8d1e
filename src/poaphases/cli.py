"""Command-line front end.

Subcommands: solve, sweep, breakpoints, fixed-regime, examples.
Exit codes: 0 success, 1 usage or parse error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import corpus, instance_io, sensitivity
from .equilibrium import (
    DEFAULT_OPTIONS,
    NonConvexCostError,
    SolverError,
    SolverOptions,
    poa_ratio,
    solve_equilibrium,
    solve_social_optimum,
)
from .fixed_regime import FixedRegimeError, solve_fixed_regime
from .model import DemandError, ModelError
from .sensitivity import SensitivityError

SWEEP_SCHEMA = "#schema=poa-sweep-v1"


def _options(args) -> SolverOptions:
    opts = DEFAULT_OPTIONS
    if getattr(args, "tol_gap", None) is not None:
        opts = replace(opts, tol_gap=args.tol_gap)
    if getattr(args, "eps_active", None) is not None:
        opts = replace(opts, eps_active=args.eps_active)
    if getattr(args, "max_iters", None) is not None:
        opts = replace(opts, active_set_max_iters=args.max_iters)
    return opts


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    return instance_io.load_instance(args.instance)


def _require_finite(command: str, args, *names) -> None:
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise ModelError(f"{command}: need a finite --{name}")


def cmd_solve(args) -> int:
    _require_finite("solve", args, "t")
    net, coms, demand = _load(args)
    opts = _options(args)
    mu = demand.mu(args.t)
    res = solve_equilibrium(net, coms, mu, opts)
    report = {
        "t": args.t,
        "mu": {c.od_id: float(m) for c, m in zip(coms, mu)},
        "loads": {e.edge_id: float(v) for e, v in zip(net.edges, res.x)},
        "edge_costs": {e.edge_id: float(v) for e, v in zip(net.edges, res.tau)},
        "flows": {pid: float(v) for pid, v in zip(res.path_ids, res.f)},
        "lambda": {c.od_id: float(v) for c, v in zip(coms, res.lam)},
        "sc_eq": res.sc,
        "potential": res.potential,
        "wardrop_gap": res.gap,
        "regime": sorted(res.regime),
    }
    try:
        opt = solve_social_optimum(net, coms, mu, opts)
        report["sc_opt"] = opt.sc
        report["opt_loads"] = {e.edge_id: float(v) for e, v in zip(net.edges, opt.x)}
        report["poa"] = poa_ratio(mu, res.sc, opt.sc)
    except NonConvexCostError as exc:
        report["sc_opt"] = None
        report["poa"] = None
        report["opt_error"] = str(exc)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _sweep_row(net, coms, demand, opts, t):
    mu = demand.mu(t)
    res = solve_equilibrium(net, coms, mu, opts)
    try:
        opt = solve_social_optimum(net, coms, mu, opts)
        sc_opt = opt.sc
        poa = poa_ratio(mu, res.sc, sc_opt)
    except NonConvexCostError:
        sc_opt, poa = float("nan"), float("nan")
    members = sorted(res.regime)
    fingerprint = hashlib.sha256("|".join(members).encode()).hexdigest()[:12]
    return {
        "t": t,
        "mu": [float(v) for v in mu],
        "sc_eq": res.sc,
        "sc_opt": sc_opt,
        "poa": poa,
        "lam": [float(v) for v in res.lam],
        "regime_fingerprint": fingerprint,
        "regime": members,
    }


def cmd_sweep(args) -> int:
    if args.n < 2:
        raise ModelError("sweep needs --n >= 2")
    _require_finite("sweep", args, "t0", "t1")
    net, coms, demand = _load(args)
    opts = _options(args)
    grid = np.linspace(args.t0, args.t1, args.n)
    rows = [_sweep_row(net, coms, demand, opts, float(t)) for t in grid]
    od_ids = [c.od_id for c in coms]
    if args.format == "json":
        _emit(json.dumps({"od_ids": od_ids, "rows": rows}, indent=2) + "\n", args.out)
        return 0
    lines = [SWEEP_SCHEMA]
    header = ["t"] + [f"mu_{h}" for h in od_ids] + ["sc_eq", "sc_opt", "poa"]
    header += [f"lambda_{h}" for h in od_ids] + ["regime_fingerprint", "regime"]
    lines.append(",".join(header))
    for row in rows:
        cells = [f"{row['t']:.17g}"]
        cells += [f"{v:.17g}" for v in row["mu"]]
        cells += [f"{row['sc_eq']:.17g}", f"{row['sc_opt']:.17g}", f"{row['poa']:.17g}"]
        cells += [f"{v:.17g}" for v in row["lam"]]
        cells += [row["regime_fingerprint"], ";".join(row["regime"])]
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_breakpoints(args) -> int:
    # locate_breakpoints checks the range, grid and tol_t before any solve;
    # --eps-probe is only used after the scan, so it is checked here.
    if args.eps_probe is not None and not (math.isfinite(args.eps_probe) and args.eps_probe > 0):
        raise ModelError("breakpoints: need a finite --eps-probe > 0")
    net, coms, demand = _load(args)
    opts = _options(args)
    try:
        points = sensitivity.locate_breakpoints(
            net, coms, demand, (args.t0, args.t1), args.grid, args.tol_t, opts
        )
    except ValueError as exc:
        raise ModelError(f"breakpoints: {exc}") from exc
    od_ids = [c.od_id for c in coms]
    reports = [
        sensitivity.classify_breakpoint(net, coms, demand, t, args.eps_probe, opts)
        for t in points
    ]
    payload = [rep.to_json_dict(od_ids) for rep in reports]
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_fixed_regime(args) -> int:
    _require_finite("fixed-regime", args, "t")
    net, coms, demand = _load(args)
    mu = demand.mu(args.t)
    regime = args.regime.split(",") if args.regime else None
    if regime is None:
        res = solve_equilibrium(net, coms, mu, _options(args))
        regime = sorted(res.regime)
    sol = solve_fixed_regime(net, coms, regime, mu)
    report = {
        "t": args.t,
        "regime": sorted(sol.regime),
        "loads": {e.edge_id: float(v) for e, v in zip(net.edges, sol.x)},
        "flows": {pid: float(v) for pid, v in zip(
            [p.path_id for c in coms for p in c.paths], sol.f)},
        "m": {c.od_id: float(v) for c, v in zip(coms, sol.m)},
        "eta": {e.edge_id: float(v) for e, v in zip(net.edges, sol.eta)},
        "nu": sol.nu,
        "residual": sol.residual,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_examples(args) -> int:
    kwargs = {}
    if args.name == "contraction-expansion":
        kwargs["eps"] = args.eps
    try:
        net, coms, demand = corpus.get_instance(args.name, **kwargs)
    except KeyError as exc:
        raise ModelError(str(exc))
    out = args.out or f"{args.name}.json"
    instance_io.save_instance(out, net, coms, demand)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poa-phases",
        description="Equilibria, optima, efficiency sweeps, and derivative "
                    "jump analysis for congestion routing instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instance=True):
        if with_instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("--tol-gap", type=float, default=None)
        p.add_argument("--eps-active", type=float, default=None)
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("solve", help="solve one demand point")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="tabulate a demand range")
    common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("breakpoints", help="locate and classify active-set transitions")
    common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--tol-t", type=float, default=1e-7)
    p.add_argument("--eps-probe", type=float, default=None)
    p.set_defaults(func=cmd_breakpoints)

    p = sub.add_parser("fixed-regime", help="solve the sign-relaxed restricted problem")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--regime", default=None,
                   help="comma-separated path ids (default: active set at t)")
    p.set_defaults(func=cmd_fixed_regime)

    p = sub.add_parser("examples", help="write a bundled example instance")
    p.add_argument("name", choices=sorted(corpus.BUILDERS))
    p.add_argument("--eps", type=float, default=1.0,
                   help="slope parameter for contraction-expansion")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (instance_io.InstanceFormatError, ModelError, DemandError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, FixedRegimeError, SensitivityError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
