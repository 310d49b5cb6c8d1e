"""The measured process: one client running CLI commands in-process.

Modes:

* ``setup``: import poaphases, load the workload's instances, print
  ``ready`` and exit.  The parent times this from process start.
* ``run``: set up, then run passes through ``poaphases.cli.main`` until the
  time budget is spent (the last pass may end up to half a pass past it),
  recording wall and CPU time per pass and the peak resident memory of the
  process.
* ``trace``: spend half the budget on untraced passes and half on traced
  ones, then time the kernel on standalone tables.

Results go to ``<run-dir>/client.json``; traced spans to
``<run-dir>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the path set-up above)


def setup(workload: str, run_dir: Path):
    sys.path.insert(0, str(ROOT / "src"))
    from poaphases import cli, instance_io

    for name in workloads.instance_names(workload):
        instance_io.load_instance(workloads.instance_path(name, run_dir))
    return cli


def run_passes(cli, args, run_dir, first_k, budget, tag):
    passes = []
    start = time.perf_counter()
    k = first_k
    while True:
        cmds = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, (verb, inst, extra) in enumerate(workloads.pass_commands(args.workload, args.seed, k)):
            out = run_dir / f"p{k:03d}-{i}-{verb}-{inst}.{'csv' if verb == 'sweep' else 'json'}"
            argv = [verb, str(workloads.instance_path(inst, run_dir)), *extra, "--out", str(out)]
            t0 = time.perf_counter()
            rc = cli.main(argv)
            cmds.append({"verb": verb, "instance": inst, "out": out.name, "rc": rc,
                         "wall_s": time.perf_counter() - t0})
        wall = time.perf_counter() - wall0
        passes.append({"k": k, "tag": tag, "wall_s": wall,
                       "cpu_s": time.process_time() - cpu0, "commands": cmds})
        k += 1
        # Stop where the run ends nearest the budget: a pass that would end
        # less than half a pass past it still runs.
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical / 2 > budget:
            return passes


def kernel_ns_per_edge(sizes=(7, 200, 20_000)) -> dict:
    """Nanoseconds per edge of one CostTable.values/derivs/primitives call."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_kernels import make_table

    rng = np.random.default_rng(0)
    out = {}
    for n in sizes:
        table = make_table(n, rng)
        xs = [rng.uniform(-1.0, 5.0, size=n) for _ in range(8)]
        calls = max(3, 60_000 // n)
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for r in range(calls):
                x = xs[r % len(xs)]
                table.values(x)
                table.derivs(x)
                table.primitives(x)
            rounds.append((time.perf_counter() - t0) / (3 * calls * n))
        out[f"kernels.ns_per_edge.e{n}"] = statistics.median(rounds) * 1e9
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--run-dir", type=Path, required=True)
    args = ap.parse_args()

    cli = setup(args.workload, args.run_dir)
    if args.mode == "setup":
        print("ready", flush=True)
        return
    result = {}
    if args.mode == "run":
        result["passes"] = run_passes(cli, args, args.run_dir, 0, args.seconds, "plain")
    else:
        import tracer

        plain = run_passes(cli, args, args.run_dir, 0, args.seconds / 2, "plain")
        tr = tracer.Tracer()
        tr.install()
        traced = run_passes(cli, args, args.run_dir, len(plain), args.seconds / 2, "traced")
        tr.uninstall()
        tr.dump(args.run_dir / "spans.jsonl")
        layers = tracer.summarise(tr.spans, tr.orphan, len(traced))
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        layers.update(kernel_ns_per_edge())
        result["passes"] = plain + traced
        result["layers"] = layers
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.run_dir / "client.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
