"""Benchmark of the poaphases CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout of the repository (it imports
``src/poaphases``).  The run:

1. writes the workload's inputs (the grid instance, from its fixed seed);
2. times set-up in fresh processes (``SETUP_PROBES`` of them; the median is
   ``setup_s``);
3. starts one client process that runs whole passes of the workload's CLI
   commands for ``--seconds`` (``client.py``);
4. checks every output against the independent oracles (``oracle.py``);
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

Outputs and traces are kept under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gridgen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
CLIENT_TIMEOUT_S = 150


def _client(mode, args, run_dir):
    return [sys.executable, str(HERE / "client.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--run-dir", str(run_dir)]


def time_setup(args, run_dir) -> float:
    """Median time from process start until the instances are loaded."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(_client("setup", args, run_dir), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with exit code {rc}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def check_outputs(passes, run_dir, instances):
    """Oracle checks of every successful command; returns failure messages."""
    fails = []
    seen = {}
    for p in passes:
        for cmd in p["commands"]:
            if cmd["rc"] != 0:
                continue
            out = run_dir / cmd["out"]
            name = cmd["instance"]
            try:
                if cmd["verb"] == "sweep":
                    f, ts = oracle.check_sweep_csv(instances[name], out)
                elif cmd["verb"] == "solve":
                    f, t = oracle.check_solve_json(instances[name], out)
                    ts = [t]
                else:
                    f, ts = oracle.check_breakpoints_json(name, out)
            except RuntimeError as exc:
                f, ts = [f"{out}: {exc}"], []
            fails += f
            for t in ts:
                if (name, t) in seen:
                    fails.append(f"{out}: demand t={t!r} on {name} already asked in {seen[name, t]}")
                seen[name, t] = cmd["out"]
    return fails


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "poaphases" / "cli.py").is_file():
        print(f"error: no poaphases sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    names = workloads.instance_names(args.workload)
    if "grid" in names:
        (run_dir / "grid.json").write_text(json.dumps(gridgen.make_grid(workloads.GRID_SEED)))

    setup_s = time_setup(args, run_dir) if not args.trace else None
    mode = "trace" if args.trace else "run"
    proc = subprocess.run(_client(mode, args, run_dir), timeout=CLIENT_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: client exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads((run_dir / "client.json").read_text())
    passes = result["passes"]

    instances = {n: oracle.load_instance(workloads.instance_path(n, run_dir)) for n in names}
    fails = check_outputs(passes, run_dir, instances)
    for msg in fails[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    commands = [c for p in passes for c in p["commands"]]

    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not fails,
        "attempted": len(commands),
        "failed": sum(c["rc"] != 0 for c in commands),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
