"""Run every workload over several seeds and print each end-to-end metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workload corpus-sweep ...]

For each workload and metric it prints the median over the seeds, the
quartile spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, the operations attempted and failed, and whether every
output was correct.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            runs.append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values} "
                  f"({took:.1f} s)", flush=True)
        if not runs:
            continue
        ok &= all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            print(f"  {name:12s} median {med:10.4f} {m['unit']:3s} spread {spread:6.2%} "
                  f"(bound {m['bound']:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
