"""Steadiness of one workload across fresh processes.

    python3 perfbench/steady.py --workload backtest --runs 10 --first-seed 1

Runs perfbench/run.py N times for run_seconds of BENCHMARK.json, one
after another, each time in a fresh process with the next seed, and prints for every end-to-end metric its
median, first and third quartile, and the spread (Q3 - Q1) / median
beside the metric's bound from BENCHMARK.json, and the same figures for
the unbounded wall-clock items_per_s and op_s_p50 of each run. The values
of every run are written to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WALL_CLOCK = ("items_per_s", "op_s_p50")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        saved = json.loads((HERE / "out" / f"result-{args.workload}-seed{seed}-trace0.json").read_text())
        wall = {k: saved["extra"][k] for k in WALL_CLOCK}
        runs.append(dict(result, seed=seed, wall_clock=wall))
        values = "  ".join(f"{k}={m['value']:.5g}" for k, m in sorted(result["metrics"].items()))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    rows = [(m["name"], [r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            for m in spec["end_to_end"]]
    rows += [(name, [r["wall_clock"][name] for r in runs], None) for name in WALL_CLOCK]
    for name, values, bound in rows:
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        tail = f"{bound:6.2f} {spread / bound:12.2f}" if bound else f"{'-':>6s} {'-':>12s}"
        print(f"{name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {tail}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; correct in every run: {all(r['correct'] for r in runs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
