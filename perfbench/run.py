"""Benchmark of the tick -> backtest workflow: prepare, backtest, study.

    python3 perfbench/run.py --workload prepare --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
src/. With --trace 0 the run prints the end-to-end metrics of one
workload; with --trace 1 it runs every workload under spans and prints
the per-layer metrics. --workload all runs each workload in its own
process, one after another, and prints all their metrics. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. Spans and results are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Recorder

# BLAS and OpenMP pools are fixed to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("prepare", "backtest", "study")
SETUP_INTERPRETERS = 3
MODULES = ("intgarch", "intgarch.exceptions", "intgarch.intervals", "intgarch.process",
           "intgarch.simulate", "intgarch.estimate", "intgarch.forecast",
           "intgarch.marketdata", "intgarch.evaluate", "intgarch.cli")
PROBE_SIZES = (("T1e3", 1_000), ("T1e4", 10_000), ("T1e5", 100_000))
PROBE_SECONDS = 0.5  # repeat a probe at least this long, taking the median
KERNEL_EVERY_S = 0.75


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median over fresh interpreters of the time to import intgarch.cli."""
    code = ("import time; t = time.perf_counter(); import intgarch.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_INTERPRETERS):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def import_times() -> dict:
    """Cumulative import time of each intgarch module from -X importtime."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import intgarch.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    found = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in MODULES:
            found[parts[2].strip()] = int(parts[1]) * 1e-6
    return {f"{m}.import_s": v for m, v in found.items()}


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Attempts:
    """Counts operations and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, workload, x):
        self.attempted += 1
        try:
            return workload.run(x)
        except Exception as exc:  # an operation's failure is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{workload.name}: {type(exc).__name__}: {exc}")
            return 0, None


def capture_and_check(workload, jobs) -> list:
    """Run the first `capture` operations with every hook recording its
    calls, then check their outputs with the oracles."""
    problems = []
    for x in jobs[: workload.capture]:
        rec = Recorder(keep=True)
        for hook in workload.hooks():
            rec.wrap(*hook)
        try:
            _, output = workload.run(x)
        except Exception as exc:
            problems.append(f"{workload.name}: capture operation failed: {type(exc).__name__}: {exc}")
            continue
        finally:
            rec.close()
        problems += workload.check(x, rec, output)
    return problems


def timed(workload, seed: int, seconds: float, workdir: str) -> tuple:
    """Whole rounds of the workload, with the reference kernel timed before
    the first operation and then after any operation that ends at least
    KERNEL_EVERY_S after the last kernel run."""
    from reference import kernel, reference_units
    jobs = workload.inputs(seed, workdir)
    problems = capture_and_check(workload, jobs)
    for _ in range(3):  # warm-up
        kernel()
    attempts = Attempts()
    op_times, kernel_times, items, rounds = [], [], 0, 0
    clock = time.perf_counter

    def time_kernel() -> float:
        t = clock()
        kernel()
        end = clock()
        kernel_times.append(end - t)
        return end

    start = clock()
    last_kernel = time_kernel()
    while True:
        for x in jobs:  # whole rounds only
            t = clock()
            n, _ = attempts.run(workload, x)
            end = clock()
            op_times.append(end - t)
            items += n
            if end - last_kernel >= KERNEL_EVERY_S:
                last_kernel = time_kernel()
        rounds += 1
        # stop when one more round of the mean length would end past `seconds`
        if (clock() - start) * (rounds + 1) / rounds > seconds:
            break
    wall = clock() - start
    # A slow phase lengthens the summed operation time by its share of
    # the run, and the mean kernel time, sampled evenly in time, by the
    # same share; the median operation and the median kernel time move
    # only when it covers most of the run.
    total_ref = sum(op_times) / statistics.fmean(kernel_times)
    q1, p50, q3 = statistics.quantiles(reference_units(op_times, kernel_times), n=4)
    metrics = {
        "items_per_ref": (items / total_ref, "items/ref"),
        "op_ref_p50": (p50, "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    # wall-clock figures, printed beside the metrics but not bounded
    extra = {"op_ref_q1": q1, "op_ref_q3": q3, "ops": len(op_times), "rounds": rounds,
             "round_size": len(jobs), "items": items, "wall_s": wall,
             "items_per_s": items / sum(op_times), "op_s_p50": statistics.median(op_times),
             "kernel_s_p50": statistics.median(kernel_times), "kernel_runs": len(kernel_times),
             "kernel_share": sum(kernel_times) / wall}
    return metrics, extra, attempts, problems


def traced(seed: int, seconds: float, workdir: str, trace_path: Path) -> tuple:
    """Every workload under spans, alternating with untraced operations on
    the same input, then the scaling probes and the import times."""
    from workloads import WORKLOADS
    metrics, extra, problems = {}, {}, []
    attempts = Attempts()
    spans = []
    clock = time.perf_counter
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        jobs = workload.inputs(seed, workdir)
        problems += capture_and_check(workload, jobs)
        rec = Recorder()
        ratios, plain_times, ops = [], [], 0
        start = clock()
        while ops == 0 or clock() - start < seconds / len(WORKLOAD_NAMES):
            x = jobs[ops % len(jobs)]
            t = clock()
            attempts.run(workload, x)
            plain = clock() - t
            plain_times.append(plain)
            for hook in workload.hooks():
                rec.wrap(*hook)
            t = clock()
            attempts.run(workload, x)
            ratios.append((clock() - t) / plain)
            rec.close()
            ops += 1
        summary = rec.summary()
        root = workload.hooks()[0][2]  # the function the benchmark itself calls
        if root not in summary:
            problems.append(f"{name}: the traced run recorded no {root} span")
        for span, row in summary.items():
            for key, value in row.items():
                metrics[f"{name}.{span}.{key}"] = (value / ops, "s" if key == "self_s" else "count")
        metrics[f"{name}.trace_overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
        extra[f"{name}.traced_ops"] = ops
        extra[f"{name}.untraced_op_s_p50"] = statistics.median(plain_times)
        spans += [dict(s, workload=name) for s in rec.spans]
    metrics.update(probes())
    metrics.update({k: (v, "s") for k, v in import_times().items()})
    with open(trace_path, "w") as fh:
        json.dump(spans, fh)
    return metrics, extra, attempts, problems


def _median_time(fn, *args) -> float:
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < PROBE_SECONDS:
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probes() -> dict:
    """Direct calls on design I at T = 1e3, 1e4, 1e5."""
    import importlib
    import tracemalloc
    from intgarch import estimate, evaluate
    from intgarch.process import ModelOrders
    simulate = importlib.import_module("intgarch.simulate")  # not the re-exported function
    design = evaluate.BENCHMARK_DESIGNS["I"]
    out = {}
    for label, length in PROBE_SIZES:
        config = simulate.SimConfig(design, length=length, seed=length)
        series, _ = simulate.simulate(config)
        out[f"simulate.simulate.{label}_s"] = _median_time(simulate.simulate, config)
        out[f"estimate.loglik_eval.{label}_s"] = _median_time(estimate.loglik_eval, design, series)
        out[f"estimate.score_and_hessian.{label}_s"] = _median_time(
            estimate.score_and_hessian, design, series)
        out[f"estimate.fit_mle.{label}_s"] = _median_time(
            estimate.fit_mle, series, ModelOrders(1, 1, 1))
        if length == 100_000:
            tracemalloc.start()
            estimate.score_and_hessian(design, series)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    metrics = {k: (v, "s") for k, v in out.items()}
    metrics["estimate.score_and_hessian.T1e5_alloc_mb"] = (peak / 2**20, "MiB")
    return metrics


def declared_metrics(trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    from oracles import KNOWN_FAULT, excess_known_faults
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, extra, attempts, problems = traced(
                args.seed, args.seconds, str(workdir), OUT / f"trace-{tag}.json")
        else:
            setup_s = measure_setup()
            metrics, extra, attempts, problems = timed(
                WORKLOADS[args.workload], args.seed, args.seconds, str(workdir))
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = declared_metrics(args.trace)
    missing = [m for m in declared if m not in metrics]
    if args.trace:
        # A function the program no longer calls had 0 calls and 0 s of
        # self time. Each such metric is named on standard error, so that
        # a hook that lost its caller is not read as a gain.
        metrics.update({m: (0.0, declared[m]) for m in missing})
        extra.update({"not_observed": missing} if missing else {})
        for m in missing:
            print(f"not observed: {m}", file=sys.stderr)
    else:
        problems += [f"metric {m} was not measured" for m in missing]
    known = Counter(p for p in problems if p.startswith(KNOWN_FAULT))
    problems = [p for p in problems if not p.startswith(KNOWN_FAULT)]
    problems += excess_known_faults(known)
    for line in attempts.errors + problems:
        print(line, file=sys.stderr)
    for line, times in known.items():
        print(f"# {line} ({times} of the checked calls)")
    facts = machine_facts()
    print(f"# {tag}: " + json.dumps(facts))
    for key, value in extra.items():
        print(f"# {key} = {value}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:58s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(dict(result, machine=facts, extra=extra, known_faults=known), fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in sorted(res["metrics"].items()):
            print(f"  {metric:58s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intgarch" / "__init__.py").is_file():
        print(f"error: no intgarch sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.trace:  # a traced run covers every workload
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
