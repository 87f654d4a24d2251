#!/usr/bin/env python3
"""Benchmark of record for the fbm package.

    python3 perfbench/run.py --workload train-s --seed 1 --seconds 25 --trace 0

Runs one workload (train-s, eval-s or case1-l) in this fresh process on
inputs generated from --seed, checks its outputs, and prints as the last
line one JSON object {correct, attempted, failed, metrics}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the workload runs once
untraced and once traced, and the metrics are the per-layer ones read from
the spans, plus the tracing overhead. See perfbench/README.md.

The fbm sources are imported from src/ of the checkout this file sits in;
without them the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPS = 7
SETUP_HOST_SAMPLES = 3  # host kernel runs after each set-up; see host.py

END_TO_END = {
    "setup_s": "s",
    "step_s_p50": "s",
    "windows_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

# figures on the report line, under the names the workloads give them
FIGURES = {
    "train_windows_per_s": "1/s",
    "eval_windows_per_s": "1/s",
    "eval_batch_s_p50": "s",
    "steps": "count",
    "time_to_target_s": "s",
    "epochs_to_target": "count",
    "setup_raw_s": "s",
    "setup_host_factor": "ratio",
    "step_raw_s_p50": "s",
    "windows_raw_per_s": "1/s",
    "run_raw_s": "s",
    "run_host_factor": "ratio",
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, so the process runs one thread in all (at most nproc).
# On a shared 2-core host a 2-thread pool made back-to-back runs differ by
# ~15% as the second core came and went; with one thread, by ~4%.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_fbm():
    src = ROOT / "src"
    if not (src / "fbm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fbm sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import fbm

    if Path(fbm.__file__).resolve().parent != src / "fbm":
        sys.exit(f"perfbench: imported fbm from {fbm.__file__}, not from {src}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    dirs = [Path(np.__file__).resolve().parent.parent / "numpy.libs"]
    if config.get("lib directory"):
        dirs.append(Path(config["lib directory"]))
    for d in dirs:
        for path in sorted(d.glob("*openblas*.so*")) if d.is_dir() else ():
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return fn()
    return None


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": nproc(),
    }


def tally(outcomes):
    attempted = sum(o.ops + len(o.checks) for o in outcomes)
    failed = sum(o.failed_ops + sum(not ok for ok in o.checks.values()) for o in outcomes)
    return attempted, failed


def run_untraced(workload, args):
    import workloads
    from host import HostSpeed

    host = HostSpeed()
    setups = []
    state = None
    for _ in range(SETUP_REPS):
        state = None  # let the previous model go before building the next
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)
        host.sample(SETUP_HOST_SAMPLES)
    setup_raw_s, setup_factor = statistics.median(setups), host.factor()
    first_run_sample = len(host.samples)
    outcome = workload.run(state, args.seed, args.seconds, str(OUT), host=host)
    run_factor = host.factor(first_run_sample)
    p50 = statistics.median(s for s, _ in outcome.steps)
    windows_per_s = workloads.rate(outcome.steps)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_raw_s / setup_factor,
        "step_s_p50": p50 / run_factor,
        "windows_per_s": windows_per_s * run_factor,
        "run_s": outcome.run_s / run_factor,
        "peak_rss_mb": peak_mb,
    }
    # raw figures, also under the per-workload names where they apply
    report = {"setup_raw_s": setup_raw_s, "setup_reps": SETUP_REPS,
              "setup_host_factor": setup_factor, "step_raw_s_p50": p50,
              "windows_raw_per_s": windows_per_s, "run_raw_s": outcome.run_s,
              "run_host_factor": run_factor, "host_samples": len(host.samples) - first_run_sample,
              "peak_rss_mb": peak_mb, "steps": len(outcome.steps)}
    if workload.trains:
        report.update(train_windows_per_s=windows_per_s)
    else:
        report.update(eval_windows_per_s=windows_per_s, eval_batch_s_p50=p50)
    report.update(outcome.report)
    return metrics, [outcome], report


def run_traced(workload, args):
    from spans import Tracer, per_layer_units

    _, (base,), _ = run_untraced(workload, args)  # the reference for the overhead
    tracer = Tracer()
    with tracer:
        state = workload.setup(args.seed)
        outcome = workload.run(state, args.seed, args.seconds, str(OUT), tracer)
    state = None
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = outcome.run_s - base.run_s
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / base.run_s
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(OUT / f"spans-{stem}.jsonl")
    report = {"untraced_run_s": base.run_s, "traced_run_s": outcome.run_s,
              "spans_file": str((OUT / f"spans-{stem}.jsonl").relative_to(ROOT))}
    units = per_layer_units()
    return {name: metrics[name] for name in units}, [base, outcome], report


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    import_fbm()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env), flush=True)

    if args.trace:
        from spans import per_layer_units

        values, outcomes, report = run_traced(workload, args)
        units = per_layer_units()
    else:
        values, outcomes, report = run_untraced(workload, args)
        units = END_TO_END
    attempted, failed = tally(outcomes)
    correct = failed == 0
    report["checks"] = {k: v for o in outcomes for k, v in o.checks.items()}
    report["loss_checksum"] = [o.checksum for o in outcomes]
    print("report " + json.dumps(report), flush=True)
    for name, value in values.items():
        print(f"  {name:34s} {value:>18.6g} {units[name]}")
    for name, unit in FIGURES.items():
        if name in report:
            print(f"  {name:34s} {report[name]:>18.6g} {unit} (report, not gated)")
    if args.trace:
        with open(OUT / f"result-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"env": env, "report": report, "metrics": values}, f, indent=1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
