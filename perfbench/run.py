"""Benchmark of the metric-rec CLI: one workload per run, one JSON line out.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train-mdr --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The workload's corpus is generated from --seed and handed to the program
only as a TSV through `metric-rec prepare`. Set-up is timed separately,
then cycles of CLI commands run for --seconds. Times are calibrated
against the machine's speed of the moment (calibrate.py). The last line
of standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A detail line before it records the environment, the remaining timings,
the uncalibrated medians and the output-check problems.

With --trace 1 the cycles alternate between untraced and traced; the
per-layer metrics come from the traced cycles, the tracing overhead is the
difference of the two medians (and, less noisy, the span count times the
cost of one span), and the spans are written to
.perfbench/trace-<workload>.jsonl.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# Thread counts are pinned, before numpy loads, to one: at most nproc on any
# machine, and free of scheduling noise from the machine's other tenants.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "METRIC_REC_THREADS")}

WORKLOAD_NAMES = ("train-mdr", "train-mass", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import metric_rec from this checkout's src/, never from elsewhere."""
    if not (SRC / "metric_rec" / "cli.py").is_file():
        raise SystemExit(f"error: no metric_rec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import metric_rec.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "metric_rec":
        raise SystemExit(f"error: metric_rec was imported from {cli.__file__}")
    return cli


def environment(seed):
    import numpy as np
    from metric_rec import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": kernels.active_backend(),
        "threads": {name: os.environ[name] for name in PINNED_THREADS},
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank percentile q (0-100) of the samples."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else None


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args):
    cli = import_program()
    import workloads
    import calibrate
    from spans import LAYERS, Tracer, span_cost

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    cal = calibrate.Calibrator()
    work = workloads.Workload(args.workload, cli, cal, args.seed, OUT / f"work-{args.workload}")
    tracer = Tracer(sys.modules["metric_rec"])
    walls = {False: [], True: []}
    # Training takes calibration slices between its batches, except in
    # traced cycles, where they would count in the layers' times.
    cal.install(cli.training, "adam_update")
    try:
        work.setup()
        work.warm_up()
        deadline = time.perf_counter() + args.seconds
        traced = False
        # A traced run needs at least one cycle of each kind.
        while time.perf_counter() < deadline or (args.trace and not walls[True]):
            if traced:
                cal.uninstall()
                tracer.install(run_id=len(walls[True]))
            try:
                walls[traced].append(work.cycle())
            finally:
                tracer.uninstall()
                if traced:
                    cal.install(cli.training, "adam_update")
            traced = bool(args.trace) and not traced
        cal.slice()  # so that the last region has slices on both sides
    finally:
        cal.uninstall()
        work.close()

    # Every timing from here on is in calibrated seconds (or ms).
    t = {key: [cal.scale(r) for r in regions] for key, regions in work.timings.items()}
    cycles = {traced: [cal.scale(r) for r in regions] for traced, regions in walls.items()}
    detail = {
        "workload": args.workload,
        "environment": env,
        "calibration": {"slices": len(cal.seconds), "median_slice_s": median(cal.seconds),
                        "nominal_slice_s": calibrate.NOMINAL_SLICE_S},
        "cycle_walls": {"untraced": cycles[False], "traced": cycles[True]},
        "cycle_s_raw": median([r.seconds for r in walls[False]]),
        "setup_s_raw": median([r.seconds for r in work.timings["setup_s"]]),
        "train_s": median(t["train_s"]),
        "bpr_epoch_s": median(t["bpr_epoch_s"]),
        "apr_epoch_s": median(t["apr_epoch_s"]),
        "evaluate_s": median(t["evaluate_s"]),
        "recommend_ms.p50": median(t["recommend_ms"]),
        "recommend_ms.p90": percentile(t["recommend_ms"], 90),
        "recommend_count": len(t["recommend_ms"]),
        "setup_repeats": len(t["setup_s"]),
        "hit10": work.hit10,
        "fail_ratio": work.failed / max(1, work.attempted),
        "problems": work.problems[:20],
    }
    if args.trace:
        wall = sum(r.seconds for r in walls[True])
        traced_cycles = len(walls[True])
        totals = tracer.layer_totals()
        metrics = {}
        for name in LAYERS:
            row = totals[name]
            # Per traced cycle, so that a faster program, which fits more
            # cycles into --seconds, does not report more calls.
            metrics[f"{name}.calls_per_cycle"] = {"value": row["calls"] / traced_cycles,
                                                  "unit": "count"}
            metrics[f"{name}.share"] = {"value": 100.0 * row["s"] / wall, "unit": "%"}
            metrics[f"{name}.self_share"] = {"value": 100.0 * row["self_s"] / wall, "unit": "%"}
        detail["layers"] = totals
        detail["traced_wall_s"] = wall
        # Measured (noisy at this cycle count) and estimated from the span count.
        detail["trace_overhead_s"] = median(cycles[True]) - median(cycles[False])
        detail["trace_overhead_est_s"] = span_cost() * len(tracer.spans) / traced_cycles
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": median(t["setup_s"]), "unit": "s"},
            "cycle_s": {"value": median(cycles[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    return {"correct": work.failed == 0, "attempted": work.attempted,
            "failed": work.failed, "metrics": metrics}, detail


def run_all(args):
    """Run each workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print(lines[-2] if len(lines) > 1 else "", flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PINNED_THREADS)
    if args.workload == "all":
        result = run_all(args)
    else:
        result, detail = run_workload(args)
        print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
