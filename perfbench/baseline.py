"""Measure a baseline: two sets of untraced runs per workload, then one traced run.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json

It runs `run.py` with tracing off once per seed 1..10 on every workload,
then does the whole set a second time. For each set it reports each
end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median), and for each metric the change
of the second median against the first, next to the metric's bound.
Then it runs every workload once with tracing on and reports each
layer's calls per cycle, total and self time, their shares of the traced
wall time, and the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
SEEDS = list(range(1, 11))
TRACE_SEED = 100


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def measure(workload):
    """One untraced run per seed: end-to-end metrics and detail-line medians."""
    samples, attempted, failed, details = {}, 0, 0, []
    for seed in SEEDS:
        detail, result = run(workload, seed, trace=0)
        print(workload, seed, json.dumps(result), file=sys.stderr, flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        details.append(detail)
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
    return {
        "environment": details[0]["environment"],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {name: summarize(v) for name, v in samples.items()},
        "cycle_walls": [d["cycle_walls"]["untraced"] for d in details],
        "detail_medians": {
            key: statistics.median(d[key] for d in details)
            for key in ("train_s", "bpr_epoch_s", "apr_epoch_s", "evaluate_s",
                        "recommend_ms.p50", "recommend_ms.p90", "recommend_count")
            if details[0][key] is not None
        },
    }


def agreement(first, second):
    """Change of each second-set median against the first, with the bound."""
    rows = {}
    for name, bound in BOUNDS.items():
        a = first["end_to_end"][name]["median"]
        b = second["end_to_end"][name]["median"]
        rows[name] = {"first": a, "second": b, "change": (b - a) / a, "bound": bound,
                      "within": abs(b - a) / a <= bound}
    return rows


def traced(workload):
    detail, result = run(workload, TRACE_SEED, trace=1)
    wall = detail["traced_wall_s"]
    cycles = len(detail["cycle_walls"]["traced"])
    layers = {name: {"calls_per_cycle": row["calls"] / cycles, "s": row["s"],
                     "self_s": row["self_s"], "share": row["s"] / wall,
                     "self_share": row["self_s"] / wall}
              for name, row in detail["layers"].items() if row["calls"]}
    return {
        "seed": TRACE_SEED,
        "correct": result["correct"],
        "wall_s": wall,
        "overhead_s": detail["trace_overhead_s"],
        "overhead_est_s": detail["trace_overhead_est_s"],
        "cycle_walls": detail["cycle_walls"],
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    # The sets run one after the other, so that they also see the machine's drift.
    sets = [{w: measure(w) for w in WORKLOADS} for _ in range(2)]
    doc = {
        "run_seconds": SECONDS,
        "seeds": SEEDS,
        "sets": sets,
        "agreement": {w: agreement(sets[0][w], sets[1][w]) for w in WORKLOADS},
        "traced": {w: traced(w) for w in WORKLOADS},
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
