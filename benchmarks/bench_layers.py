"""Layer timings at the paper's shapes, written to BENCH_<tag>.json.

    python benchmarks/bench_layers.py --tag <tag> [--root <checkout>] [--out <dir>]

Times `models.forward` and `models.backward` for MDR `ups` and for MASS `us`
with `mem_metric` and with `nonmem_dot` attention, `training.adam_update`
on each of those parameter sets, and `training.draw_negatives`. Shapes: a
minibatch of B = 256 contexts, k = 4 negatives (C = 1 + k candidates),
l = 61 members per context, d in {8, 16, 32, 64} and V in {2,000; 20,000}
songs, with V / 4 users and V / 4 playlists. Each row is the median of
repeated calls after a warm-up, in microseconds.

`metric_rec` is imported from `<root>/src` (default: this checkout), so
the same script times another checkout through entry points both share.
BLAS threads are pinned to 1 before numpy loads. It runs in about a minute
on 2 vCPUs.
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys
import time

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402  (after the thread pinning)

B, K_NEG, L = 256, 4, 61
DIMS = (8, 16, 32, 64)
SONGS = (2_000, 20_000)
MODELS = (
    ("mdr", "ups", ""),
    ("mass", "us", "mem_metric"),
    ("mass", "us", "nonmem_dot"),
)
WARMUP = 3
MIN_REPS, MAX_REPS, BUDGET_S = 5, 30, 0.4


def _median_us(fn):
    """Median wall time of fn() in us, after WARMUP calls."""
    for _ in range(WARMUP):
        fn()
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or (len(times) < MAX_REPS
                                    and time.perf_counter() - start < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6, len(times)


def _environment(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "git_commit": commit,
        "src_modified": bool(dirty),
    }


def _batch(models, rng, v, num_users, num_playlists):
    members = rng.integers(1, v + 1, size=(B, L))
    return models.ScoreBatch(
        users=rng.integers(0, num_users, B), playlists=rng.integers(0, num_playlists, B),
        songs=rng.integers(1, v + 1, size=(B, 1 + K_NEG)),
        members=members, counts=np.full(B, L),
    )


def _model_rows(metric_rec, rng):
    models, params_mod, training = metric_rec.models, metric_rec.params, metric_rec.training
    rows = []
    for v in SONGS:
        m = n = v // 4
        for d in DIMS:
            for kind, variant, attention in MODELS:
                if kind == "mdr":
                    params = params_mod.init_mdr(m, n, v, d, rng, variant=variant)
                else:
                    params = params_mod.init_mass(m, n, v, d, rng, variant=variant,
                                                  attention=attention)
                batch = _batch(models, rng, v, m, n)
                scores, cache = models.forward(params, batch)
                dscores = rng.normal(size=scores.shape)
                grads = params.zero_like()
                state = training.AdamState()
                calls = (
                    ("models.forward", lambda: models.forward(params, batch)),
                    ("models.backward",
                     lambda: models.backward(params, batch, cache, dscores, grads)),
                    ("training.adam_update",
                     lambda: training.adam_update(params, grads, state, 1e-3)),
                )
                for layer, fn in calls:
                    us, reps = _median_us(fn)
                    rows.append({"layer": layer, "model": f"{kind} {variant} {attention}".strip(),
                                 "B": B, "C": 1 + K_NEG, "l": L, "d": d, "V": v,
                                 "median_us": round(us, 1), "reps": reps})
    return rows


def _sampler_rows(metric_rec, rng):
    rows = []
    for v in SONGS:
        # every context's playlist holds 63 songs, the playlist-length cap
        full = np.sort(np.stack([rng.choice(np.arange(1, v + 1), 63, replace=False)
                                 for _ in range(B)]), axis=1)
        gaps = full - np.arange(63) - 1
        pool_sizes = np.full(B, v - 63)
        us, reps = _median_us(
            lambda: metric_rec.training.draw_negatives(pool_sizes, gaps, K_NEG, rng))
        rows.append({"layer": "training.draw_negatives", "model": "", "B": B, "k": K_NEG,
                     "V": v, "median_us": round(us, 1), "reps": reps})
    return rows


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", default=os.path.dirname(here),
                        help="checkout whose src/ is timed (default: this one)")
    parser.add_argument("--out", default=here, help="directory for BENCH_<tag>.json")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import metric_rec.models
    import metric_rec.params
    import metric_rec.training

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    rows = _model_rows(metric_rec, rng) + _sampler_rows(metric_rec, rng)
    doc = {"tag": args.tag, "environment": _environment(root),
           "seconds": round(time.perf_counter() - t0, 1), "rows": rows}
    path = os.path.join(args.out, f"BENCH_{args.tag}.json")
    metric_rec.dataset.write_json(doc, path)
    print(f"wrote {path} ({len(rows)} rows, {doc['seconds']} s)")


if __name__ == "__main__":
    main()
