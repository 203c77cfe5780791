"""Layer timings at the paper's shapes, written to BENCH_<tag>.json.

    python benchmarks/bench_layers.py --tag <tag> [--root <checkout>] [--out <dir>]
                                      [--against <checkout or git revision>]

Rows, at V in {2,000; 20,000} songs with V / 4 users and V / 4 playlists:
- for MDR `ups` and for MASS `us` with `mem_metric` and with `nonmem_dot`
  attention, at d in {8, 16, 32, 64}: `models.forward` and `models.backward`
  on a minibatch of B = 256 contexts, k = 4 negatives (C = 1 + k candidates)
  and l = 61 members; `training.adam_update`; one whole `step` (forward, loss
  and backward into a zeroed gradient arena by `training.gradients`, then
  `training.adam_update`); `evaluation.rank_candidates` on one ranking of
  B = 300 contexts of l = 61 members, C = 101 distinct candidates each;
  `params.save_checkpoint` of the parameter set, the JSON and its arena
  file; and `params.load_checkpoint` of the checkpoint that the timed
  checkout's own `save_checkpoint` wrote there;
- `training.train`, one BPR epoch and one APR epoch without dev lists, for
  MDR `ups` and MASS `us` `mem_metric` at d = 32 with B = 256 and k = 4, on
  the 976 training instances of 16 playlists of 63 songs split by the timed
  checkout's own `prepare`; each row trains its own copy of the parameter
  set, one group per V;
- `training._make_batch`, a minibatch's negatives and index gathers: MDR at
  B = 256 without members, MASS at B = 16 and 256 with l = 61 members
  gathered from the split's rows;
- `training.build_train_data` and `evaluation.held_out`, the per-split work of
  `train` and `evaluate`, on 3 V / 20 playlists of 63 songs split by the
  timed checkout's own `prepare`;
- `dataset.load_split_dir` followed by the catalog's `fingerprint()`, what
  every `train`, `evaluate` and `recommend` does first, on a split directory
  that the timed checkout's own `prepare` wrote (V / 4 playlists of 63 songs,
  each owned by its own user): through the JSON with the companion deleted,
  then through the split companion;
- `dataset.prepare`, from the TSV to the three files of a split directory, on
  the perfbench `train-mdr` corpus at seed 1 (300 playlists of 5-30 songs
  over 2,000 songs, 5,250 rows) and on one of 3,000 playlists of 5-63 songs
  over 20,000 songs (102,000 rows), each its own group, with
  `dataset.leave_one_out`, the split of `prepare`'s indexed rows, beside it;
- `cli.evaluate` and `cli.recommend`, end to end: `evaluate` and a top-10
  `recommend` of a MASR manifest, run in-process through `cli.main` as
  perfbench runs them, over perfbench `serve`'s MDR `ups` and MASS `us`
  `nonmem_dot` models at d = 32, untrained, on the same two corpora, all
  written by the timed checkout's own `prepare` and `train`; a group per
  corpus;
- `cli.attention_report`, end to end: `attention-report` run in-process
  through `cli.main` over an untrained MASS `us` `mem_metric` model at
  d = 32 on the same two corpora, a group per corpus.

Each kind of row yields groups of calls, and each group is timed interleaved:
after a warm-up, each round calls each of its calls once, over a fixed number
of rounds, so that drift in the host's speed reaches all of them alike. Each
row records the median and the quartiles of its calls, in microseconds. The
rows that share a parameter set form a group, as do the minibatch rows and
the split-consumer rows; a checkpoint save and a checkpoint load, each of
which allocates and frees several times the parameter set, and each
split-load row form groups of their own.
Forward, backward and step score a fresh copy of the batch on every call, so
they time a pass that builds the batch's index plan (see `models.ScoreBatch`).
At V = 20,000 single rows can trade page faults and cache state with their
neighbours; compare the step rows there.

`metric_rec` is imported from `<root>/src` (default: this checkout). With
`--against <checkout>`, that checkout's `src/` is imported too, under another
package name, and group i of each tree runs in the same rounds, on the same
inputs. `--against <revision>` names a git revision of `<root>` instead: its
`src/` is taken from `git archive`, so that neither side is a separate
clone. Every row then records its `tree` (`root` or `against`) and `ratio`,
the median over rounds of its time over the other tree's in the same round;
a group whose rows (layer and shape) differ between the trees is refused
with an error that names it, since its rows cannot be paired. Separate runs
of two checkouts have read unchanged rows 1.2-1.8x apart on one host; rows
interleaved in one process share its drift. BLAS threads are
pinned to 1 before numpy loads. A run takes about two and a half minutes on
2 vCPUs, and about twice that with `--against`, of which the `training.train`
rows take about 30 s per tree; about seven minutes against a tree whose
`attention-report` counts every song pair of every train list.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402  (after the thread pinning)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import corpus  # noqa: E402  (perfbench's corpus generator)
from workloads import WORKLOADS, write_config  # noqa: E402  (its serve workload)

B, K_NEG, L = 256, 4, 61
# a dev or test ranking: 300 playlists, each ranking 1 held-out song + 100 negatives
RANK_B, RANK_C = 300, 101
DIMS = (8, 16, 32, 64)
SONGS = (2_000, 20_000)
MODELS = (
    ("mdr", "ups", ""),
    ("mass", "us", "mem_metric"),
    ("mass", "us", "nonmem_dot"),
)
WARMUP, ROUNDS = 3, 20
# the `training.train` rows' instances: 61 train songs of each playlist
TRAIN_PLAYLISTS = 16


def _interleaved_times(calls):
    """Wall times in s of each fn of `calls`, a list of (row, fn), timed once
    per round over ROUNDS rounds after WARMUP calls."""
    for _, fn in calls:
        for _ in range(WARMUP):
            fn()
    times = [[] for _ in calls]
    for _ in range(ROUNDS):
        for (_, fn), row_times in zip(calls, times):
            t0 = time.perf_counter()
            fn()
            row_times.append(time.perf_counter() - t0)
    return times


def _row(row, times):
    """`row` with the median and quartiles of `times` in us added."""
    q1, median, q3 = (round(q * 1e6, 1)
                      for q in statistics.quantiles(times, n=4, method="inclusive"))
    return dict(row, median_us=median, q1_us=q1, q3_us=q3, reps=len(times))


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


def _against(root, against, tmp, parser):
    """(directory holding the other side's src/, its environment): `against`
    when it is a directory, else revision `against` of the checkout `root`,
    whose src/ `git archive` extracts into `tmp`."""
    if os.path.isdir(against):
        return os.path.abspath(against), _environment(os.path.abspath(against))
    commit = subprocess.run(["git", "-C", root, "rev-parse", "--verify", "--quiet",
                             f"{against}^{{commit}}"], capture_output=True, text=True).stdout.strip()
    if not commit:
        parser.error(f"--against {against}: neither a directory nor a git revision of {root}")
    archive = subprocess.run(["git", "-C", root, "archive", commit, "src"],
                             capture_output=True, check=True).stdout
    path = os.path.join(tmp, "against-src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(path, filter="data")
    return path, dict(_environment(root), git_commit=commit, src_modified=False,
                      source=f"git archive {against}")


def _load_tree(root, name):
    """The package `<root>/src/metric_rec` imported as `name`, beside `metric_rec`;
    its modules import one another relatively, so each tree keeps its own."""
    init = os.path.join(root, "src", "metric_rec", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    for module in ("cli", "dataset", "evaluation", "models", "params", "training"):
        importlib.import_module(f"{name}.{module}")
    return package


def _batch(models, rng, v, num_users, num_playlists):
    members = rng.integers(1, v + 1, size=(B, L))
    return models.ScoreBatch(
        users=rng.integers(0, num_users, B), playlists=rng.integers(0, num_playlists, B),
        songs=rng.integers(1, v + 1, size=(B, 1 + K_NEG)),
        members=members, counts=np.full(B, L),
    )


def _fresh(models, batch):
    """A copy of `batch` that has not been scored yet."""
    return models.ScoreBatch(batch.users, batch.playlists, batch.songs, batch.members,
                             batch.counts)


def _held_out(models, rng, v, num_users, num_playlists):
    """RANK_B contexts of L members, each ranking RANK_C distinct candidates."""
    songs = np.array([rng.choice(v, RANK_C, replace=False) + 1 for _ in range(RANK_B)])
    return models.ScoreBatch(
        users=rng.integers(0, num_users, RANK_B),
        playlists=rng.integers(0, num_playlists, RANK_B), songs=songs,
        members=rng.integers(1, v + 1, size=(RANK_B, L)), counts=np.full(RANK_B, L),
    )


def _step(training, params, batch, grads, state):
    training.gradients(params, batch, out=grads)
    training.adam_update(params, grads, state, 1e-3)


def _model_groups(metric_rec, rng, tmp):
    models, params_mod, training = metric_rec.models, metric_rec.params, metric_rec.training
    evaluation = metric_rec.evaluation
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
                held = _held_out(models, rng, v, m, n)
                scorer = models.make_scorer(params)
                scores, cache = models.forward(params, batch)
                dscores = rng.normal(size=scores.shape)
                grads = params.zero_like()
                state = training.AdamState()
                shape = {"model": f"{kind} {variant} {attention}".strip(),
                         "B": B, "C": 1 + K_NEG, "l": L, "d": d, "V": v}
                checkpoint = {"model": shape["model"], "d": d, "V": v}
                yield [
                    (dict(shape, layer="models.forward"),
                     lambda: models.forward(params, _fresh(models, batch))),
                    (dict(shape, layer="models.backward"),
                     lambda: models.backward(params, _fresh(models, batch), cache, dscores,
                                             grads)),
                    (dict(shape, layer="training.adam_update"),
                     lambda: training.adam_update(params, grads, state, 1e-3)),
                    (dict(shape, layer="step"),
                     lambda: _step(training, params, _fresh(models, batch), grads, state)),
                    (dict(shape, layer="evaluation.rank_candidates", B=RANK_B, C=RANK_C),
                     lambda: evaluation.rank_candidates(scorer, held)),
                ]
                path = os.path.join(tmp, f"{kind}-{attention}-{v}-{d}.json")
                yield [(dict(checkpoint, layer="params.save_checkpoint"),
                        lambda: params_mod.save_checkpoint(params, path))]
                yield [(dict(checkpoint, layer="params.load_checkpoint"),
                        lambda: params_mod.load_checkpoint(path))]
                for name in os.listdir(tmp):
                    os.remove(os.path.join(tmp, name))


def _split(dataset, rng, v, n, tmp):
    """The split that `dataset.prepare` makes, in `tmp`, of n playlists of 63
    songs, the playlist-length cap, drawn from V songs, each owned by its own
    user: 61 train songs, a dev and a test song each."""
    tsv = os.path.join(tmp, f"split-{v}-{n}.tsv")
    corpus.write_tsv([(f"u{p}", f"p{p}", f"s{s}") for p in range(n)
                      for s in rng.choice(np.arange(1, v + 1), L + 2, replace=False)], tsv)
    return dataset.prepare(tsv, os.path.join(tmp, f"split-{v}-{n}"), seed=0)[1]


def _train_groups(metric_rec, rng, tmp):
    """One group per V: `training.train` for one BPR and one APR epoch, without
    dev lists, of MDR `ups` and MASS `us` `mem_metric` at d = 32, on the
    instances of TRAIN_PLAYLISTS playlists of 63 songs; each row trains its
    own parameter set, from the same start in both trees."""
    params_mod, training = metric_rec.params, metric_rec.training
    hyper = training.Hyperparams(d=32, epochs=1, batch_size=B, negatives_per_positive=K_NEG)
    for v in SONGS:
        m = n = v // 4
        data = training.build_train_data(
            _split(metric_rec.dataset, rng, v, TRAIN_PLAYLISTS, tmp), v)
        calls = []
        for model, params in (
                ("mdr ups", params_mod.init_mdr(m, n, v, 32, rng, variant="ups")),
                ("mass us mem_metric", params_mod.init_mass(m, n, v, 32, rng, variant="us",
                                                           attention="mem_metric"))):
            for mode in ("bpr", "apr"):
                calls.append(({"layer": "training.train", "mode": mode, "model": model,
                               "instances": len(data), "B": B, "k": K_NEG, "d": 32, "V": v},
                              lambda p=params.copy(), d=data, mode=mode:
                              training.train(p, d, None, hyper, mode=mode)))
        yield calls


def _sampler_groups(metric_rec, rng, tmp):
    """`training._make_batch` for MDR, which asks for no members, and for MASS
    at B and at 16, one instance of each of B playlists per minibatch."""
    training = metric_rec.training
    calls = []
    for v in SONGS:
        data = training.build_train_data(_split(metric_rec.dataset, rng, v, B, tmp), v)
        for kind, size in (("mdr", B), ("mass", 16), ("mass", B)):
            calls.append(({"layer": "training._make_batch", "model": kind, "B": size,
                           "k": K_NEG, "l": L, "V": v},
                          lambda d=data, i=np.arange(size) * L, m=kind == "mass":
                          training._make_batch(i, d, K_NEG, rng, members=m)))
    yield calls


def _split_consumer_groups(metric_rec, rng, tmp):
    """`training.build_train_data` and `evaluation.held_out` (the test lists)
    on the split of 3 V / 20 playlists."""
    calls = []
    for v in SONGS:
        n = 3 * v // 20
        split = _split(metric_rec.dataset, rng, v, n, tmp)
        shape = {"model": "", "playlists": n, "l": L, "V": v}
        calls += [
            (dict(shape, layer="training.build_train_data"),
             lambda s=split, v=v: metric_rec.training.build_train_data(s, v)),
            (dict(shape, layer="evaluation.held_out"),
             lambda s=split, v=v: metric_rec.evaluation.held_out(s, v)),
        ]
    yield calls


def _split_dir_groups(metric_rec, rng, tmp):
    """One group per split-load row, the JSON row of each V first: a JSON load
    ran 1.2-1.7x faster right after another JSON load of the same ids than
    right after a companion load."""
    dataset = metric_rec.dataset
    for v in SONGS:
        n = v // 4
        # a stream of shuffled catalogs, cut into playlists, so every song occurs
        stream = np.concatenate([rng.permutation(v) for _ in range(-(-n * (L + 2) // v))])
        tsv = os.path.join(tmp, f"split-{v}.tsv")
        with open(tsv, "w", encoding="utf-8") as f:
            for p in range(n):
                for s in stream[p * (L + 2):(p + 1) * (L + 2)]:
                    f.write(f"u{p}\tp{p}\ts{s}\n")
        for source in ("json", "companion"):
            d = os.path.join(tmp, f"split-{v}-{source}")
            dataset.prepare(tsv, d, seed=0)
            if source == "json":
                os.remove(os.path.join(d, dataset.SPLIT_ARENA))
            yield [({"layer": "dataset.load_split_dir", "model": "", "source": source,
                     "playlists": n, "l": L, "V": v},
                    lambda: dataset.load_split_dir(d)[0].fingerprint())]


def _prepare_groups(metric_rec, rng, tmp):
    """One group per corpus: `dataset.prepare` of the train-mdr corpus and of
    the 102,000-row one, and its `dataset.leave_one_out` of the same rows."""
    dataset = metric_rec.dataset
    for n, v, max_len in ((300, 2_000, 30), (3_000, 20_000, 63)):
        rows = corpus.planted_rows(1, n, v, 5, max_len)
        tsv = os.path.join(tmp, f"prepare-{n}.tsv")
        corpus.write_tsv(rows, tsv)
        out = os.path.join(tmp, f"prepare-{n}")
        catalog, codes = dataset.index_interactions(*dataset.read_interactions(tsv))
        shape = {"model": "", "playlists": n, "rows": len(rows), "V": v}
        yield [(dict(shape, layer="dataset.prepare"),
                lambda: dataset.prepare(tsv, out, seed=1)),
               (dict(shape, layer="dataset.leave_one_out"),
                lambda: dataset.leave_one_out(catalog, codes, 1))]


def _cli(cli, *args):
    """Run `metric-rec <args>` in-process, as perfbench runs its commands,
    without its output; a refusal exits."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=[str(a) for a in args], prog_name="metric-rec", standalone_mode=False)


def _serve_groups(metric_rec, rng, tmp):
    """One group per corpus, perfbench `serve`'s and the 102,000-row one:
    `evaluate` at seed 1 and a top-10 `recommend` of one playlist, through
    `cli.main`, of a MASR manifest over perfbench `serve`'s MDR and MASS
    checkpoints, untrained (0 epochs). The timed checkout's own `prepare`
    and `train` wrote them all."""
    cli, serve = metric_rec.cli, WORKLOADS["serve"]
    for n, v, max_len in ((300, 2_000, 30), (3_000, 20_000, 63)):
        d = os.path.join(tmp, f"serve-{n}")
        tsv, split = os.path.join(tmp, f"serve-{n}.tsv"), os.path.join(d, "split")
        corpus.write_tsv(corpus.planted_rows(1, n, v, 5, max_len), tsv)
        _cli(cli, "prepare", "--input", tsv, "--out", split, "--seed", 1)
        paths = {}
        for kind, (config, _) in serve["checkpoints"].items():
            paths[f"{kind}_checkpoint"] = os.path.join(d, kind, "checkpoint.json")
            _cli(cli, "train", "--config", write_config(
                os.path.join(d, f"{kind}.cfg"), split_dir=split, out_dir=os.path.join(d, kind),
                seed=1, **dict(config, epochs=0)))
        _cli(cli, "train", "--config", write_config(
            os.path.join(d, "masr.cfg"), model="masr", out_dir=os.path.join(d, "masr"),
            alpha=serve["alpha"], **paths))
        masr, metrics = os.path.join(d, "masr", "masr.json"), os.path.join(d, "metrics.json")
        shape = {"model": "masr", "playlists": n, "V": v}
        yield [(dict(shape, layer="cli.evaluate"),
                lambda: _cli(cli, "evaluate", "--checkpoint", masr, "--split", split,
                             "--seed", 1, "--out", metrics)),
               (dict(shape, layer="cli.recommend"),
                lambda: _cli(cli, "recommend", "--checkpoint", masr, "--split", split,
                             "--playlist", "p0", "--top", 10))]


def _attention_groups(metric_rec, rng, tmp):
    """One group per corpus, perfbench `serve`'s and the 102,000-row one:
    `attention-report` through `cli.main` of an untrained (0 epochs) MASS
    `us` `mem_metric` model at d = 32, which the timed checkout's own
    `prepare` and `train` wrote."""
    cli = metric_rec.cli
    for n, v, max_len in ((300, 2_000, 30), (3_000, 20_000, 63)):
        d = os.path.join(tmp, f"attention-{n}")
        tsv, split = os.path.join(tmp, f"attention-{n}.tsv"), os.path.join(d, "split")
        corpus.write_tsv(corpus.planted_rows(1, n, v, 5, max_len), tsv)
        _cli(cli, "prepare", "--input", tsv, "--out", split, "--seed", 1)
        _cli(cli, "train", "--config", write_config(
            os.path.join(d, "mass.cfg"), model="mass", mass_variant="us",
            attention="mem_metric", d=32, epochs=0, split_dir=split,
            out_dir=os.path.join(d, "mass"), seed=1))
        checkpoint = os.path.join(d, "mass", "checkpoint.json")
        yield [({"layer": "cli.attention_report", "model": "mass us mem_metric", "d": 32,
                 "playlists": n, "V": v},
                lambda: _cli(cli, "attention-report", "--checkpoint", checkpoint,
                             "--split", split, "--out", os.path.join(d, "report")))]


def _paired_rows(build, trees, seed, tmp):
    """Rows of the groups of calls that `build(package, rng, directory)` yields
    for each of `trees`, a list of (tag, package): each tree's rng is seeded
    `seed`, so that all get the same inputs, and its files go to `<tmp>/<tag>`.
    Group i of every tree is timed interleaved, in the same rounds. With two
    trees, each row also records `ratio`, the median over rounds of its time
    over the time of the other tree's matching row in the same round."""
    builds = [build(package, np.random.default_rng(seed), os.path.join(tmp, tag))
              for tag, package in trees]
    rows = []
    for groups in zip(*builds, strict=True):
        layouts = [[row for row, _ in group] for group in groups]
        if any(layout != layouts[0] for layout in layouts):
            layers = sorted({row["layer"] for layout in layouts for row in layout})
            raise ValueError(f"the {', '.join(layers)} group holds other rows in each tree, "
                             f"so no row can be paired: {layouts}")
        calls = [(dict(row, tree=tag), fn)
                 for (tag, _), group in zip(trees, groups) for row, fn in group]
        times = _interleaved_times(calls)
        n = len(calls) // 2
        for i, ((row, _), row_times) in enumerate(zip(calls, times)):
            rows.append(_row(row, row_times))
            if len(trees) == 2:
                rows[-1]["ratio"] = round(statistics.median(
                    a / b for a, b in zip(row_times, times[(i + n) % len(calls)])), 3)
    return rows


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", default=os.path.dirname(here),
                        help="checkout whose src/ is timed (default: this one)")
    parser.add_argument("--out", default=here, help="directory for BENCH_<tag>.json")
    parser.add_argument("--against", help="checkout, or git revision of <root>, whose rows "
                                          "are timed interleaved with <root>'s")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import metric_rec.cli
    import metric_rec.dataset
    import metric_rec.evaluation
    import metric_rec.models
    import metric_rec.params
    import metric_rec.training

    environment = _environment(root)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trees = [("root", metric_rec)]
        if args.against:
            against, environment["against"] = _against(root, args.against, tmp, parser)
            trees.append(("against", _load_tree(against, "against_rec")))
        for tag, _ in trees:
            os.mkdir(os.path.join(tmp, tag))
        rows = [row for seed, build in enumerate((_model_groups, _sampler_groups,
                                                  _split_consumer_groups, _split_dir_groups,
                                                  _prepare_groups, _serve_groups,
                                                  _attention_groups, _train_groups))
                for row in _paired_rows(build, trees, seed, tmp)]
    doc = {"tag": args.tag, "environment": environment,
           "seconds": round(time.perf_counter() - t0, 1), "rows": rows}
    path = os.path.join(args.out, f"BENCH_{args.tag}.json")
    metric_rec.dataset.write_json(doc, path)
    print(f"wrote {path} ({len(rows)} rows, {doc['seconds']} s)")


if __name__ == "__main__":
    main()
