"""The three benchmark workloads, driven through the real CLI in-process.

Every workload is a closed loop with one client: after one untimed
warm-up cycle it runs a cycle of CLI commands, checks the outputs, and
starts the next cycle until the time is up. Set-up (everything before the
first cycle) is repeated, each time in a fresh directory, and the
repetitions must produce byte-identical artifacts. Every timing is a
`Timed` region: its program time, without calibration slices (see
`calibrate.py`), and when it started and ended.

- train-mdr: MDR `ups`; each cycle is one `train --apr`. Bound by
  sampling, dev evaluation and Adam.
- train-mass: MASS `us` with `mem_metric` attention at l = 61; each cycle
  is one `train --apr`. Bound by the member kernels and the backward
  scatter.
- serve: set-up trains MDR `ups` and MASS `us`/`nonmem_dot` checkpoints
  and writes a MASR manifest; each cycle is one `evaluate` of the manifest
  and a run of `recommend` calls on distinct playlists. Forward only.
"""

import contextlib
import filecmp
import io
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

import corpus
import oracle

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
TOP = 10

TRAIN_MDR = {"model": "mdr", "mdr_variant": "ups", "d": 32, "batch_size": 256,
             "negatives_per_positive": 4, "epochs": 3}
TRAIN_MASS = {"model": "mass", "mass_variant": "us", "attention": "mem_metric", "d": 32,
              "batch_size": 16, "negatives_per_positive": 4, "epochs": 1}
SERVE_MDR = dict(TRAIN_MDR, batch_size=32, epochs=1)
SERVE_MASS = {"model": "mass", "mass_variant": "us", "attention": "nonmem_dot", "d": 32,
              "batch_size": 64, "negatives_per_positive": 4, "epochs": 1}

# An untrained model ranks the held-out song among 101 candidates at random,
# so its hit@10 is about 10/101; every floor sits well above that.
WORKLOADS = {
    "train-mdr": {
        "corpus": {"num_playlists": 300, "num_songs": 2000, "min_len": 5, "max_len": 30},
        "model": TRAIN_MDR, "hit_floor": 0.25,
    },
    "train-mass": {
        "corpus": {"num_playlists": 40, "num_songs": 300, "min_len": 20, "max_len": 63},
        "model": TRAIN_MASS, "hit_floor": 0.25,
    },
    "serve": {
        "corpus": {"num_playlists": 300, "num_songs": 2000, "min_len": 5, "max_len": 30},
        "checkpoints": {"mdr": (SERVE_MDR, True), "mass": (SERVE_MASS, False)},
        "alpha": 0.5, "recommends": 10, "hit_floor": 0.2,
    },
}


@dataclass
class Timed:
    """A timed region: program seconds (slices excluded), and its start and end."""

    seconds: float
    start: float
    end: float


@dataclass
class Command:
    """One CLI invocation: its timing, exit code and captured output."""

    timed: Timed
    code: int
    stdout: str
    stderr: str


class Stopwatch:
    """Times a region, leaving out the calibration slices taken inside it."""

    def __init__(self, cal):
        self.cal = cal
        self.paused = cal.paused
        self.start = time.perf_counter()

    def stop(self, scale=1.0):
        end = time.perf_counter()
        return Timed((end - self.start - (self.cal.paused - self.paused)) * scale,
                     self.start, end)


def invoke(cli, args, cal):
    """Run `metric-rec <args>` in-process, as the console script would,
    after a calibration slice."""
    cal.slice()
    out, err = io.StringIO(), io.StringIO()
    watch = Stopwatch(cal)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(args=[str(a) for a in args], prog_name="metric-rec",
                          standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a benchmark crash
        code = 1
        err.write(traceback.format_exc())
    return Command(watch.stop(), code, out.getvalue(), err.getvalue())


def write_config(path, **values):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in values.items():
            f.write(f"{key} = {value}\n")
    return path


class Workload:
    """Set-up, timed cycles and output checks of one named workload."""

    def __init__(self, name, cli, cal, seed, work_dir):
        self.cli, self.cal, self.seed, self.work = cli, cal, seed, work_dir
        self.spec = WORKLOADS[name]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timings = {"setup_s": [], "train_s": [], "evaluate_s": [],
                        "recommend_ms": [], "bpr_epoch_s": [], "apr_epoch_s": []}
        self.hit10 = []
        self.serving = "checkpoints" in self.spec
        self.oracle = None
        self.tsv = os.path.join(work_dir, "corpus.tsv")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        corpus.write_tsv(corpus.planted_rows(seed, **self.spec["corpus"]), self.tsv)

    # -- bookkeeping ------------------------------------------------------

    def _run(self, args):
        """Run one command; a non-zero exit counts as a failed operation."""
        cmd = invoke(self.cli, args, self.cal)
        self.attempted += 1
        if cmd.code != 0:
            self._fail(f"{' '.join(map(str, args))} exited {cmd.code}: {cmd.stderr.strip()}")
        return cmd

    def _fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def _check(self, check, *args):
        """Run an output check; problems (or unreadable output) fail the operation."""
        try:
            problems, value = check(*args)
        except (OSError, KeyError, ValueError) as exc:
            problems, value = [f"{check.__name__}: {exc!r}"], None
        if problems:
            self._fail("; ".join(problems))
        return value

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Repeat set-up, timing each, until it ran SETUP_REPEATS times and
        SETUP_SECONDS in all; every repetition must write the same bytes as
        the first, and the last one is kept."""
        times = self.timings["setup_s"]
        first = self.dir = None
        while len(times) < SETUP_REPEATS or sum(t.seconds for t in times) < SETUP_SECONDS:
            d = os.path.join(self.work, f"setup{len(times)}")
            watch = Stopwatch(self.cal)
            self._setup_once(d)
            times.append(watch.stop())
            if first is None:
                first = d
            else:
                _, mismatch, errors = filecmp.cmpfiles(first, d, self.artifacts, shallow=False)
                if mismatch or errors:
                    self._fail(f"set-up is not deterministic: {mismatch + errors} differ")
                if self.dir != first:
                    shutil.rmtree(self.dir)
            self.dir = d
        self.split = os.path.join(self.dir, "split")
        if self.serving:
            self.model = os.path.join(self.dir, "masr", "masr.json")
            with open(os.path.join(self.split, "split.json"), encoding="utf-8") as f:
                playlists = sorted(json.load(f))
            self.num_playlists = len(playlists)
            rng = np.random.default_rng(self.seed)
            self.queue = [playlists[i] for i in rng.permutation(len(playlists))]

    def _setup_once(self, d):
        split = os.path.join(d, "split")
        self._run(["prepare", "--input", self.tsv, "--out", split, "--seed", self.seed])
        self.artifacts = ["split/catalog.json", "split/split.json"]
        if not self.serving:
            return
        paths = {}
        for kind, (config, apr) in self.spec["checkpoints"].items():
            out = os.path.join(d, kind)
            cfg = write_config(os.path.join(d, f"{kind}.cfg"), split_dir=split,
                               out_dir=out, seed=self.seed, **config)
            self._run(["train", "--config", cfg] + (["--apr"] if apr else []))
            paths[kind] = os.path.join(out, "checkpoint.json")
            self.artifacts.append(f"{kind}/checkpoint.json")
        cfg = write_config(os.path.join(d, "masr.cfg"), model="masr",
                           out_dir=os.path.join(d, "masr"), alpha=self.spec["alpha"],
                           mdr_checkpoint=paths["mdr"], mass_checkpoint=paths["mass"])
        self._run(["train", "--config", cfg])

    # -- timed cycles -----------------------------------------------------

    def cycle(self):
        """One closed-loop cycle; the summed time of its commands, from the
        start of the first to the end of the last."""
        if not self.serving:
            return self._train()
        runs = [self._evaluate()] + [self._recommend() for _ in range(self.spec["recommends"])]
        return Timed(sum(t.seconds for t in runs), runs[0].start, runs[-1].end)

    def warm_up(self):
        """One untimed cycle, so that first-call costs stay out of the timings."""
        self.cycle()
        for key, values in self.timings.items():
            if key != "setup_s":
                values.clear()

    def _train(self):
        out = os.path.join(self.dir, "model")
        cfg = write_config(os.path.join(self.dir, "model.cfg"), split_dir=self.split,
                           out_dir=out, seed=self.seed, **self.spec["model"])
        phases = []
        training = self.cli.training
        original = training.train

        def timed_phase(*args, **kwargs):
            watch = Stopwatch(self.cal)
            result = original(*args, **kwargs)
            per_epoch = watch.stop(1.0 / self.spec["model"]["epochs"])
            phases.append((kwargs.get("mode", "bpr"), per_epoch))
            return result

        training.train = timed_phase
        try:
            cmd = self._run(["train", "--config", cfg, "--apr"])
        finally:
            training.train = original
        if cmd.code == 0:
            self.timings["train_s"].append(cmd.timed)
            for mode, timed in phases:
                self.timings[f"{mode}_epoch_s"].append(timed)
            self.hit10.append(self._check(oracle.check_train_logs, out, self.spec["hit_floor"]))
        return cmd.timed

    def _evaluate(self):
        out = os.path.join(self.dir, "metrics.json")
        cmd = self._run(["evaluate", "--checkpoint", self.model, "--split", self.split,
                         "--seed", self.seed, "--out", out])
        if cmd.code == 0:
            self.timings["evaluate_s"].append(cmd.timed)
            self.hit10.append(self._check(
                oracle.check_metrics, out, self.num_playlists, self.spec["hit_floor"]))
        return cmd.timed

    def _recommend(self):
        playlist = self.queue.pop()
        self.queue.insert(0, playlist)
        cmd = self._run(["recommend", "--checkpoint", self.model, "--split", self.split,
                         "--playlist", playlist, "--top", TOP])
        if cmd.code == 0:
            self.timings["recommend_ms"].append(
                Timed(cmd.timed.seconds * 1e3, cmd.timed.start, cmd.timed.end))
            if self.oracle is None:
                self.oracle = oracle.RecommendOracle(self.model, self.split)
            self._check(self.oracle.check, playlist, cmd.stdout, TOP)
        return cmd.timed

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
