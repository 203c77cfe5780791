import codecs
import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synthetic
from metric_rec import dataset, evaluation, kernels, models, params as params_mod, training
from test_dataset import loaded_split
from test_params import (CORRUPTIONS, read_arena, write_arena, write_corrupt_checkpoint,
                         write_zip_companion)
from metric_rec.cli import _load_model, main

runner = CliRunner()


def _run(args, expect_exit=0):
    result = runner.invoke(main, args)
    if result.exit_code != expect_exit:  # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} for {args}: {result.output}\n{result.exception}"
        )
    return result


def _write_config(path, **values):
    with open(path, "w", encoding="utf-8") as f:
        for k, v in values.items():
            f.write(f"{k} = {v}\n")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    tsv = root / "interactions.tsv"
    synthetic.write_tsv(synthetic.planted_cluster_rows(seed=0), tsv)
    split_dir = root / "splits"
    _run(["prepare", "--input", str(tsv), "--out", str(split_dir), "--seed", "0"])

    mdr_dir = root / "mdr"
    cfg = _write_config(root / "mdr.cfg", model="mdr", split_dir=split_dir,
                        out_dir=mdr_dir, epochs="2", batch_size="64", d="8")
    _run(["train", "--config", cfg])

    mass_dir = root / "mass"
    cfg = _write_config(root / "mass.cfg", model="mass", split_dir=split_dir,
                        out_dir=mass_dir, epochs="1", batch_size="64", d="8")
    _run(["train", "--config", cfg])
    return root


def test_prepare_outputs_and_determinism(workspace, tmp_path):
    assert (workspace / "splits" / "catalog.json").exists()
    assert (workspace / "splits" / "split.json").exists()
    assert (workspace / "splits" / "split.json.arena").exists()
    tsv = workspace / "interactions.tsv"
    for d in ("a", "b"):
        _run(["prepare", "--input", str(tsv), "--out", str(tmp_path / d)])
    for name in ("catalog.json", "split.json", "split.json.arena"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_prepare_missing_input_fails(tmp_path):
    result = _run(["prepare", "--input", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "out")], expect_exit=1)
    assert "error:" in result.output


def test_prepare_reads_a_byte_order_mark_as_no_part_of_an_id(tmp_path):
    rows = b"".join(b"u1\tp%d\ts%d\n" % (p, s) for p in range(2) for s in range(5))
    for name, data in (("plain", rows), ("bom", codecs.BOM_UTF8 + rows)):
        (tmp_path / f"{name}.tsv").write_bytes(data)
        _run(["prepare", "--input", str(tmp_path / f"{name}.tsv"), "--out", str(tmp_path / name)])
    for name in ("catalog.json", "split.json", "split.json.arena"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# p1 of three songs and p2 of two, with line ends of every kind
_SHORT_P2 = b"u1\tp1\ts1\nu1\tp1\ts2\r\nu1\tp1\ts3\ru2\tp2\ts1\nu2\tp2\ts2\n"


@pytest.mark.parametrize("data,args,message", [
    (_SHORT_P2.replace(b"\tp2\ts1", b"\tp2\t\xffs1"), [],
     "{path}: line 4 is not UTF-8 text: invalid start byte"),
    (_SHORT_P2, ["--k", "1"], "playlist p2 has only 2 songs; need >= 3 to split"),
    (_SHORT_P2, ["--k", "0"], "--k must be >= 1, got 0"),
    # refused before the file, which is not UTF-8 text, is read
    (_SHORT_P2.replace(b"\tp2\ts1", b"\tp2\t\xffs1"), ["--seed", "-1"],
     "--seed must be in [0, 2**64 - 1], got -1"),
    (_SHORT_P2.replace(b"\tp2\ts1", b"\tp2\t\xffs1"), ["--seed", str(2 ** 64)],
     f"--seed must be in [0, 2**64 - 1], got {2 ** 64}"),
], ids=["not-utf8", "short-playlist", "k-zero", "seed-negative", "seed-beyond-64-bits"])
def test_prepare_refusal_names_the_line_playlist_or_option(tmp_path, data, args, message):
    path = tmp_path / "in.tsv"
    path.write_bytes(data)
    result = _run(["prepare", "--input", str(path), "--out", str(tmp_path / "out"), *args],
                  expect_exit=1)
    assert _single_error_line(result) == "error: " + message.format(path=path)
    assert not (tmp_path / "out").exists()


def test_train_writes_artifacts(workspace):
    for kind in ("mdr", "mass"):
        assert (workspace / kind / "checkpoint.json").exists()
        assert (workspace / kind / "checkpoint.json.arena").exists()
        assert not (workspace / kind / "checkpoint.json.npz").exists()
    log = workspace / "mdr" / "train_log.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    assert {"epoch", "train_loss", "seconds", "dev_hit10", "dev_ndcg10"} <= set(records[0])


def test_train_zero_epochs_keeps_initialization(workspace, tmp_path):
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.cfg", model="mdr",
                        split_dir=workspace / "splits", out_dir=out_dir,
                        epochs="0", d="8", seed="5")
    _run(["train", "--config", cfg])
    ckpt, hyper, seed = params_mod.load_checkpoint(str(out_dir / "checkpoint.json"))
    assert seed == 5 and hyper["epochs"] == 0
    from metric_rec.dataset import load_catalog
    catalog = load_catalog(str(workspace / "splits" / "catalog.json"))
    fresh = params_mod.init_mdr(
        catalog.num_users, catalog.num_playlists, catalog.num_songs, 8,
        np.random.default_rng(5),
    )
    for name in fresh.tensors:
        np.testing.assert_array_equal(ckpt.tensors[name], fresh.tensors[name])


def test_train_bad_config_fails(workspace, tmp_path):
    cfg = _write_config(tmp_path / "bad.cfg", model="mdr", learning_rate="0.7")
    result = _run(["train", "--config", cfg], expect_exit=1)
    assert "error:" in result.output


def test_train_rejects_k_beyond_negative_pool(workspace, tmp_path):
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "bigk.cfg", model="mdr",
                        split_dir=workspace / "splits", out_dir=out_dir,
                        epochs="1", d="8", negatives_per_positive="500")
    result = _run(["train", "--config", cfg], expect_exit=1)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.output
    assert "negatives_per_positive" in lines[0]
    assert not (out_dir / "checkpoint.json").exists()


@pytest.mark.parametrize("key,value", [
    ("seed", "-1"),
    ("seed", "99999999999999999999999"),
    ("lambda_delta", "nan"),
], ids=["negative-seed", "seed-beyond-64-bits", "nan-lambda-delta"])
def test_train_refuses_a_bad_seed_or_lambda_delta_before_training(workspace, tmp_path,
                                                                   key, value):
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "bad.cfg", model="mdr", split_dir=workspace / "splits",
                        out_dir=out_dir, epochs="1", batch_size="64", d="8", **{key: value})
    line = _single_error_line(_run(["train", "--config", cfg, "--apr"], expect_exit=1))
    assert key in line
    assert not out_dir.exists()


def test_train_refuses_a_repeated_config_key(workspace, tmp_path):
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "twice.cfg", model="mdr", split_dir=workspace / "splits",
                        out_dir=out_dir, epochs="1", batch_size="64", d="16")
    with open(cfg, "a", encoding="utf-8") as f:
        f.write("d = 64\n")
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    assert line == f"error: {cfg}: config key d repeated on lines 6 and 7"
    assert not out_dir.exists()


def test_train_apr_writes_both_checkpoints(workspace, tmp_path):
    out_dir = tmp_path / "apr"
    cfg = _write_config(tmp_path / "apr.cfg", model="mdr",
                        split_dir=workspace / "splits", out_dir=out_dir,
                        epochs="1", batch_size="64", d="8")
    _run(["train", "--config", cfg, "--apr"])
    assert sorted(os.listdir(out_dir)) == [
        "apr_log.jsonl", "checkpoint.json", "checkpoint.json.arena", "checkpoint_bpr.json",
        "checkpoint_bpr.json.arena", "train_log.jsonl"]
    for name in ("checkpoint_bpr.json", "checkpoint.json"):
        header, _, copy = read_arena(out_dir / f"{name}.arena")
        assert copy == (out_dir / name).read_bytes()
        assert header["json_size"] == len(copy)


_STEP_MODELS = ([{"model": "mdr", "mdr_variant": var} for var in params_mod.MDR_VARIANTS]
                + [{"model": "mass", "mass_variant": "ups", "attention": att}
                   for att in params_mod.ATTENTION_KINDS])


@pytest.mark.parametrize("model", _STEP_MODELS, ids=lambda m: "-".join(m.values()))
def test_train_apr_writes_the_bytes_of_the_reference_step(workspace, tmp_path, monkeypatch,
                                                          model):
    """`train --apr` writes the same checkpoints and losses when the training
    step's row sums, scatters and sampler are replaced by their references."""
    split_dir = workspace / "splits"
    catalog, split = dataset.load_split_dir(str(split_dir))
    pool_sizes, gaps = oracles.negative_pools(split, catalog.num_songs)

    def train_grid(tag):
        outputs = []
        for lambda_theta in ("0.0", "0.01"):
            for lambda_delta in ("1.0", "0.5"):
                out = tmp_path / f"{tag}-{lambda_theta}-{lambda_delta}"
                cfg = _write_config(tmp_path / "step.cfg", split_dir=split_dir, out_dir=out,
                                    epochs="1", batch_size="64", d="8",
                                    lambda_theta=lambda_theta, lambda_delta=lambda_delta,
                                    **model)
                _run(["train", "--config", cfg, "--apr"])
                logs = [[{k: v for k, v in json.loads(line).items() if k != "seconds"}
                         for line in (out / log).read_text().splitlines()]
                        for log in ("train_log.jsonl", "apr_log.jsonl")]
                outputs.append(((out / "checkpoint_bpr.json").read_bytes(),
                                (out / "checkpoint.json").read_bytes(),
                                (out / "checkpoint_bpr.json.arena").read_bytes(),
                                (out / "checkpoint.json.arena").read_bytes(), logs))
        return outputs

    fast = train_grid("fast")

    def scatter(target, batch, field_name, rows):
        oracles.scatter_add(target, getattr(batch, field_name), rows)

    monkeypatch.setattr(kernels, "row_sums", oracles.row_sums)
    monkeypatch.setattr(models, "_scatter_add", scatter)
    monkeypatch.setattr(training, "draw_negatives", lambda data, playlists, k, rng:
                        oracles.draw_negatives(pool_sizes[playlists], gaps[playlists], k, rng))
    assert train_grid("reference") == fast


def test_train_apr_writes_the_same_checkpoint_at_one_and_two_blas_threads(tmp_path):
    """APR's perturbation norms take no BLAS dot, whose sum OpenBLAS splits
    across threads from about 20,000 values: a `train --apr` with a song table
    of more than 20,000 values writes the same bytes at either thread count."""
    tsv, split_dir = tmp_path / "wide.tsv", tmp_path / "wide"
    synthetic.write_tsv(synthetic.planted_cluster_rows(songs_per_cluster=253, num_playlists=200),
                        tsv)
    _run(["prepare", "--input", str(tsv), "--out", str(split_dir), "--k", "1"])
    d = 64
    assert dataset.load_catalog(str(split_dir / "catalog.json")).num_songs * d > 30_000
    src = os.path.dirname(os.path.dirname(os.path.abspath(dataset.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        cfg = _write_config(tmp_path / f"threads-{threads}.cfg", model="mdr", split_dir=split_dir,
                            out_dir=out, epochs="1", batch_size="64", d=str(d))
        proc = subprocess.run([sys.executable, "-m", "metric_rec.cli", "train", "--config", cfg,
                               "--apr"], capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("checkpoint.json", "checkpoint.json.arena")])
    assert outputs[0] == outputs[1]


def test_train_apr_builds_training_data_and_dev_lists_once(workspace, tmp_path, monkeypatch):
    calls = {"build_train_data": 0, "sample_negatives": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(training, "build_train_data")
    counted(evaluation, "sample_negatives")
    cfg = _write_config(tmp_path / "apr.cfg", model="mdr",
                        split_dir=workspace / "splits", out_dir=tmp_path / "apr",
                        epochs="2", batch_size="64", d="8")
    _run(["train", "--config", cfg, "--apr"])
    catalog = dataset.load_catalog(str(workspace / "splits" / "catalog.json"))
    split = dataset.load_split(str(workspace / "splits" / "split.json"), catalog)
    assert calls == {"build_train_data": 1, "sample_negatives": np.count_nonzero(split.dev)}


def test_evaluate_deterministic(workspace, tmp_path):
    paths = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
              "--split", str(workspace / "splits"), "--seed", "3",
              "--out", str(out)])
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["model"] == "mdr"
    assert set(doc["N"]) == {str(n) for n in range(1, 11)}
    assert {"hit", "ndcg"} == set(doc["N"]["10"])


def test_evaluate_n_list_forms(workspace, tmp_path):
    out = tmp_path / "m.json"
    _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
          "--split", str(workspace / "splits"), "--n", "1,5,10",
          "--out", str(out)])
    assert set(json.loads(out.read_text())["N"]) == {"1", "5", "10"}


def test_recommend_lists_top_songs(workspace):
    result = _run(["recommend", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"),
                   "--playlist", "p0", "--top", "5"])
    lines = result.output.strip().splitlines()
    assert len(lines) == 5
    song, score = lines[0].split("\t")
    float(score)
    assert song.startswith("s")


def test_recommend_names_the_catalog_ids_of_its_top_songs_from_either_split_source(workspace,
                                                                                   tmp_path):
    """The printed ids are catalog.json's ids of the best-scored songs outside
    the playlist, through the split companion's id arrays or through the
    JSON's map alike."""
    ckpt = workspace / "mdr" / "checkpoint.json"
    catalog = json.loads((workspace / "splits" / "catalog.json").read_text(encoding="utf-8"))
    ids = {index: song_id for song_id, index in catalog["songs"].items()}
    params, _, _ = params_mod.load_checkpoint(str(ckpt))
    _, split = dataset.load_split_dir(str(workspace / "splits"))
    p = catalog["playlists"]["p0"]
    candidates = np.setdiff1d(np.arange(1, len(ids) + 1), sorted(oracles.full_set(split, p)))
    scores = [oracles.mdr_score(params, split.owner[p], p, song) for song in candidates]
    want = [ids[song] for song in candidates[np.lexsort((candidates, scores))[:5]].tolist()]
    json_only = tmp_path / "splits"
    shutil.copytree(workspace / "splits", json_only)
    (json_only / "split.json.arena").unlink()
    for split_dir in (workspace / "splits", json_only):
        result = _run(["recommend", "--checkpoint", str(ckpt), "--split", str(split_dir),
                       "--playlist", "p0", "--top", "5"])
        assert [line.split("\t")[0] for line in result.output.splitlines()] == want


def _single_error_line(result):
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.output
    return lines[0]


@pytest.mark.parametrize("spec", ["5..3", "1,,3", "1-", "a", "1-10", "1..102"])
def test_evaluate_rejects_n_spec_without_values(workspace, tmp_path, spec):
    out = tmp_path / "m.json"
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"), "--n", spec,
                   "--out", str(out)], expect_exit=1)
    assert f"--n {spec!r}" in _single_error_line(result)
    assert not out.exists()


def test_evaluate_rejects_n_below_one_before_loading(tmp_path):
    result = _run(["evaluate", "--checkpoint", str(tmp_path / "missing.json"),
                   "--split", str(tmp_path), "--n", "0..3"], expect_exit=1)
    assert "N must be >= 1" in _single_error_line(result)


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)], ids=["negative", "beyond-64-bits"])
def test_evaluate_refuses_a_seed_outside_64_bits_naming_the_option(workspace, tmp_path, seed):
    out = tmp_path / "m.json"
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"), "--seed", seed, "--out", str(out)],
                  expect_exit=1)
    assert "--seed" in _single_error_line(result)
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_evaluate_refuses_an_out_path_it_cannot_write_before_ranking(workspace, tmp_path,
                                                                    monkeypatch, where):
    ranked = []
    monkeypatch.setattr(evaluation, "evaluate", lambda *args, **kwargs: ranked.append(args))
    out = tmp_path if where == "directory" else tmp_path / "missing" / "m.json"
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"), "--out", str(out)], expect_exit=1)
    assert f"--out {out}: " in _single_error_line(result)
    assert ranked == [] and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("model", ["mdr", "masr"])
def test_train_with_an_out_dir_that_is_a_file_fails_cleanly(workspace, tmp_path, model):
    out_dir = tmp_path / "out"
    out_dir.write_text("a file", encoding="utf-8")
    values = ({"split_dir": workspace / "splits", "epochs": "1", "d": "8"} if model == "mdr"
              else {"alpha": "0.5", "mdr_checkpoint": workspace / "mdr" / "checkpoint.json",
                    "mass_checkpoint": workspace / "mass" / "checkpoint.json"})
    cfg = _write_config(tmp_path / "run.cfg", model=model, out_dir=out_dir, **values)
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    assert f"cannot create out_dir {str(out_dir)!r}: " in line
    assert out_dir.read_text(encoding="utf-8") == "a file"


@pytest.mark.parametrize("model", ["mdr", "mass"])
@pytest.mark.parametrize("split_dir", ["missing-directory", "unset"])
def test_train_names_a_split_dir_it_cannot_load_before_making_out_dir(tmp_path, model,
                                                                      split_dir, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an unset split_dir must not read the working directory
    out_dir = tmp_path / "out"
    values = {"split_dir": tmp_path / "nope"} if split_dir == "missing-directory" else {}
    cfg = _write_config(tmp_path / "run.cfg", model=model, out_dir=out_dir, epochs="1",
                        **values)
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    if split_dir == "unset":
        assert line == "error: missing config key split_dir"
    else:
        assert line.startswith(f"error: cannot load split from {str(tmp_path / 'nope')!r}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["evaluate", "recommend", "attention-report"])
def test_reading_commands_name_a_split_dir_they_cannot_load(workspace, tmp_path, command):
    """The readers word a split directory that does not load as `train` does."""
    missing, out = tmp_path / "nope", tmp_path / "out"
    args = {"evaluate": ["--out", str(out)], "recommend": ["--playlist", "p0"],
            "attention-report": ["--out", str(out)]}[command]
    result = _run([command, "--checkpoint", str(workspace / "mass" / "checkpoint.json"),
                   "--split", str(missing), *args], expect_exit=1)
    assert _single_error_line(result).startswith(
        f"error: cannot load split from {str(missing)!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["checkpoint_bpr.json", "checkpoint.json",
                                     "checkpoint.json.arena"])
def test_train_that_cannot_write_a_checkpoint_fails_cleanly(workspace, tmp_path, blocked):
    """A directory stands where `train --apr` writes a checkpoint or its arena file."""
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    cfg = _write_config(tmp_path / "apr.cfg", model="mdr", split_dir=workspace / "splits",
                        out_dir=out_dir, epochs="1", batch_size="64", d="8")
    line = _single_error_line(_run(["train", "--config", cfg, "--apr"], expect_exit=1))
    assert str(out_dir / blocked) in line


def test_recommend_rejects_top_below_one(workspace):
    result = _run(["recommend", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"),
                   "--playlist", "p0", "--top", "-1"], expect_exit=1)
    assert "--top" in _single_error_line(result)


@pytest.fixture(scope="module")
def small_catalog_checkpoints(tmp_path_factory):
    """Untrained MDR and MASS checkpoints over a smaller catalog than `workspace`'s."""
    root = tmp_path_factory.mktemp("small")
    tsv = root / "interactions.tsv"
    synthetic.write_tsv(synthetic.planted_cluster_rows(seed=0, num_playlists=20), tsv)
    split_dir = root / "splits"
    _run(["prepare", "--input", str(tsv), "--out", str(split_dir), "--seed", "0"])
    for kind in ("mdr", "mass"):
        cfg = _write_config(root / f"{kind}.cfg", model=kind, split_dir=split_dir,
                            out_dir=root / kind, epochs="0", d="8")
        _run(["train", "--config", cfg])
    return root


@pytest.mark.parametrize("command", ["evaluate", "recommend", "attention-report"])
def test_checkpoint_from_smaller_catalog_fails_cleanly(
        workspace, small_catalog_checkpoints, tmp_path, command):
    kind = "mass" if command == "attention-report" else "mdr"
    args = [command, "--checkpoint", str(small_catalog_checkpoints / kind / "checkpoint.json"),
            "--split", str(workspace / "splits")]
    if command == "recommend":
        args += ["--playlist", "p0"]
    else:
        args += ["--out", str(tmp_path / "out")]
    result = _run(args, expect_exit=1)
    assert "checkpoint does not match the split" in _single_error_line(result)


@pytest.mark.parametrize("command", ["evaluate", "recommend", "attention-report", "masr"])
def test_checkpoint_from_larger_catalog_fails_cleanly(
        workspace, small_catalog_checkpoints, tmp_path, command):
    checkpoint = workspace / ("mass" if command == "attention-report" else "mdr") / "checkpoint.json"
    if command == "masr":
        cfg = _write_config(tmp_path / "masr.cfg", model="masr", out_dir=tmp_path, alpha="0.5",
                            mdr_checkpoint=workspace / "mdr" / "checkpoint.json",
                            mass_checkpoint=workspace / "mass" / "checkpoint.json")
        _run(["train", "--config", cfg])
        command, checkpoint = "evaluate", tmp_path / "masr.json"
    args = [command, "--checkpoint", str(checkpoint),
            "--split", str(small_catalog_checkpoints / "splits")]
    if command == "recommend":
        args += ["--playlist", "p0"]
    else:
        args += ["--out", str(tmp_path / "out")]
    result = _run(args, expect_exit=1)
    assert "checkpoint does not match the split" in _single_error_line(result)


@pytest.fixture(scope="module")
def renamed_split(workspace, tmp_path_factory):
    """`workspace`'s split with every song id renamed: the same sizes, another catalog."""
    split_dir = tmp_path_factory.mktemp("renamed")
    catalog = dataset.load_catalog(str(workspace / "splits" / "catalog.json"))
    split = dataset.load_split(str(workspace / "splits" / "split.json"), catalog)
    catalog = dataset.Catalog(catalog.user_ids, catalog.playlist_ids,
                              [f"x{s}" for s in catalog.song_ids])
    dataset.save_catalog(catalog, str(split_dir / "catalog.json"))
    dataset.save_split(split, catalog, str(split_dir / "split.json"))
    return split_dir


@pytest.mark.parametrize("command", ["evaluate", "recommend", "attention-report", "masr"])
def test_checkpoint_from_same_size_catalog_with_other_ids_fails_cleanly(
        workspace, renamed_split, tmp_path, command):
    checkpoint = workspace / ("mass" if command == "attention-report" else "mdr") / "checkpoint.json"
    if command == "masr":
        cfg = _write_config(tmp_path / "masr.cfg", model="masr", out_dir=tmp_path, alpha="0.5",
                            mdr_checkpoint=workspace / "mdr" / "checkpoint.json",
                            mass_checkpoint=workspace / "mass" / "checkpoint.json")
        _run(["train", "--config", cfg])
        command, checkpoint = "evaluate", tmp_path / "masr.json"
    args = [command, "--checkpoint", str(checkpoint), "--split", str(renamed_split)]
    if command == "recommend":
        args += ["--playlist", "p0"]
    else:
        args += ["--out", str(tmp_path / "out")]
    result = _run(args, expect_exit=1)
    assert "catalog fingerprint" in _single_error_line(result)
    assert not (tmp_path / "out").exists()


def test_checkpoint_without_fingerprint_gets_size_check_only(workspace, renamed_split, tmp_path):
    doc = json.loads((workspace / "mdr" / "checkpoint.json").read_text(encoding="utf-8"))
    del doc["model"]["catalog_sha256"]  # as checkpoints of earlier versions lack it
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = _run(["recommend", "--checkpoint", str(path), "--split", str(renamed_split),
                   "--playlist", "p0", "--top", "3"])
    assert all(line.startswith("xs") for line in result.output.strip().splitlines())


def test_train_names_the_dev_evaluation_when_its_pool_is_too_small(
        small_catalog_checkpoints, tmp_path):
    cfg = _write_config(tmp_path / "mdr.cfg", model="mdr", out_dir=tmp_path / "out", d="8",
                        split_dir=small_catalog_checkpoints / "splits", epochs="1")
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    assert "dev evaluation needs 100 sampled negative songs" in line
    assert "playlist index" in line
    assert not (tmp_path / "out" / "checkpoint.json").exists()


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_malformed_checkpoint_fails_cleanly(workspace, tmp_path, case):
    path = tmp_path / "ckpt.json"
    write_corrupt_checkpoint(path, case)
    result = _run(["evaluate", "--checkpoint", str(path), "--split", str(workspace / "splits"),
                   "--out", str(tmp_path / "m.json")], expect_exit=1)
    assert CORRUPTIONS[case][1] in _single_error_line(result)


@pytest.mark.parametrize("case,doc,field", [
    ("list", [1, 2], "top level"),
    ("no_variant", {"format": params_mod.CHECKPOINT_FORMAT, "model": {"kind": "mdr"},
                    "tensors": {}}, "model.variant"),
    ("dim_string", {"format": params_mod.CHECKPOINT_FORMAT,
                    "model": {"kind": "mdr", "variant": "ups", "dim": "8", "num_users": 1,
                              "num_playlists": 1, "num_songs": 1},
                    "tensors": {}}, "model.dim"),
    ("kind_unknown", {"format": params_mod.CHECKPOINT_FORMAT,
                      "model": {"kind": None, "variant": "ups", "dim": 8, "num_users": 1,
                                "num_playlists": 1, "num_songs": 1},
                      "tensors": {}}, "model"),
])
def test_checkpoint_document_without_a_field_fails_cleanly(workspace, tmp_path, case, doc, field):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = _run(["evaluate", "--checkpoint", str(path), "--split", str(workspace / "splits"),
                   "--out", str(tmp_path / "m.json")], expect_exit=1)
    assert f"{path}: {field}: " in _single_error_line(result)
    with pytest.raises(ValueError, match=f"{field}: "):
        params_mod.load_checkpoint(str(path))


def test_load_model_takes_a_matching_companion_without_parsing_the_json(
        workspace, tmp_path, monkeypatch):
    parses = []
    parse = params_mod.parse_json
    monkeypatch.setattr(params_mod, "parse_json",
                        lambda data, path: parses.append(path) or parse(data, path))
    for kind in ("mdr", "mass"):
        path = workspace / kind / "checkpoint.json"
        _, meta, (ckpt,), _, _ = _load_model(str(path), str(workspace / "splits"))
        assert parses == [] and meta["model"] == kind
        shutil.copy(path, tmp_path / f"{kind}.json")  # no companion beside it
        _, _, (ref,), _, _ = _load_model(str(tmp_path / f"{kind}.json"), str(workspace / "splits"))
        assert parses == [str(tmp_path / f"{kind}.json")]
        assert ckpt.tensors.flat.tobytes() == ref.tensors.flat.tobytes()
        parses.clear()


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("companion", ["matching", "stale", "missing", "zip"])
def test_reading_commands_write_nothing_beside_a_read_only_model(workspace, tmp_path,
                                                                 companion):
    """Nor beside a read-only split directory, whose companion is matching,
    stale or missing alike (for "zip", matching)."""
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    split_dir = tmp_path / "splits"
    shutil.copytree(workspace / "splits", split_dir)
    if companion == "stale":
        with open(split_dir / "split.json", "ab") as f:
            f.write(b" ")
    elif companion == "missing":
        (split_dir / "split.json.arena").unlink()
    for kind in ("mdr", "mass"):
        shutil.copy(workspace / kind / "checkpoint.json", models_dir / f"{kind}.json")
        if companion in ("matching", "stale"):
            shutil.copy(workspace / kind / "checkpoint.json.arena",
                        models_dir / f"{kind}.json.arena")
        elif companion == "zip":  # what earlier versions wrote: no longer read
            write_zip_companion(models_dir / f"{kind}.json")
        if companion == "stale":
            with open(models_dir / f"{kind}.json", "ab") as f:
                f.write(b" ")
    _masr_manifest(workspace, models_dir / "masr.json",
                   mdr_checkpoint="mdr.json", mass_checkpoint="mass.json")
    before = _files(models_dir), _files(split_dir)
    for p in [models_dir, *models_dir.iterdir(), split_dir, *split_dir.iterdir()]:
        p.chmod(0o555 if p.is_dir() else 0o444)
    try:
        split = str(split_dir)
        for model in ("mdr.json", "masr.json"):
            _run(["evaluate", "--checkpoint", str(models_dir / model), "--split", split,
                  "--out", str(tmp_path / "metrics.json")])
            _run(["recommend", "--checkpoint", str(models_dir / model), "--split", split,
                  "--playlist", "p0"])
        _run(["attention-report", "--checkpoint", str(models_dir / "mass.json"),
              "--split", split, "--out", str(tmp_path / "report")])
    finally:
        models_dir.chmod(0o755)
        split_dir.chmod(0o755)
    assert (_files(models_dir), _files(split_dir)) == before


def _masr_manifest(workspace, path, **changes):
    doc = {"format": "metric-rec-masr-v1", "model": "masr", "alpha": 0.5,
           "mdr_checkpoint": str(workspace / "mdr" / "checkpoint.json"),
           "mass_checkpoint": str(workspace / "mass" / "checkpoint.json")}
    doc.update(changes)
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}), encoding="utf-8")
    return path


@pytest.mark.parametrize("changes,field", [
    ({"mass_checkpoint": "mdr/checkpoint.json"}, "mass_checkpoint"),
    ({"mdr_checkpoint": "mass/checkpoint.json"}, "mdr_checkpoint"),
    ({"alpha": "0.5"}, "alpha"),
    ({"alpha": None}, "alpha"),
    ({"alpha": 1.5}, "alpha"),
], ids=["mass-is-mdr", "mdr-is-mass", "alpha-string", "alpha-missing", "alpha-above-one"])
@pytest.mark.parametrize("command", ["evaluate", "recommend"])
def test_masr_manifest_with_wrong_components_or_alpha_fails_cleanly(
        workspace, tmp_path, changes, field, command):
    manifest = _masr_manifest(workspace, workspace / f"bad-{tmp_path.name}.json", **changes)
    args = [command, "--checkpoint", str(manifest), "--split", str(workspace / "splits")]
    args += ["--playlist", "p0"] if command == "recommend" else ["--out", str(tmp_path / "m")]
    line = _single_error_line(_run(args, expect_exit=1))
    assert f"{manifest}: {field}: " in line
    assert not (tmp_path / "m").exists()


def test_recommend_unknown_playlist(workspace):
    result = _run(["recommend", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"),
                   "--playlist", "nope"], expect_exit=1)
    assert "unknown playlist" in result.output


def test_attention_report(workspace, tmp_path):
    out_dir = tmp_path / "report"
    result = _run(["attention-report",
                   "--checkpoint", str(workspace / "mass" / "checkpoint.json"),
                   "--split", str(workspace / "splits"), "--out", str(out_dir)])
    assert (out_dir / "pmi_att.csv").exists()
    summary = json.loads((out_dir / "attention_summary.json").read_text())
    assert -1.0 <= summary["pearson_rho"] <= 1.0
    assert "rho=" in result.output


def test_attention_report_refuses_a_correlation_of_constant_attention(tmp_path):
    # 3 songs a playlist: each test context has one member, whose PMI and
    # model attention are both 1.0, so no correlation exists
    tsv = tmp_path / "three.tsv"
    synthetic.write_tsv([(f"u{p}", f"p{p}", f"s{(p * 3 + s) % 150}")
                         for p in range(60) for s in range(3)], tsv)
    _run(["prepare", "--input", str(tsv), "--out", str(tmp_path / "split"), "--k", "3"])
    cfg = _write_config(tmp_path / "mass.cfg", model="mass", attention="mem_metric",
                        split_dir=tmp_path / "split", out_dir=tmp_path / "mass", epochs="0")
    _run(["train", "--config", cfg])
    out = tmp_path / "report"
    result = _run(["attention-report", "--checkpoint", str(tmp_path / "mass" / "checkpoint.json"),
                   "--split", str(tmp_path / "split"), "--out", str(out)], expect_exit=1)
    assert result.output.splitlines() == [
        "error: the PMI or model attention is constant over every pair: "
        "their correlation is undefined"]
    assert not out.exists()


def test_attention_report_rejects_mdr(workspace, tmp_path):
    result = _run(["attention-report",
                   "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"),
                   "--out", str(tmp_path)], expect_exit=1)
    assert "mass-family" in result.output


def test_attention_report_rejects_a_masr_manifest(workspace, tmp_path):
    manifest = _masr_manifest(workspace, tmp_path / "masr.json")
    result = _run(["attention-report", "--checkpoint", str(manifest),
                   "--split", str(workspace / "splits"), "--out", str(tmp_path / "out")],
                  expect_exit=1)
    assert _single_error_line(result) == "error: attention report requires a mass-family checkpoint"
    assert not (tmp_path / "out").exists()


def test_masr_manifest_and_evaluation(workspace, tmp_path):
    out_dir = tmp_path / "masr"
    cfg = _write_config(
        tmp_path / "masr.cfg", model="masr", out_dir=out_dir, alpha="0.5",
        mdr_checkpoint=workspace / "mdr" / "checkpoint.json",
        mass_checkpoint=workspace / "mass" / "checkpoint.json",
    )
    _run(["train", "--config", cfg])
    manifest = out_dir / "masr.json"
    assert json.loads(manifest.read_text())["alpha"] == 0.5
    out = tmp_path / "masr_metrics.json"
    _run(["evaluate", "--checkpoint", str(manifest),
          "--split", str(workspace / "splits"), "--out", str(out)])
    assert json.loads(out.read_text())["model"] == "masr"


def test_train_apr_refuses_a_masr_config_before_writing_anything(workspace, tmp_path):
    """MASR blends two trained checkpoints and trains nothing, so `--apr` has
    nothing to run on: one `error:` line, and neither out_dir nor masr.json."""
    out_dir = tmp_path / "masr"
    cfg = _write_config(
        tmp_path / "masr.cfg", model="masr", out_dir=out_dir, alpha="0.5",
        mdr_checkpoint=workspace / "mdr" / "checkpoint.json",
        mass_checkpoint=workspace / "mass" / "checkpoint.json",
    )
    line = _single_error_line(_run(["train", "--config", cfg, "--apr"], expect_exit=1))
    assert line == "error: --apr does not apply to model = masr, which trains nothing"
    assert not out_dir.exists()


def test_masr_requires_both_checkpoints(workspace, tmp_path):
    cfg = _write_config(tmp_path / "masr.cfg", model="masr",
                        out_dir=tmp_path,
                        mdr_checkpoint=workspace / "mdr" / "checkpoint.json")
    result = _run(["train", "--config", cfg], expect_exit=1)
    assert "mass_checkpoint" in result.output


@pytest.mark.parametrize("key", ["mdr_checkpoint", "mass_checkpoint"])
@pytest.mark.parametrize("missing", ["unset", "no-file"])
def test_train_masr_names_a_missing_component_before_making_out_dir(workspace, tmp_path, key,
                                                                     missing):
    values = {"mdr_checkpoint": workspace / "mdr" / "checkpoint.json",
              "mass_checkpoint": workspace / "mass" / "checkpoint.json"}
    nowhere = tmp_path / "nope" / "checkpoint.json"
    if missing == "unset":
        del values[key]
    else:
        values[key] = nowhere
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "masr.cfg", model="masr", out_dir=out_dir, alpha="0.5",
                        **values)
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    if missing == "unset":
        assert line == f"error: missing config key {key} (masr needs both pretrained checkpoints)"
    else:
        assert line == f"error: {key}: no checkpoint file at {nowhere}"
    assert not out_dir.exists()


@pytest.mark.parametrize("swap", [True, False], ids=["swapped", "both-mdr"])
def test_train_masr_checks_the_manifest_components_before_writing_it(workspace, tmp_path, swap):
    mdr = workspace / "mdr" / "checkpoint.json"
    mass = workspace / "mass" / "checkpoint.json"
    cfg = _write_config(tmp_path / "masr.cfg", model="masr", out_dir=tmp_path / "out", alpha="0.5",
                        mdr_checkpoint=mass if swap else mdr, mass_checkpoint=mdr)
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    field = "mdr_checkpoint" if swap else "mass_checkpoint"
    assert f"{tmp_path / 'out' / 'masr.json'}: {field}: " in line
    assert not (tmp_path / "out").exists()


def test_train_masr_refuses_checkpoints_of_different_catalogs(workspace, tmp_path):
    """A MASS of another corpus fused with `workspace`'s MDR: `train` writes no
    manifest, and `evaluate` refuses one written by hand before it loads the split."""
    tsv = tmp_path / "other.tsv"
    synthetic.write_tsv(synthetic.planted_cluster_rows(seed=1), tsv)
    _run(["prepare", "--input", str(tsv), "--out", str(tmp_path / "split"), "--seed", "0"])
    cfg = _write_config(tmp_path / "mass.cfg", model="mass", split_dir=tmp_path / "split",
                        out_dir=tmp_path / "mass", epochs="0", d="8")
    _run(["train", "--config", cfg])
    mass = tmp_path / "mass" / "checkpoint.json"
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "masr.cfg", model="masr", out_dir=out_dir, alpha="0.5",
                        mdr_checkpoint=workspace / "mdr" / "checkpoint.json", mass_checkpoint=mass)
    line = _single_error_line(_run(["train", "--config", cfg], expect_exit=1))
    assert line.startswith(f"error: {out_dir / 'masr.json'}: its checkpoints index different "
                           f"catalogs: (users, playlists, songs, catalog fingerprint) are ")
    assert not out_dir.exists()
    manifest = _masr_manifest(workspace, tmp_path / "masr.json", mass_checkpoint=str(mass))
    line = _single_error_line(_run(["evaluate", "--checkpoint", str(manifest),
                                    "--split", str(tmp_path / "nowhere"),
                                    "--out", str(tmp_path / "m.json")], expect_exit=1))
    assert line.startswith(f"error: {manifest}: its checkpoints index different catalogs: ")


def _edited_split(workspace, split_dir, edit, playlist="p0"):
    """A copy of `workspace`'s split directory whose split.json went through
    `edit`, which changes p0's entry in place or returns its replacement;
    the entry is then stored under the id `playlist`, last when it is not p0."""
    split_dir.mkdir()
    src = workspace / "splits"
    (split_dir / "catalog.json").write_bytes((src / "catalog.json").read_bytes())
    doc = json.loads((src / "split.json").read_text(encoding="utf-8"))
    replacement = edit(doc["p0"])
    if replacement is not None:
        doc["p0"] = replacement
    if playlist != "p0":
        doc[playlist] = doc.pop("p0")
    (split_dir / "split.json").write_text(json.dumps(doc), encoding="utf-8")
    return split_dir


@pytest.mark.parametrize("edit,field", [
    (lambda entry: entry["train"].append(entry["dev"]), "p0.dev: "),
    (lambda entry: entry["train"].append("nosuchsong"), "p0.train: "),
    (lambda entry: entry.update(train=None), "p0.train: "),
    (lambda entry: entry.update(train={s: 0 for s in entry["train"]}), "p0.train: "),
    (lambda entry: entry.update(user="nobody", train=5), "p0.user: "),
    (lambda entry: entry.update(dev="zz"), "p0.dev: 'zz' is not in the catalog"),
    (lambda entry: entry.update(test="zz"), "p0.test: 'zz' is not in the catalog"),
    (lambda entry: entry.update(user=[1]), "p0.user: [1] is not in the catalog"),
    (lambda entry: entry["train"].append({"s": 1}), "p0.train: {'s': 1} is not in the catalog"),
    (lambda entry: None, "px.id: 'px' is not in the catalog"),
    (lambda entry: entry.update(train=entry["train"] + [entry["dev"]], test="zz"),
     "p0.test: 'zz' is not in the catalog"),
], ids=["dev-song-in-train", "unknown-train-song", "train-null", "train-object",
        "unknown-user-train-number", "unknown-dev-song", "unknown-test-song", "user-array",
        "train-song-object", "unknown-playlist", "dev-in-train-unknown-test"])
def test_split_that_contradicts_itself_or_the_catalog_fails_cleanly(
        workspace, tmp_path, edit, field):
    """`field` starts with the playlist id under which the edited p0 entry is stored."""
    split_dir = _edited_split(workspace, tmp_path / "splits", edit, field.split(".")[0])
    out = tmp_path / "m.json"
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--out", str(out)], expect_exit=1)
    assert f"{split_dir / 'split.json'}: {field}" in _single_error_line(result)
    assert not out.exists()


@pytest.mark.parametrize("train", [[], 5], ids=["empty-train", "train-number"])
@pytest.mark.parametrize("key", ["dev", "test"])
def test_split_entry_without_a_held_out_song_names_it_before_its_train_list(
        workspace, tmp_path, train, key):
    """p0's entry lacks `key` and its train list is empty or not an array: the
    missing field, a fault of the entry's structure, is named first."""
    def edit(entry):
        entry.update(train=train)
        del entry[key]

    split_dir = _edited_split(workspace, tmp_path / "splits", edit)
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--out", str(tmp_path / "m.json")], expect_exit=1)
    assert _single_error_line(result).endswith(f"{split_dir / 'split.json'}: p0.{key}: missing")


@pytest.mark.parametrize("command", ["evaluate", "recommend", "train"])
def test_split_entry_with_an_empty_train_list_fails_cleanly(workspace, tmp_path, command):
    """p0 has no train song: each command names the split file and p0.train."""
    split_dir = _edited_split(workspace, tmp_path / "splits",
                              lambda entry: entry.update(train=[]))
    checkpoint = str(workspace / "mdr" / "checkpoint.json")
    args = {
        "evaluate": ["evaluate", "--checkpoint", checkpoint, "--split", str(split_dir),
                     "--out", str(tmp_path / "m.json")],
        "recommend": ["recommend", "--checkpoint", checkpoint, "--split", str(split_dir),
                      "--playlist", "p0"],
        "train": ["train", "--config", _write_config(
            tmp_path / "mass.cfg", model="mass", split_dir=split_dir,
            out_dir=tmp_path / "mass", epochs="1", batch_size="64", d="8")],
    }[command]
    result = _run(args, expect_exit=1)
    assert f"{split_dir / 'split.json'}: p0.train: " in _single_error_line(result)


@pytest.mark.parametrize("command", ["evaluate", "recommend", "train", "attention-report"])
def test_split_without_an_entry_fails_cleanly(workspace, tmp_path, command):
    """split.json holds `{}`: each reading command names the file and its top level."""
    split_dir = _edited_split(workspace, tmp_path / "splits", lambda entry: None)
    (split_dir / "split.json").write_text("{}", encoding="utf-8")
    kind = "mass" if command == "attention-report" else "mdr"
    checkpoint = ["--checkpoint", str(workspace / kind / "checkpoint.json"),
                  "--split", str(split_dir)]
    args = {
        "evaluate": ["evaluate", *checkpoint, "--out", str(tmp_path / "m.json")],
        "recommend": ["recommend", *checkpoint, "--playlist", "p0"],
        "attention-report": ["attention-report", *checkpoint, "--out", str(tmp_path / "att")],
        "train": ["train", "--config", _write_config(
            tmp_path / "mdr.cfg", model="mdr", split_dir=split_dir,
            out_dir=tmp_path / "mdr", epochs="1", batch_size="64", d="8")],
    }[command]
    result = _run(args, expect_exit=1)
    assert f"{split_dir / 'split.json'}: top level: " in _single_error_line(result)


def _dev_in_train(entry):
    entry["train"].append(entry["dev"])


def _unknown_train_song(entry):
    entry["train"].append("no-such-song")


@pytest.mark.parametrize("first,later,field", [
    (_dev_in_train, _unknown_train_song, "dev: held-out song "),
    (_unknown_train_song, _dev_in_train, "train: 'no-such-song' is not in the catalog"),
    (lambda entry: entry.pop("dev"), _dev_in_train, "dev: missing"),
    (_dev_in_train, lambda entry: [1, 2], "dev: held-out song "),
], ids=["dev-in-train-first", "unknown-song-first", "no-dev-first", "dev-in-train-before-list"])
def test_split_with_two_bad_entries_names_the_first_in_file_order(workspace, tmp_path, first,
                                                                  later, field):
    """`first` edits the first entry and `later` one in the middle, in place
    or by returning a list that replaces it."""
    split_dir = _edited_split(workspace, tmp_path / "splits", lambda entry: None)
    path = split_dir / "split.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    ids = list(doc)
    for pid, edit in ((ids[0], first), (ids[len(ids) // 2], later)):
        replacement = edit(doc[pid])
        if isinstance(replacement, list):
            doc[pid] = replacement
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--out", str(tmp_path / "m.json")], expect_exit=1)
    assert f"{path}: {ids[0]}.{field}" in _single_error_line(result)


@pytest.mark.parametrize("key", ["user", "train", "dev", "test", None],
                         ids=["no-user", "no-train", "no-dev", "no-test", "list"])
@pytest.mark.parametrize("command", ["evaluate", "recommend"])
def test_split_entry_without_a_field_fails_cleanly(workspace, tmp_path, key, command):
    """p0's entry lacks `key`, or (None) is a list instead of an object."""
    def edit(entry):
        return [1, 2] if key is None else {k: v for k, v in entry.items() if k != key}

    field = "p0: " if key is None else f"p0.{key}: missing"
    split_dir = _edited_split(workspace, tmp_path / "splits", edit)
    args = {"evaluate": ["--out", str(tmp_path / "m.json")], "recommend": ["--playlist", "p1"]}
    result = _run([command, "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir)] + args[command], expect_exit=1)
    assert f"{split_dir / 'split.json'}: {field}" in _single_error_line(result)


@pytest.mark.parametrize("edit,field", [
    (lambda doc: [1, 2], "top level"),
    (lambda doc: {k: v for k, v in doc.items() if k != "users"}, "users"),
    (lambda doc: dict(doc, playlists=None), "playlists"),
    (lambda doc: dict(doc, songs=list(doc["songs"])), "songs"),
], ids=["list", "no-users", "null-playlists", "list-songs"])
def test_catalog_without_a_map_fails_cleanly(workspace, tmp_path, edit, field):
    split_dir = _edited_split(workspace, tmp_path / "splits", lambda entry: None)
    catalog = split_dir / "catalog.json"
    doc = edit(json.loads(catalog.read_text(encoding="utf-8")))
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--out", str(tmp_path / "m.json")], expect_exit=1)
    assert f"{catalog}: {field}: " in _single_error_line(result)


def test_truncated_catalog_names_the_file(workspace, tmp_path):
    split_dir = _edited_split(workspace, tmp_path / "splits", lambda entry: None)
    catalog = split_dir / "catalog.json"
    catalog.write_bytes(catalog.read_bytes()[:200])
    result = _run(["evaluate", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--out", str(tmp_path / "m.json")], expect_exit=1)
    assert f"{catalog}: " in _single_error_line(result)


def _edited_checkpoint(workspace, path, edit):
    """A copy of `workspace`'s MDR checkpoint whose document went through `edit`."""
    doc = json.loads((workspace / "mdr" / "checkpoint.json").read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("edit,field", [
    (lambda doc: doc["tensors"].update(U=[1, 2]), "tensors.U"),
    (lambda doc: doc["tensors"]["U"].update(shape=5), "tensors.U.shape"),
    (lambda doc: doc["tensors"]["U"].pop("values"), "tensors.U.values"),
    (lambda doc: doc["tensors"]["U"].pop("shape"), "tensors.U.shape"),
    (lambda doc: doc["tensors"]["U"]["values"].__setitem__(3, "x"), "tensors.U.values"),
    (lambda doc: doc["model"].update(catalog_sha256=5), "model.catalog_sha256"),
    (lambda doc: doc["model"].update(use_bias="no"), "model.use_bias"),
    (lambda doc: doc["tensors"]["U"]["values"].__setitem__(3, True), "tensors.U.values"),
    (lambda doc: doc["tensors"]["theta"]["values"].__setitem__(0, False),
     "tensors.theta.values"),
    (lambda doc: doc["tensors"]["U"]["shape"].__setitem__(1, 8.0), "tensors.U.shape"),
    (lambda doc: doc["tensors"]["U"]["shape"].__setitem__(0, True), "tensors.U.shape"),
    (lambda doc: doc["tensors"]["U"]["values"].__setitem__(3, -10 ** 400), "tensors.U.values"),
], ids=["spec-list", "shape-int", "no-values", "no-shape", "value-string", "sha-int",
        "use-bias-string", "value-true", "value-false", "shape-float", "shape-true",
        "value-beyond-float64"])
def test_checkpoint_with_a_malformed_field_fails_cleanly(workspace, tmp_path, edit, field):
    path = _edited_checkpoint(workspace, tmp_path / "ckpt.json", edit)
    result = _run(["recommend", "--checkpoint", str(path), "--split", str(workspace / "splits"),
                   "--playlist", "p0"], expect_exit=1)
    assert f"{path}: {field}: " in _single_error_line(result)
    with pytest.raises(ValueError, match=f"{field}: "):
        params_mod.load_checkpoint(str(path))


def _renumber(ids, old, new):
    return {k: new if v == old else v for k, v in ids.items()}


@pytest.mark.parametrize("edit,field", [
    (lambda doc: doc["songs"].update(_renumber(doc["songs"], 2, 1)), "songs"),
    (lambda doc: doc["songs"].update(_renumber(doc["songs"], 1, 0)), "songs"),
    (lambda doc: doc["users"].update(_renumber(doc["users"], 0, "0")), "users"),
    (lambda doc: doc["playlists"].update(_renumber(doc["playlists"], 0, 10_000)), "playlists"),
    (lambda doc: doc["users"].update(_renumber(doc["users"], 1, True)), "users"),
], ids=["song-twice", "song-zero", "user-string", "playlist-past-the-end", "user-true"])
def test_catalog_whose_indices_are_not_dense_fails_cleanly(workspace, tmp_path, edit, field):
    split_dir = _edited_split(workspace, tmp_path / "splits", lambda entry: None)
    catalog = split_dir / "catalog.json"
    doc = json.loads(catalog.read_text(encoding="utf-8"))
    edit(doc)
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    result = _run(["recommend", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--playlist", "p0"], expect_exit=1)
    assert f"{catalog}: {field}: " in _single_error_line(result)


def test_recommend_for_a_playlist_the_split_lacks_fails_cleanly(workspace, tmp_path):
    split_dir = _edited_split(workspace, tmp_path / "splits", lambda entry: None)
    doc = json.loads((split_dir / "split.json").read_text(encoding="utf-8"))
    del doc["p0"]
    (split_dir / "split.json").write_text(json.dumps(doc), encoding="utf-8")
    result = _run(["recommend", "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(split_dir), "--playlist", "p0"], expect_exit=1)
    assert "playlist p0 has no entry in the split" in _single_error_line(result)


def _with_value(workspace, kind, path, name, value, index=0):
    """`workspace`'s `kind` checkpoint, written to `path` with the value at
    flat `index` of tensor `name` set to `value`; its arena file is not copied."""
    doc = json.loads((workspace / kind / "checkpoint.json").read_text(encoding="utf-8"))
    doc["tensors"][name]["values"][index] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["evaluate", "recommend", "attention-report", "masr"])
def test_finite_values_whose_scores_overflow_fail_cleanly(workspace, tmp_path, command):
    """A metric weight of 1e300 is finite, so the checkpoint loads, but every
    squared distance under it overflows: no command prints or writes a score
    or weight from it, and the one error line names the checkpoint or manifest."""
    kind = "mass" if command == "attention-report" else "mdr"
    weight = "B4" if kind == "mass" else "B1"
    path = _with_value(workspace, kind, tmp_path / "big.json", weight, 1e300)
    if command == "masr":
        path = _masr_manifest(workspace, tmp_path / "masr.json", mdr_checkpoint=str(path))
    out = tmp_path / "out"
    args = {"evaluate": ["--out", str(out)], "masr": ["--out", str(out)],
            "recommend": ["--playlist", "p0"], "attention-report": ["--out", str(out)]}[command]
    result = _run(["recommend" if command == "recommend" else
                   "evaluate" if command in ("evaluate", "masr") else "attention-report",
                   "--checkpoint", str(path), "--split", str(workspace / "splits"), *args],
                  expect_exit=1)
    assert f"error: {path}: " in _single_error_line(result)
    assert not out.exists() or not os.listdir(out)


def _one_error_line_in_a_fresh_process(args):
    """The stderr of `python -m metric_rec.cli <args>`, where no test runner
    captures numpy's warnings, once it is checked to be one line after exit 1."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dataset.__file__)))
    proc = subprocess.run([sys.executable, "-m", "metric_rec.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
    return proc.stderr


@pytest.mark.parametrize("command", ["evaluate", "recommend", "attention-report"])
def test_overflowing_scores_print_one_stderr_line_in_a_fresh_process(workspace, tmp_path,
                                                                     command):
    """The refusal above from `python -m metric_rec.cli`, where no test runner
    captures numpy's warnings: stderr holds the `error:` line alone."""
    kind = "mass" if command == "attention-report" else "mdr"
    path = _with_value(workspace, kind, tmp_path / "big.json", "B4" if kind == "mass" else "B1",
                       1e300)
    args = {"evaluate": ["--out", str(tmp_path / "m.json")], "recommend": ["--playlist", "p0"],
            "attention-report": ["--out", str(tmp_path / "att")]}[command]
    stderr = _one_error_line_in_a_fresh_process(
        [command, "--checkpoint", str(path), "--split", str(workspace / "splits"), *args])
    assert stderr.startswith(f"error: {path}: "), stderr


@pytest.mark.parametrize("lambda_delta", ["1e300", "1e308"])
def test_train_refuses_a_diverging_apr_step_with_one_stderr_line_in_a_fresh_process(
        workspace, tmp_path, lambda_delta):
    """An adversarial weight that overflows an APR step ends `train --apr` with
    one `error:` line naming the phase and epoch, and no final checkpoint: at
    1e300 Adam's second moment overflows, at 1e308 the weighted gradient.
    `out_dir` keeps what the BPR phase wrote and an empty APR log."""
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path / "apr.cfg", model="mdr", split_dir=workspace / "splits",
                        out_dir=out_dir, epochs="1", batch_size="64", d="8",
                        lambda_delta=lambda_delta)
    stderr = _one_error_line_in_a_fresh_process(["train", "--config", cfg, "--apr"])
    assert stderr.startswith("error: apr epoch 0: "), stderr
    assert sorted(os.listdir(out_dir)) == [
        "apr_log.jsonl", "checkpoint_bpr.json", "checkpoint_bpr.json.arena", "train_log.jsonl"]
    assert (out_dir / "apr_log.jsonl").read_bytes() == b""


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_recommend_prints_finite_scores_or_one_error_line(workspace, corruption_dir, data):
    """For any MDR checkpoint that loads, with up to three tensor values set to
    any finite floats, `recommend` prints finite scores or exits 1 with one
    `error:` line that names the checkpoint."""
    doc = json.loads((workspace / "mdr" / "checkpoint.json").read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        values = doc["tensors"][data.draw(st.sampled_from(sorted(doc["tensors"])))]["values"]
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
            st.floats(allow_nan=False, allow_infinity=False))
    path = corruption_dir / "finite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    params_mod.load_checkpoint(str(path))
    result = runner.invoke(main, ["recommend", "--checkpoint", str(path), "--split",
                                  str(workspace / "splits"), "--playlist", "p0", "--top", "5"])
    if result.exit_code:
        assert result.exit_code == 1, (result.output, result.exception)
        assert str(path) in _single_error_line(result)
    else:
        scores = [float(line.split("\t")[1]) for line in result.output.splitlines()]
        assert len(scores) == 5 and all(np.isfinite(scores)), result.output


def _json_kind(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


_JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-2, 2) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=3),
    "array": st.lists(st.integers(-2, 2), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
}


def _corruption_sites(kind, doc):
    """(paths whose key a loader requires, paths whose value it checks) in a
    valid `kind` document. Keys that are optional or that no scoring command
    reads (a checkpoint's `hyperparams` and `seed`, a manifest's `model`, a
    catalog's sizes, a split's playlist set) are left out: a document
    without them is valid."""
    if kind == "catalog":
        maps = [(key,) for key in ("users", "playlists", "songs")]
        entries = [(key, ext_id) for key in ("users", "playlists", "songs")
                   for ext_id in sorted(doc[key])[:2]]
        return maps, [()] + maps + entries
    if kind == "split":
        entries = [(pid,) for pid in sorted(doc)[:2]]
        fields = [entry + (key,) for entry in entries for key in ("user", "train", "dev", "test")]
        return fields, [()] + entries + fields
    if kind == "checkpoint":
        header = [("model", key) for key in ("kind", "variant", "dim", "num_users",
                                             "num_playlists", "num_songs")]
        tensors = [("tensors", name) for name in doc["tensors"]]
        specs = [t + (key,) for t in tensors for key in ("shape", "values")]
        required = [("format",), ("model",), ("tensors",)] + header + tensors + specs
        optional = [("model", key) for key in ("attention", "use_bias", "catalog_sha256")]
        return required, [()] + required + optional
    required = [("format",), ("alpha",), ("mdr_checkpoint",), ("mass_checkpoint",)]
    return required, [()] + required


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _corrupted(draw, kind, doc):
    """`doc` with one required key dropped, one checked value replaced by a
    value of another JSON type, or one object turned into an array of its
    values (an array into an object keyed by position)."""
    doc = copy.deepcopy(doc)
    required, checked = _corruption_sites(kind, doc)
    op = draw(st.sampled_from(["drop", "type", "container"]))
    if op == "drop":
        path = draw(st.sampled_from(required))
        del _get(doc, path[:-1])[path[-1]]
        return doc
    if op == "type":
        path = draw(st.sampled_from(checked))
        other = [k for k in _JSON_VALUES if k != _json_kind(_get(doc, path))]
        value = draw(st.sampled_from(other).flatmap(_JSON_VALUES.__getitem__))
    else:
        path = draw(st.sampled_from([p for p in checked
                                     if isinstance(_get(doc, p), (dict, list))]))
        old = _get(doc, path)
        value = (list(old.values()) if isinstance(old, dict)
                 else {str(i): v for i, v in enumerate(old)})
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def corruption_dir(workspace, tmp_path_factory):
    """A split directory and a manifest to corrupt, one file at a time."""
    root = tmp_path_factory.mktemp("corrupt")
    shutil.copytree(workspace / "splits", root / "splits")
    _masr_manifest(workspace, root / "masr.json")
    # the valid checkpoint's companion, left stale beside each corrupted copy
    # (the split directory's companion is copied with it, and goes stale too)
    shutil.copy(workspace / "mdr" / "checkpoint.json.arena", root / "checkpoint.json.arena")
    # another split of the same corpus, whose companion is swapped in
    _run(["prepare", "--input", str(workspace / "interactions.tsv"),
          "--out", str(root / "other-splits"), "--seed", "1"])
    return root


_CORRUPTED_FILES = {
    "catalog": lambda ws, root: (ws / "splits" / "catalog.json", root / "splits" / "catalog.json"),
    "split": lambda ws, root: (ws / "splits" / "split.json", root / "splits" / "split.json"),
    "checkpoint": lambda ws, root: (ws / "mdr" / "checkpoint.json", root / "checkpoint.json"),
    "manifest": lambda ws, root: (root / "masr.json", root / "bad-masr.json"),
}


@pytest.mark.parametrize("command", ["evaluate", "recommend"])
@pytest.mark.parametrize("kind", sorted(_CORRUPTED_FILES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupted_artifact_fails_cleanly_naming_the_file(workspace, corruption_dir, kind,
                                                          command, data):
    source, path = _CORRUPTED_FILES[kind](workspace, corruption_dir)
    assert (corruption_dir / "splits" / "split.json.arena").exists()
    valid = json.loads(source.read_text(encoding="utf-8"))
    path.write_text(json.dumps(data.draw(_corrupted(kind, valid))), encoding="utf-8")
    model = {"checkpoint": path, "manifest": path}.get(kind, workspace / "mdr" / "checkpoint.json")
    out = corruption_dir / "metrics.json"
    out.unlink(missing_ok=True)
    args = [command, "--checkpoint", str(model), "--split", str(corruption_dir / "splits")]
    args += ["--out", str(out)] if command == "evaluate" else ["--playlist", "p0"]
    try:
        result = runner.invoke(main, args)
        assert result.exit_code == 1, (result.exit_code, result.output, result.exception)
        assert str(path) in _single_error_line(result)
        assert not out.exists()
    finally:
        if kind in ("catalog", "split"):  # the split directory is shared
            path.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")


def _rewrite_companion(path, edit, crc, dtype="<f8"):
    """Rewrite the arena file at `path`, its header and `dtype` payload passed
    through `edit(header, payload)`; with `crc`, its CRC-32 is recomputed for
    them."""
    header, payload, copies = read_arena(path, dtype)
    write_arena(path, *edit(header, payload), copies, crc=crc)


def _flip_bytes(draw, companion, data, op):
    """Write to `companion` the arena file bytes `data` with one to three
    bytes changed in the part `op` names: its header (magic, length, header
    and padding), its payload or its stored copies of the JSON files."""
    _, payload, copies = read_arena(companion, "<u1")
    payload_end = len(data) - len(copies)
    where = {"flip-header": st.integers(0, payload_end - len(payload) - 1),
             "flip-payload": st.integers(payload_end - len(payload), payload_end - 1),
             "flip-copy": st.integers(payload_end, len(data) - 1)}[op]
    damaged = bytearray(data)
    for i in draw(st.lists(where, min_size=1, max_size=3)):
        damaged[i] ^= draw(st.integers(1, 255))
    companion.write_bytes(bytes(damaged))


@st.composite
def _damaged_checkpoint(draw, workspace, path):
    """Write beside `path` the `workspace` MDR checkpoint with one tensor value or
    `shape` entry changed (its valid arena file left stale beside it), or the
    valid JSON beside a truncated, flipped, swapped, re-encoded, resized or
    re-shaped arena file."""
    source = workspace / "mdr" / "checkpoint.json"
    companion = path.with_name(path.name + ".arena")
    shutil.copy(source.with_name(source.name + ".arena"), companion)
    doc = json.loads(source.read_text(encoding="utf-8"))
    name = draw(st.sampled_from(sorted(doc["tensors"])))
    spec = doc["tensors"][name]
    op = draw(st.sampled_from(["value", "shape", "truncate", "flip-header", "flip-payload",
                               "flip-copy", "swap", "encode", "resize", "header-shape"]))
    if op in ("value", "shape"):
        field = spec["values"] if op == "value" else spec["shape"]
        i = draw(st.integers(0, len(field) - 1))
        field[i] = draw(st.floats() | st.integers(-10 ** 400, 10 ** 400)
                        if op == "value" else st.integers(-2, 2 ** 40))
        path.write_text(json.dumps(doc), encoding="utf-8")
        return op
    shutil.copy(source, path)
    data = companion.read_bytes()
    if op == "truncate":
        companion.write_bytes(data[:draw(st.integers(0, len(data) - 1))])
    elif op.startswith("flip"):
        _flip_bytes(draw, companion, data, op)
    elif op == "swap":
        shutil.copy(workspace / "mass" / "checkpoint.json.arena", companion)
    elif op == "encode":  # the values in another encoding, the CRC left as written
        dtype = draw(st.sampled_from(["<f4", ">f8", "<i8", "<f2", "<c16"]))
        _rewrite_companion(companion, lambda h, a: (h, a.astype(dtype)), crc=False)
    elif op == "resize":  # a payload of another length, with a CRC that matches it
        change = draw(st.sampled_from([lambda a: a.astype("<f4"), lambda a: a[:-1],
                                       lambda a: np.append(a, a[:1])]))
        _rewrite_companion(companion, lambda h, a: (h, change(a)), crc=True)
    else:  # a header shape entry edited beside an intact payload, with a matching CRC
        i = draw(st.integers(0, len(spec["shape"]) - 1))
        value = draw(st.integers(-2, 2 ** 40))

        def edit(header, payload):
            header["tensors"][name]["shape"][i] = value
            return header, payload
        _rewrite_companion(companion, edit, crc=True)
    return op


@st.composite
def _damaged_split_companion(draw, workspace, other, split_dir):
    """Copy `workspace`'s split directory to `split_dir`, then truncate, flip,
    swap (for the companion of the split directory `other`), re-encode or
    resize its companion, or edit one of its JSON files beside it."""
    shutil.rmtree(split_dir, ignore_errors=True)
    shutil.copytree(workspace / "splits", split_dir)
    companion = split_dir / "split.json.arena"
    data = companion.read_bytes()
    op = draw(st.sampled_from(["truncate", "flip-header", "flip-payload", "flip-copy", "swap",
                               "encode", "resize", "catalog", "split"]))
    if op == "truncate":
        companion.write_bytes(data[:draw(st.integers(0, len(data) - 1))])
    elif op.startswith("flip"):
        _flip_bytes(draw, companion, data, op)
    elif op == "swap":
        shutil.copy(other / "split.json.arena", companion)
    elif op == "encode":  # the values in another encoding, the CRC left as written
        dtype = draw(st.sampled_from(["<i4", ">i8", "<f8", "<u2"]))
        _rewrite_companion(companion, lambda h, a: (h, a.astype(dtype)), crc=False,
                           dtype="<i8")
    elif op == "resize":  # a payload of another length, with a CRC that matches it
        change = draw(st.sampled_from([lambda a: a.astype("<i4"), lambda a: a[:-1],
                                       lambda a: np.append(a, a[-1:])]))
        _rewrite_companion(companion, lambda h, a: (h, change(a)), crc=True, dtype="<i8")
    else:  # a JSON file rewritten: the same document, p0's held-out songs swapped, or
        # p0's dev song put in its train list
        path = split_dir / f"{op}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit = draw(st.sampled_from(["spaced", "swap-held-out", "dev-in-train"]))
        if op == "split" and edit == "swap-held-out":
            doc["p0"]["dev"], doc["p0"]["test"] = doc["p0"]["test"], doc["p0"]["dev"]
        elif op == "split" and edit == "dev-in-train":
            doc["p0"]["train"].append(doc["p0"]["dev"])
        elif op == "catalog" and edit != "spaced":
            a, b = sorted(doc["songs"])[:2]
            doc["songs"][a], doc["songs"][b] = doc["songs"][b], doc["songs"][a]
        path.write_text(json.dumps(doc), encoding="utf-8")
        op = f"{op}-{edit}"
    return op


def _outcome(path, split_dir, named):
    """What `recommend` prints and `load_checkpoint` returns for the checkpoint
    at `path`, and what `load_split_dir` returns for `split_dir`; a failed
    `recommend` must print one `error:` line, naming `named` unless None."""
    result = runner.invoke(main, ["recommend", "--checkpoint", str(path),
                                  "--split", str(split_dir), "--playlist", "p0"])
    assert result.exit_code in (0, 1), (result.output, result.exception)
    if result.exit_code:
        line = _single_error_line(result)
        assert named is None or str(named) in line
    try:
        ckpt, hyper, seed = params_mod.load_checkpoint(path)
        loaded = (ckpt.tensors.layout, ckpt.tensors.flat.tobytes(), hyper, seed)
    except ValueError as exc:
        loaded = str(exc)
    return result.exit_code, result.output, loaded, loaded_split(split_dir)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_checkpoint_or_companion_gives_what_the_json_alone_gives(
        workspace, corruption_dir, data):
    """A changed value or shape entry, or a damaged companion of a checkpoint
    or of a split directory, either loads the JSON's tensors, catalog and
    split exactly or fails with the JSON's own one-line error."""
    if data.draw(st.booleans()):
        path, split_dir = corruption_dir / "damaged.json", corruption_dir / "splits"
        op = data.draw(_damaged_checkpoint(workspace, path))
        companion, named = path.with_name(path.name + ".arena"), path
    else:  # an edited catalog may also fail the checkpoint's fingerprint check
        path, split_dir = workspace / "mdr" / "checkpoint.json", corruption_dir / "damaged-splits"
        op = data.draw(_damaged_split_companion(workspace, corruption_dir / "other-splits",
                                                split_dir))
        companion, named = split_dir / "split.json.arena", None
    with_companion = _outcome(path, split_dir, named)
    companion.unlink()
    assert _outcome(path, split_dir, named) == with_companion, op
