import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import synthetic
from metric_rec import params as params_mod
from metric_rec.cli import main

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
    synthetic.write_tsv(synthetic.planted_cluster_records(seed=0), tsv)
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
    tsv = workspace / "interactions.tsv"
    for d in ("a", "b"):
        _run(["prepare", "--input", str(tsv), "--out", str(tmp_path / d)])
    for name in ("catalog.json", "split.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_prepare_missing_input_fails(tmp_path):
    result = _run(["prepare", "--input", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "out")], expect_exit=1)
    assert "error:" in result.output


def test_train_writes_artifacts(workspace):
    assert (workspace / "mdr" / "checkpoint.json").exists()
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


def test_train_apr_writes_both_checkpoints(workspace, tmp_path):
    out_dir = tmp_path / "apr"
    cfg = _write_config(tmp_path / "apr.cfg", model="mdr",
                        split_dir=workspace / "splits", out_dir=out_dir,
                        epochs="1", batch_size="64", d="8")
    _run(["train", "--config", cfg, "--apr"])
    assert (out_dir / "checkpoint_bpr.json").exists()
    assert (out_dir / "checkpoint.json").exists()
    assert (out_dir / "apr_log.jsonl").exists()


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


def test_attention_report_rejects_mdr(workspace, tmp_path):
    result = _run(["attention-report",
                   "--checkpoint", str(workspace / "mdr" / "checkpoint.json"),
                   "--split", str(workspace / "splits"),
                   "--out", str(tmp_path)], expect_exit=1)
    assert "mass-family" in result.output


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


def test_masr_requires_both_checkpoints(workspace, tmp_path):
    cfg = _write_config(tmp_path / "masr.cfg", model="masr",
                        out_dir=tmp_path,
                        mdr_checkpoint=workspace / "mdr" / "checkpoint.json")
    result = _run(["train", "--config", cfg], expect_exit=1)
    assert "mass_checkpoint" in result.output
