"""Command-line entry point: prepare, train, evaluate, recommend, attention-report."""

import json
import os
import sys

import click
import numpy as np

from . import analysis, dataset, evaluation, models, params as params_mod, training
from .config import parse_config

MASR_FORMAT = "metric-rec-masr-v1"


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def _load_split_dir(split_dir):
    catalog = dataset.load_catalog(os.path.join(split_dir, "catalog.json"))
    split = dataset.load_split(os.path.join(split_dir, "split.json"), catalog)
    return catalog, split


def _load_model(path):
    """Load either a model checkpoint or a fusion manifest; return a scorer."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") == MASR_FORMAT:
        base = os.path.dirname(os.path.abspath(path))

        def resolve(p):
            return p if os.path.isabs(p) else os.path.join(base, p)

        mdr, _, _ = params_mod.load_checkpoint(resolve(doc["mdr_checkpoint"]))
        mass, _, _ = params_mod.load_checkpoint(resolve(doc["mass_checkpoint"]))
        scorer = models.make_scorer((mdr, mass), alpha=doc["alpha"])
        meta = {"model": "masr", "variant": "", "attention": "", "alpha": doc["alpha"]}
        return scorer, meta
    ckpt, _, _ = params_mod.load_checkpoint(path)
    scorer = models.make_scorer(ckpt)
    meta = {"model": ckpt.kind, "variant": ckpt.variant, "attention": ckpt.attention}
    return scorer, meta


@click.group()
def main():
    """Playlist-continuation recommenders with learned diagonal metrics."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--k", default=dataset.DEFAULT_K_CORE, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-playlists-per-user", default=dataset.DEFAULT_MAX_PLAYLISTS_PER_USER,
              show_default=True)
@click.option("--max-playlist-len", default=dataset.DEFAULT_MAX_SONGS_PER_PLAYLIST,
              show_default=True)
def prepare(input_path, out_dir, k, seed, max_playlists_per_user, max_playlist_len):
    """Filter raw interactions and write catalog + split manifests."""
    try:
        catalog, split = dataset.prepare(
            input_path, out_dir, k=k, seed=seed,
            max_playlists_per_user=max_playlists_per_user,
            max_songs_per_playlist=max_playlist_len,
        )
    except (OSError, ValueError) as exc:
        _fail(exc)
    click.echo(
        f"prepared {catalog.num_playlists} playlists, {catalog.num_songs} songs, "
        f"{catalog.num_users} users -> {out_dir}"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--apr", is_flag=True, help="Run adversarial training after the base phase.")
def train(config_path, apr):
    """Train the configured model; writes checkpoint and training log."""
    try:
        cfg = parse_config(config_path)
    except (OSError, ValueError) as exc:
        _fail(exc)
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)

    if cfg.model == "masr":
        for key in ("mdr_checkpoint", "mass_checkpoint"):
            path = cfg.values[key]
            if not path or not os.path.exists(path):
                _fail(f"missing config key {key} (masr needs both pretrained checkpoints)")
        manifest = {
            "format": MASR_FORMAT,
            "model": "masr",
            "alpha": cfg.alpha,
            "mdr_checkpoint": os.path.abspath(cfg.mdr_checkpoint),
            "mass_checkpoint": os.path.abspath(cfg.mass_checkpoint),
        }
        path = os.path.join(out_dir, "masr.json")
        _write_json(manifest, path)
        click.echo(f"wrote fusion manifest {path}")
        return

    try:
        catalog, split = _load_split_dir(cfg.split_dir)
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"cannot load split from {cfg.split_dir!r}: {exc}")
    hyper = cfg.hyperparams()
    rng = np.random.default_rng(hyper.seed)
    m, n, v = catalog.num_users, catalog.num_playlists, catalog.num_songs
    if cfg.model == "mdr":
        params = params_mod.init_mdr(
            m, n, v, hyper.d, rng, variant=cfg.mdr_variant, use_bias=cfg.use_bias
        )
    else:
        params = params_mod.init_mass(
            m, n, v, hyper.d, split.max_members, rng,
            variant=cfg.mass_variant, attention=cfg.attention, use_bias=cfg.use_bias,
        )

    try:
        result = training.train(
            params, split, v, hyper,
            log_path=os.path.join(out_dir, "train_log.jsonl"), rng=rng,
        )
        if apr:
            bpr_path = os.path.join(out_dir, "checkpoint_bpr.json")
            params_mod.save_checkpoint(result.params, bpr_path, hyper.to_dict(), hyper.seed)
            result = training.train(
                result.params, split, v, hyper, mode="apr",
                log_path=os.path.join(out_dir, "apr_log.jsonl"), rng=rng,
            )
    except (FloatingPointError, ValueError) as exc:
        _fail(exc)
    ckpt_path = os.path.join(out_dir, "checkpoint.json")
    params_mod.save_checkpoint(result.params, ckpt_path, hyper.to_dict(), hyper.seed)
    click.echo(f"wrote checkpoint {ckpt_path} (best epoch {result.best_epoch})")


def _parse_n_list(spec):
    spec = spec.strip()
    for sep in ("..", "-"):
        if sep in spec:
            lo, hi = spec.split(sep, 1)
            return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--split", "split_dir", required=True, type=click.Path())
@click.option("--n", "n_spec", default="1..10", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", default="metrics.json", show_default=True)
def evaluate(checkpoint, split_dir, n_spec, seed, out_path):
    """Leave-one-out test evaluation; writes a metrics JSON."""
    try:
        scorer, meta = _load_model(checkpoint)
        catalog, split = _load_split_dir(split_dir)
        n_list = _parse_n_list(n_spec)
        metrics = evaluation.evaluate(
            scorer, split, catalog.num_songs, n_list=n_list, seed=seed
        )
    except (OSError, ValueError, KeyError) as exc:
        _fail(exc)
    doc = dict(meta)
    doc["N"] = {str(n): metrics["N"][n] for n in n_list}
    doc["num_playlists"] = metrics["num_playlists"]
    doc["seed"] = seed
    _write_json(doc, out_path)
    click.echo(f"wrote metrics {out_path}")


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--playlist", "playlist_id", required=True)
@click.option("--top", default=10, show_default=True)
@click.option("--split", "split_dir", required=True, type=click.Path())
def recommend(checkpoint, playlist_id, top, split_dir):
    """Rank unseen songs for one playlist and print the top of the list."""
    try:
        scorer, _ = _load_model(checkpoint)
        catalog, split = _load_split_dir(split_dir)
        if playlist_id not in catalog.playlists:
            _fail(f"unknown playlist id: {playlist_id}")
        p = catalog.playlists[playlist_id]
        full = split.full_set(p)
        candidates = np.array(
            [s for s in range(1, catalog.num_songs + 1) if s not in full],
            dtype=np.int64,
        )
        members, count = dataset.pad_members(split.train[p], split.max_members)
        batch = models.ScoreBatch(
            users=np.array([split.owner[p]]), playlists=np.array([p]),
            songs=candidates[None, :],
            members=np.array([members], dtype=np.int64), counts=np.array([count]),
        )
        scores = scorer(batch)[0]
        order = np.lexsort((candidates, scores))[:top]
        _, _, inv_s = catalog.inverse()
        for idx in order:
            click.echo(f"{inv_s[int(candidates[idx])]}\t{scores[idx]:.6f}")
    except (OSError, ValueError, KeyError) as exc:
        _fail(exc)


@main.command("attention-report")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--split", "split_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", default=".", show_default=True)
def attention_report(checkpoint, split_dir, out_dir):
    """PMI-vs-model attention correlation; writes pmi_att.csv and a summary."""
    try:
        ckpt, _, _ = params_mod.load_checkpoint(checkpoint)
        if ckpt.kind != "mass":
            _fail("attention report requires a mass-family checkpoint")
        catalog, split = _load_split_dir(split_dir)
        os.makedirs(out_dir, exist_ok=True)
        counts = analysis.count_cooccurrences(split.train.values())
        rho, rows = analysis.attention_correlation(
            ckpt, split, counts, csv_path=os.path.join(out_dir, "pmi_att.csv")
        )
    except (OSError, ValueError, KeyError) as exc:
        _fail(exc)
    summary_path = os.path.join(out_dir, "attention_summary.json")
    _write_json({"pearson_rho": rho, "num_pairs": len(rows)}, summary_path)
    click.echo(f"wrote {summary_path} (rho={rho:.4f})")


if __name__ == "__main__":
    main()
