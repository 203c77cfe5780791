"""Command-line entry point: prepare, train, evaluate, recommend, attention-report."""

import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import analysis, dataset, evaluation, models, params as params_mod, training
from .config import parse_config

MASR_FORMAT = "metric-rec-masr-v1"


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _check_catalog(parts, catalog):
    """Refuse models whose tables index another catalog than the split's.

    Scoring such a model either indexes past a table's end or returns a
    plausible answer about other users, playlists and songs. Sizes are
    compared first; the catalog fingerprint too, when the checkpoint has one.
    """
    want = (catalog.num_users, catalog.num_playlists, catalog.num_songs)
    fingerprint = catalog.fingerprint()
    for p in parts:
        have = (p.num_users, p.num_playlists, p.num_songs)
        if have != want:
            _fail(f"checkpoint does not match the split: (users, playlists, songs) "
                  f"are {have} in the checkpoint, {want} in the split")
        if p.catalog_sha256 and p.catalog_sha256 != fingerprint:
            _fail(f"checkpoint does not match the split: its catalog fingerprint is "
                  f"{p.catalog_sha256[:12]}..., the split's is {fingerprint[:12]}...")


def _load_masr(doc, path):
    """The (mdr, mass) components and alpha of the fusion manifest `doc`, read from `path`.

    Raises ValueError naming `path` unless the manifest holds an MDR and a
    MASS checkpoint, in that order, and a number alpha in [0, 1].
    """
    alpha = doc.get("alpha")
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 <= alpha <= 1:
        raise ValueError(f"{path}: alpha: must be a number in [0, 1], got {alpha!r}")
    base = os.path.dirname(os.path.abspath(path))
    parts = []
    for kind in ("mdr", "mass"):
        key = f"{kind}_checkpoint"
        if not isinstance(doc.get(key), str):
            raise ValueError(f"{path}: {key}: missing, or not a path")
        part, _, _ = params_mod.load_checkpoint(os.path.join(base, doc[key]))
        if part.kind != kind:
            raise ValueError(f"{path}: {key}: {doc[key]} is a {part.kind!r} checkpoint, "
                             f"{kind!r} expected")
        parts.append(part)
    return tuple(parts), alpha


def _load_model(path):
    """Load a model checkpoint or a fusion manifest; return (scorer, meta, its ModelParams)."""
    loaded, doc = params_mod.read_checkpoint(path)
    if isinstance(doc, dict) and doc.get("format") == MASR_FORMAT:
        parts, alpha = _load_masr(doc, path)
        scorer = models.make_scorer(parts, alpha=alpha)
        meta = {"model": "masr", "variant": "", "attention": "", "alpha": alpha}
        return scorer, meta, parts
    ckpt, _, _ = loaded or params_mod.checkpoint_from_doc(doc, path)
    scorer = models.make_scorer(ckpt)
    meta = {"model": ckpt.kind, "variant": ckpt.variant, "attention": ckpt.attention}
    return scorer, meta, (ckpt,)


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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot create out_dir {out_dir!r}: {exc}")

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
        try:
            _load_masr(manifest, path)
            dataset.write_json(manifest, path)
        except (OSError, ValueError) as exc:
            _fail(exc)
        click.echo(f"wrote fusion manifest {path}")
        return

    try:
        catalog, split = dataset.load_split_dir(cfg.split_dir)
    except (OSError, ValueError) as exc:
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
            m, n, v, hyper.d, rng,
            variant=cfg.mass_variant, attention=cfg.attention, use_bias=cfg.use_bias,
        )
    params.catalog_sha256 = catalog.fingerprint()

    try:
        # Both phases train on the same instances and rank the same dev lists.
        data = training.build_train_data(split, v)
        dev = evaluation.held_out(split, v, hyper.seed, "dev") if hyper.epochs else None
        result = training.train(params, data, dev, hyper, mode="bpr", rng=rng,
                                log_path=os.path.join(out_dir, "train_log.jsonl"))
        if apr:
            bpr_path = os.path.join(out_dir, "checkpoint_bpr.json")
            params_mod.save_checkpoint(result.params, bpr_path, asdict(hyper), hyper.seed)
            result = training.train(result.params, data, dev, hyper, mode="apr", rng=rng,
                                    log_path=os.path.join(out_dir, "apr_log.jsonl"))
        ckpt_path = os.path.join(out_dir, "checkpoint.json")
        params_mod.save_checkpoint(result.params, ckpt_path, asdict(hyper), hyper.seed)
    except (FloatingPointError, OSError, ValueError) as exc:
        _fail(exc)
    click.echo(f"wrote checkpoint {ckpt_path} (best epoch {result.best_epoch})")


def _parse_n_list(spec):
    spec = spec.strip()
    for sep in ("..", "-"):
        if sep in spec:
            lo, hi = spec.split(sep, 1)
            n_list = list(range(int(lo), int(hi) + 1))
            break
    else:
        n_list = [int(x) for x in spec.split(",")]
    if not n_list:
        raise ValueError(f"--n {spec!r} gives no value of N")
    if min(n_list) < 1:
        raise ValueError(f"--n {spec!r}: N must be >= 1, got {min(n_list)}")
    return n_list


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--split", "split_dir", required=True, type=click.Path())
@click.option("--n", "n_spec", default="1..10", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", default="metrics.json", show_default=True)
def evaluate(checkpoint, split_dir, n_spec, seed, out_path):
    """Leave-one-out test evaluation; writes a metrics JSON."""
    if not 0 <= seed < 2 ** 64:
        _fail(f"--seed must be in [0, 2**64 - 1], got {seed}")
    if os.path.isdir(out_path):
        _fail(f"--out {out_path}: is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        _fail(f"--out {out_path}: its directory does not exist")
    try:
        n_list = _parse_n_list(n_spec)
        scorer, meta, parts = _load_model(checkpoint)
        catalog, split = dataset.load_split_dir(split_dir)
        _check_catalog(parts, catalog)
        held = evaluation.held_out(split, catalog.num_songs, seed=seed)
        metrics = evaluation.evaluate(scorer, held, n_list=n_list)
        doc = dict(meta)
        doc["N"] = {str(n): metrics["N"][n] for n in n_list}
        doc["num_playlists"] = metrics["num_playlists"]
        doc["seed"] = seed
        dataset.write_json(doc, out_path)
    except (OSError, ValueError) as exc:
        _fail(exc)
    except FloatingPointError as exc:
        _fail(f"{checkpoint}: {exc}")
    click.echo(f"wrote metrics {out_path}")


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--playlist", "playlist_id", required=True)
@click.option("--top", default=10, show_default=True)
@click.option("--split", "split_dir", required=True, type=click.Path())
def recommend(checkpoint, playlist_id, top, split_dir):
    """Rank unseen songs for one playlist and print the top of the list."""
    if top < 1:
        _fail(f"--top must be at least 1, got {top}")
    try:
        scorer, _, parts = _load_model(checkpoint)
        catalog, split = dataset.load_split_dir(split_dir)
        _check_catalog(parts, catalog)
        if playlist_id not in catalog.playlists:
            _fail(f"unknown playlist id: {playlist_id}")
        p = catalog.playlists[playlist_id]
        start, end = split.offsets[p:p + 2]
        if start == end:
            _fail(f"playlist {playlist_id} has no entry in the split under {split_dir}")
        candidates = dataset.songs_outside(
            np.append(split.songs[start:end], (split.dev[p], split.test[p])), catalog.num_songs)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            scores = scorer(evaluation.context_batch(split, [p], candidates[None, :]))[0]
        if not np.isfinite(scores).all():
            _fail(f"{checkpoint}: the model scores a candidate song as inf or nan")
        order = np.lexsort((candidates, scores))[:top]
        top_songs = candidates[order].tolist()
        wanted = set(top_songs)
        ids = {i: song_id for song_id, i in catalog.songs.items() if i in wanted}
        for song, score in zip(top_songs, scores[order]):
            click.echo(f"{ids[song]}\t{score:.6f}")
    except (OSError, ValueError) as exc:
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
        catalog, split = dataset.load_split_dir(split_dir)
        _check_catalog((ckpt,), catalog)
        os.makedirs(out_dir, exist_ok=True)
        counts = analysis.count_cooccurrences(split.train_lists())
        rho, rows = analysis.attention_correlation(
            ckpt, split, counts, csv_path=os.path.join(out_dir, "pmi_att.csv")
        )
        summary_path = os.path.join(out_dir, "attention_summary.json")
        dataset.write_json({"pearson_rho": rho, "num_pairs": len(rows)}, summary_path)
    except (OSError, ValueError) as exc:
        _fail(exc)
    except FloatingPointError as exc:
        _fail(f"{checkpoint}: {exc}")
    click.echo(f"wrote {summary_path} (rho={rho:.4f})")


if __name__ == "__main__":
    main()
