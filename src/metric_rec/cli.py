"""Command-line entry point: prepare, train, evaluate, recommend, attention-report.
A command refuses its input by raising; `RefusingCommand` prints the refusal."""

import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import analysis, dataset, evaluation, models, params as params_mod, training
from .config import parse_config

MASR_FORMAT = "metric-rec-masr-v1"


class RefusingCommand(click.Command):
    """The class of every command: an OSError, ValueError or FloatingPointError
    it raises ends it with one `error:` line and exit status 1; a non-finite
    value (FloatingPointError) is named after the `--checkpoint`, if any."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            message = exc
        except FloatingPointError as exc:
            checkpoint = ctx.params.get("checkpoint")
            message = f"{checkpoint}: {exc}" if checkpoint else exc
        click.echo(f"error: {message}", err=True)
        sys.exit(1)


def _check_seed(seed):
    """Refuse a `--seed` that numpy's generators do not take."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"--seed must be in [0, 2**64 - 1], got {seed}")


def _load_split(split_dir):
    """(catalog, split) of `split_dir`; a failed load names the directory."""
    try:
        return dataset.load_split_dir(split_dir)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load split from {split_dir!r}: {exc}") from None


def _load_masr(doc, path):
    """The (mdr, mass) components and alpha of the fusion manifest `doc`, read from `path`.

    Raises ValueError naming `path` unless the manifest holds an MDR and a
    MASS checkpoint, in that order, of one catalog (equal users, playlists,
    songs and catalog fingerprint), and a number alpha in [0, 1].
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
    mdr, mass = ((p.num_users, p.num_playlists, p.num_songs, p.catalog_sha256) for p in parts)
    if mdr != mass:
        raise ValueError(f"{path}: its checkpoints index different catalogs: (users, playlists, "
                         f"songs, catalog fingerprint) are {mdr} for mdr_checkpoint, "
                         f"{mass} for mass_checkpoint")
    return tuple(parts), alpha


def _load_model(path, split_dir):
    """(scorer, meta, parts, catalog, split) of the model checkpoint or fusion
    manifest `path` and the split directory `split_dir`; `parts` holds the
    model's ModelParams.

    Raises ValueError unless the model's tables index the split's catalog:
    equal (users, playlists, songs), and an equal catalog fingerprint when
    the checkpoint has one. Scoring a model of another catalog either indexes
    past a table's end or returns a plausible answer about other users,
    playlists and songs.
    """
    loaded, doc = params_mod.read_checkpoint(path)
    if isinstance(doc, dict) and doc.get("format") == MASR_FORMAT:
        parts, alpha = _load_masr(doc, path)
        scorer = models.make_scorer(parts, alpha=alpha)
        meta = {"model": "masr", "variant": "", "attention": "", "alpha": alpha}
    else:
        ckpt, _, _ = loaded or params_mod.checkpoint_from_doc(doc, path)
        parts, scorer = (ckpt,), models.make_scorer(ckpt)
        meta = {"model": ckpt.kind, "variant": ckpt.variant, "attention": ckpt.attention}
    catalog, split = _load_split(split_dir)
    p = parts[0]  # a manifest's components index one catalog (see `_load_masr`)
    have = (p.num_users, p.num_playlists, p.num_songs)
    want = (catalog.num_users, catalog.num_playlists, catalog.num_songs)
    if have != want:
        raise ValueError(f"checkpoint does not match the split: (users, playlists, songs) "
                         f"are {have} in the checkpoint, {want} in the split")
    stamp, fingerprint = p.catalog_sha256, catalog.fingerprint()
    if stamp and stamp != fingerprint:
        raise ValueError(f"checkpoint does not match the split: its catalog fingerprint is "
                         f"{stamp[:12]}..., the split's is {fingerprint[:12]}...")
    return scorer, meta, parts, catalog, split


@click.group()
def main():
    """Playlist-continuation recommenders with learned diagonal metrics."""


main.command_class = RefusingCommand


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
    if k < 1:
        raise ValueError(f"--k must be >= 1, got {k}")
    _check_seed(seed)
    catalog, split = dataset.prepare(
        input_path, out_dir, k=k, seed=seed,
        max_playlists_per_user=max_playlists_per_user,
        max_songs_per_playlist=max_playlist_len,
    )
    click.echo(f"prepared {catalog.num_playlists} playlists, {catalog.num_songs} songs, "
               f"{catalog.num_users} users -> {out_dir}")


def _make_out_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create out_dir {out_dir!r}: {exc}") from None


def _write_masr_manifest(cfg):
    """Write `masr.json` into the config's out_dir once both component
    checkpoints load as the kinds the manifest names; out_dir is made only then."""
    for key in ("mdr_checkpoint", "mass_checkpoint"):
        path = cfg.values[key]
        if not path:
            raise ValueError(f"missing config key {key} (masr needs both pretrained checkpoints)")
        if not os.path.isfile(path):
            raise ValueError(f"{key}: no checkpoint file at {path}")
    manifest = {"format": MASR_FORMAT, "model": "masr", "alpha": cfg.alpha,
                "mdr_checkpoint": os.path.abspath(cfg.mdr_checkpoint),
                "mass_checkpoint": os.path.abspath(cfg.mass_checkpoint)}
    path = os.path.join(cfg.out_dir, "masr.json")
    _load_masr(manifest, path)
    _make_out_dir(cfg.out_dir)
    dataset.write_json(manifest, path)
    click.echo(f"wrote fusion manifest {path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--apr", is_flag=True, help="Run adversarial training after the base phase.")
def train(config_path, apr):
    """Train the configured model; writes checkpoint and training log."""
    cfg = parse_config(config_path)
    out_dir = cfg.out_dir
    if cfg.model == "masr":
        if apr:
            raise ValueError("--apr does not apply to model = masr, which trains nothing")
        _write_masr_manifest(cfg)
        return
    if not cfg.split_dir:
        raise ValueError("missing config key split_dir")
    catalog, split = _load_split(cfg.split_dir)
    _make_out_dir(out_dir)
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
    click.echo(f"wrote checkpoint {ckpt_path} (best epoch {result.best_epoch})")


def _parse_n_list(spec):
    """The N values of an `--n` spec, `N,N,...` or `LO..HI`, each from 1 to the
    length of a ranked list; the bounds are checked before a range is built."""
    spec = spec.strip()
    ends = spec.split("..", 1)
    try:
        values = [int(x) for x in (ends if len(ends) == 2 else spec.split(","))]
    except ValueError:
        raise ValueError(f"--n {spec!r}: expected integers as N,N,... or LO..HI") from None
    if len(ends) == 2 and values[0] > values[1]:
        raise ValueError(f"--n {spec!r} gives no value of N")
    if min(values) < 1:
        raise ValueError(f"--n {spec!r}: N must be >= 1, got {min(values)}")
    longest = 1 + evaluation.DEFAULT_NUM_NEGATIVES
    if max(values) > longest:
        raise ValueError(f"--n {spec!r}: N must be <= {longest}, the length of a ranked "
                         f"list, got {max(values)}")
    return list(range(values[0], values[1] + 1)) if len(ends) == 2 else values


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--split", "split_dir", required=True, type=click.Path())
@click.option("--n", "n_spec", default="1..10", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", default="metrics.json", show_default=True)
def evaluate(checkpoint, split_dir, n_spec, seed, out_path):
    """Leave-one-out test evaluation; writes a metrics JSON."""
    _check_seed(seed)
    if os.path.isdir(out_path):
        raise ValueError(f"--out {out_path}: is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        raise ValueError(f"--out {out_path}: its directory does not exist")
    n_list = _parse_n_list(n_spec)
    scorer, meta, _, catalog, split = _load_model(checkpoint, split_dir)
    held = evaluation.held_out(split, catalog.num_songs, seed=seed)
    metrics = evaluation.evaluate(scorer, held, n_list=n_list)
    doc = dict(meta)
    doc["N"] = {str(n): metrics["N"][n] for n in n_list}
    doc["num_playlists"] = metrics["num_playlists"]
    doc["seed"] = seed
    dataset.write_json(doc, out_path)
    click.echo(f"wrote metrics {out_path}")


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--playlist", "playlist_id", required=True)
@click.option("--top", default=10, show_default=True)
@click.option("--split", "split_dir", required=True, type=click.Path())
def recommend(checkpoint, playlist_id, top, split_dir):
    """Rank unseen songs for one playlist and print the top of the list."""
    if top < 1:
        raise ValueError(f"--top must be at least 1, got {top}")
    scorer, _, _, catalog, split = _load_model(checkpoint, split_dir)
    p = catalog.playlists.get(playlist_id)
    if p is None:
        raise ValueError(f"unknown playlist id: {playlist_id}")
    start, end = split.offsets[p:p + 2]
    if start == end:
        raise ValueError(f"playlist {playlist_id} has no entry in the split under {split_dir}")
    candidates = dataset.songs_outside(
        np.append(split.songs[start:end], (split.dev[p], split.test[p])), catalog.num_songs)
    scores = scorer(evaluation.context_batch(split, [p], candidates[None, :]))[0]
    order = np.lexsort((candidates, scores))[:top]
    for song, score in zip(candidates[order].tolist(), scores[order]):
        click.echo(f"{catalog.song_ids[song - 1]}\t{score:.6f}")


@main.command("attention-report")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--split", "split_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", default=".", show_default=True)
def attention_report(checkpoint, split_dir, out_dir):
    """PMI-vs-model attention correlation; writes pmi_att.csv and a summary."""
    _, meta, parts, _, split = _load_model(checkpoint, split_dir)
    if meta["model"] != "mass":
        raise ValueError("attention report requires a mass-family checkpoint")
    rho, rows = analysis.attention_correlation(
        parts[0], split, csv_path=os.path.join(out_dir, "pmi_att.csv"))
    summary_path = os.path.join(out_dir, "attention_summary.json")
    dataset.write_json({"pearson_rho": rho, "num_pairs": len(rows)}, summary_path)
    click.echo(f"wrote {summary_path} (rho={rho:.4f})")


if __name__ == "__main__":
    main()
