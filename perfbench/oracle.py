"""Output checks, including an independent numpy oracle for `recommend`.

The oracle reads the catalog, split and checkpoint JSON files directly and
recomputes MDR and MASS (`us` variant, `nonmem_dot` attention) scores from
the stored tensors, without calling the program. Comparisons are tolerance
based, so that ties and last-digit rounding never flake, and no check pins
an exact hit rate: a sampler rewrite may legitimately change the RNG stream.
"""

import json
import math
import os

import numpy as np

ATOL = 2e-6
RTOL = 1e-6


def _read(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _tensors(path):
    doc = _read(path)
    t = {name: np.array(spec["values"], dtype=np.float64).reshape(spec["shape"])
         for name, spec in doc["tensors"].items()}
    return doc["model"], t


def _mdr_scores(t, user, playlist, songs):
    s = t["S"][songs]
    out = np.zeros(len(songs))
    if "U" in t:
        out += np.sum((t["B1"] * (t["U"][user] - s)) ** 2, axis=1)
    if "P" in t:
        out += np.sum((t["B2"] * (t["P"][playlist] - s)) ** 2, axis=1)
    if "theta" in t:
        out += t["theta"][songs]
    return out


def _mass_scores(model, t, user, members, songs):
    if (model["variant"], model["attention"]) != ("us", "nonmem_dot"):
        raise ValueError("the oracle covers MASS `us` with `nonmem_dot` attention only")
    q = np.maximum(np.hstack([np.tile(t["U"][user], (len(songs), 1)), t["S"][songs]])
                   @ t["W1"] + t["b1"], 0.0)
    m = t["S"][np.asarray(members)]
    dists = np.sum((t["B3"] * (q[:, None, :] - m[None, :, :])) ** 2, axis=2)
    logits = q @ m.T
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    out = np.sum(w * dists, axis=1)
    if "song_bias" in t:
        out += t["song_bias"][songs]
    return out


class RecommendOracle:
    """Scores every candidate song of a playlist from a checkpoint or MASR manifest."""

    def __init__(self, checkpoint, split_dir):
        catalog = _read(os.path.join(split_dir, "catalog.json"))
        self.split = _read(os.path.join(split_dir, "split.json"))
        self.users, self.playlists, self.songs = (
            catalog["users"], catalog["playlists"], catalog["songs"])
        doc = _read(checkpoint)
        if doc.get("model") == "masr":
            self.parts = [(doc["alpha"], _tensors(doc["mdr_checkpoint"])),
                          (1.0 - doc["alpha"], _tensors(doc["mass_checkpoint"]))]
        else:
            self.parts = [(1.0, _tensors(checkpoint))]

    def scores(self, playlist_id):
        """(candidate song ids, scores) over every song not in the playlist."""
        entry = self.split[playlist_id]
        taken = set(entry["train"]) | {entry["dev"], entry["test"]}
        ids = sorted(s for s in self.songs if s not in taken)
        songs = np.array([self.songs[s] for s in ids])
        user, playlist = self.users[entry["user"]], self.playlists[playlist_id]
        members = [self.songs[s] for s in entry["train"]]
        total = np.zeros(len(songs))
        for weight, (model, t) in self.parts:
            if model["kind"] == "mdr":
                total += weight * _mdr_scores(t, user, playlist, songs)
            else:
                total += weight * _mass_scores(model, t, user, members, songs)
        return ids, total

    def check(self, playlist_id, output, top):
        """(problems, None) for one `recommend` output; no problems for a valid top-N."""
        ids, scores = self.scores(playlist_id)
        by_id = dict(zip(ids, scores))
        rows = [line.split("\t") for line in output.splitlines()]
        if len(rows) != min(top, len(ids)) or any(len(r) != 2 for r in rows):
            return [f"{playlist_id}: expected {min(top, len(ids))} rows, got {output!r}"], None
        problems = []
        if len({song for song, _ in rows}) != len(rows):
            problems.append(f"{playlist_id}: a song is printed more than once")
        printed = [float(score) for _, score in rows]
        if any(b < a for a, b in zip(printed, printed[1:])):
            problems.append(f"{playlist_id}: scores not ascending")
        kth = np.sort(scores)[len(rows) - 1]
        for (song, _), value in zip(rows, printed):
            if song not in by_id:
                problems.append(f"{playlist_id}: {song} is not a candidate")
                continue
            want = by_id[song]
            if abs(value - want) > ATOL + RTOL * abs(want):
                problems.append(f"{playlist_id}: {song} scored {value}, oracle {want}")
            if want > kth + ATOL + RTOL * abs(kth):
                problems.append(f"{playlist_id}: {song} is not in the oracle top {top}")
        return problems, None


def check_train_logs(out_dir, hit_floor):
    """Finite losses in both phase logs and a best dev hit@10 above the floor."""
    problems, best = [], -1.0
    for name in ("train_log.jsonl", "apr_log.jsonl"):
        with open(os.path.join(out_dir, name), encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        if not records:
            problems.append(f"{name}: no epochs logged")
        for r in records:
            if not math.isfinite(r["train_loss"]):
                problems.append(f"{name}: non-finite loss at epoch {r['epoch']}")
            best = max(best, r["dev_hit10"])
    if best < hit_floor:
        problems.append(f"best dev hit@10 {best:.3f} is below the floor {hit_floor}")
    return problems, best


def check_metrics(path, num_playlists, hit_floor):
    """A well-formed `evaluate` output whose hit@10 clears the floor."""
    doc = _read(path)
    problems = []
    if doc["num_playlists"] != num_playlists:
        problems.append(f"evaluated {doc['num_playlists']} playlists, expected {num_playlists}")
    for n, row in doc["N"].items():
        if not (0.0 <= row["ndcg"] <= row["hit"] <= 1.0):
            problems.append(f"N={n}: hit/ndcg out of order or range: {row}")
    hit10 = doc["N"]["10"]["hit"]
    if hit10 < hit_floor:
        problems.append(f"test hit@10 {hit10:.3f} is below the floor {hit_floor}")
    return problems, hit10
