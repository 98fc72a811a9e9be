"""Seeded corpus generators for the knnsum benchmark.

Two corpora, both written as the three files the CLI reads (ratings log,
N-Triples graph, link map):

* ``dense_corpus`` -- the HetRec-shaped corpus of acceptance criterion 10:
  uniform users x items, a fixed number of events per user, and a
  type-only graph. At its default size and seed 7 it is byte-for-byte the
  corpus ``tests/test_acceptance.py::_hetrec_shaped_corpus`` writes
  (``python3 perfbench/corpus.py --check-criterion-10`` proves it).
* ``longtail_corpus`` -- Zipf item popularity, lognormal user activity and
  a feature-bearing film graph with blank-node performances (the two-hop
  path film -performance-> _:p -actor/character-> value), a few unlinked
  items and a few deliberately malformed ratings and N-Triples lines.

Each generator returns the file contents plus the structured data the
benchmark's own correctness checks recompute from (raw pairs, raw triples
as N-Triples tokens). Nothing here imports knnsum.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
FILM_TYPE = "http://example.org/Film"
FILM_PREFIX = "http://example.org/film/F"
EX = "http://example.org/"
XSD_GYEAR = "http://www.w3.org/2001/XMLSchema#gYear"
RATING_COL = 2          # userID, movieID, rating: the rating is discarded

# sha256 of the three files _hetrec_shaped_corpus writes (seed 7, full size).
CRITERION_10_SHA256 = {
    "ratings.dat": "e33c7aae2e28680f5b6ce53d58b62a71a1c56ade9992ac6dfe08199559f7ebce",
    "graph.nt": "e0f85579a3dbf860c895c00b7f3cdb84a5c06c4c90796b7c43eaf8085e29bc11",
    "links.tsv": "0b137d40ca1fc5b2be2024b956679b0edca3f0989b3a951c9f46d88f37f9660d",
}


@dataclass
class Corpus:
    """Generated inputs plus the raw data the checks recount from."""

    ratings: bytes
    graph: bytes
    links: bytes
    pairs: list[tuple[str, str]]          # accepted (user, item) events
    link_map: dict[str, str]              # item id -> entity iri
    triples: list[tuple[str, str, str]]   # well-formed N-Triples tokens
    rejected_ratings: int                 # planted malformed ratings lines
    malformed_triples: int                # planted malformed graph lines
    popularity: dict[str, int]            # item id -> events

    def files(self) -> dict[str, bytes]:
        return {"ratings.dat": self.ratings, "graph.nt": self.graph,
                "links.tsv": self.links}

    def write(self, root: Path) -> dict[str, str]:
        """Write the three input files; return their sha256 digests."""
        root.mkdir(parents=True, exist_ok=True)
        digests = {}
        for name, data in self.files().items():
            (root / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        return digests


def _text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def film_iri(i: int) -> str:
    return f"{FILM_PREFIX}{i:05d}"


def dense_corpus(seed: int = 7, n_users: int = 2_113, n_items: int = 10_197,
                 n_events: int = 855_000) -> Corpus:
    """Criterion-10 generator: every user rates the same number of
    uniformly drawn distinct items; the graph types every item a Film."""
    rng = np.random.default_rng(seed)
    per_user = np.full(n_users, n_events // n_users)
    per_user[:n_events % n_users] += 1
    lines = ["userID\tmovieID\trating"]
    pairs = []
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user[u], replace=False)
        uid = f"u{u:04d}"
        for i in items:
            iid = f"i{i:05d}"
            pairs.append((uid, iid))
            lines.append(f"{uid}\t{iid}\t3.5")
    nt = []
    links = []
    triples = []
    link_map = {}
    for i in range(n_items):
        e = film_iri(i)
        nt.append(f"<{e}> {RDF_TYPE} <{FILM_TYPE}> .")
        triples.append((f"<{e}>", RDF_TYPE, f"<{FILM_TYPE}>"))
        links.append(f"i{i:05d}\t{e}")
        link_map[f"i{i:05d}"] = e
    return Corpus(_text(lines), _text(nt), _text(links), pairs, link_map,
                  triples, 0, 0, _popularity(pairs))


def _popularity(pairs: list[tuple[str, str]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _, item in pairs:
        counts[item] = counts.get(item, 0) + 1
    return counts


def longtail_corpus(seed: int, n_users: int = 2_000, n_films: int = 4_000,
                    n_events: int = 28_000) -> Corpus:
    """Zipf (s = 1) item popularity, lognormal user activity, and a film
    graph with one-hop features and two-hop blank-node performances."""
    rng = np.random.default_rng([seed, 0x4C54])
    # -- usage: lognormal activity, Zipf popularity over a shuffled ranking
    activity = rng.lognormal(mean=0.0, sigma=1.0, size=n_users)
    activity = np.maximum(1, np.round(activity * n_events / activity.sum()))
    activity = np.minimum(activity, n_films // 4).astype(int)
    rank = rng.permutation(n_films) + 1
    weight = 1.0 / rank
    weight /= weight.sum()
    lines = ["userID\tmovieID\trating"]
    pairs = []
    for u in range(n_users):
        # Gumbel top-k: distinct items drawn proportionally to weight
        keys = np.log(weight) - np.log(-np.log(rng.random(n_films)))
        items = np.sort(np.argpartition(-keys, activity[u])[:activity[u]])
        uid = f"u{u:04d}"
        for i in rng.permutation(items):
            iid = f"i{i:05d}"
            pairs.append((uid, iid))
            lines.append(f"{uid}\t{iid}\t{1 + (i + u) % 5}.0")
    # planted malformed ratings lines: too few columns, empty ids
    bad_ratings = ["u9999", "\ti00001\t4.0", "u9998\t\t3.0", "garbage"]
    for bad in bad_ratings:
        lines.insert(1 + int(rng.integers(1, len(lines))), bad)

    # -- graph
    genres = [f"<{EX}genre/G{g:02d}>" for g in range(24)]
    genre_w = 1.0 / np.arange(1, len(genres) + 1)
    genre_w /= genre_w.sum()
    studios = [f"<{EX}studio/S{s:03d}>" for s in range(60)]
    countries = [f"<{EX}country/C{c:02d}>" for c in range(30)]
    n_directors = max(1, n_films // 4)
    n_actors = max(1, n_films)
    actor_w = 1.0 / np.arange(1, n_actors + 1) ** 0.8
    actor_w /= actor_w.sum()
    n_characters = max(1, n_films // 2)
    char_w = 1.0 / np.arange(1, n_characters + 1)
    char_w /= char_w.sum()
    p = {name: f"<{EX}p/{name}>" for name in (
        "genre", "studio", "country", "director", "year", "performance",
        "actor", "character")}
    triples: list[tuple[str, str, str]] = []
    for f in range(n_films):
        e = f"<{film_iri(f)}>"
        triples.append((e, RDF_TYPE, f"<{FILM_TYPE}>"))
        for g in sorted(set(rng.choice(len(genres), size=int(rng.integers(1, 4)),
                                       p=genre_w).tolist())):
            triples.append((e, p["genre"], genres[g]))
        triples.append((e, p["studio"], studios[int(rng.integers(len(studios)))]))
        triples.append((e, p["country"],
                        countries[int(rng.integers(len(countries)))]))
        triples.append((e, p["director"],
                        f"<{EX}person/D{int(rng.integers(n_directors)):05d}>"))
        triples.append((e, p["year"],
                        f'"{1950 + int(rng.integers(70))}"^^<{XSD_GYEAR}>'))
        n_perf = int(rng.integers(3, 9))
        actors = rng.choice(n_actors, size=n_perf, p=actor_w)
        chars = rng.choice(n_characters, size=n_perf, p=char_w)
        for j in range(n_perf):
            node = f"_:p{f:05d}x{j}"
            triples.append((e, p["performance"], node))
            triples.append((node, p["actor"],
                            f"<{EX}person/A{int(actors[j]):05d}>"))
            triples.append((node, p["character"],
                            f'"Character {int(chars[j])}"@en'))
    triples = sorted(set(triples))
    nt = [f"{s} {pr} {o} ." for s, pr, o in triples]
    bad_triples = ["<http://example.org/broken> <http://example.org/p/x>",
                   '<http://example.org/x> <http://example.org/p/y> "\\q" .',
                   "not a triple at all ."]
    for bad in bad_triples:
        nt.insert(int(rng.integers(0, len(nt))), bad)

    # -- links: about 5% of rated items stay unlinked
    rated = sorted({item for _, item in pairs})
    unlinked = set(rng.choice(len(rated), size=len(rated) // 20,
                              replace=False).tolist())
    link_map = {item: film_iri(int(item[1:]))
                for k, item in enumerate(rated) if k not in unlinked}
    links = [f"{item}\t{target}" for item, target in link_map.items()]
    return Corpus(_text(lines), _text(nt), _text(links), pairs, link_map,
                  triples, len(bad_ratings), len(bad_triples),
                  _popularity(pairs))


def _check_criterion_10() -> int:
    corpus = dense_corpus()
    ok = True
    for name, data in corpus.files().items():
        got = hashlib.sha256(data).hexdigest()
        want = CRITERION_10_SHA256[name]
        print(f"{name}\t{got}\t{'ok' if got == want else 'MISMATCH'}")
        ok = ok and got == want
    return 0 if ok else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-criterion-10", action="store_true",
                        help="regenerate the criterion-10 corpus and compare "
                             "its digests with the recorded ones")
    args = parser.parse_args()
    if args.check_criterion_10:
        sys.exit(_check_criterion_10())
    parser.print_help()
