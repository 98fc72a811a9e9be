"""Planted-signal check of the paper's two claims, one hop and two.

A seeded world plants taste clusters of users and films. Each cluster
has a signature studio, globally rare and held by most of its films.
Every film also has three universal features (country, language,
format), a genre held by about 40% of all films and three noise tags of
its own. The real G2 neighborhoods (all_pairs_knn) and the real
summarize() should put each holder's signature studio first, and among
its top three: the features shared with usage neighbors carry the signal
(claim 1), and the downgrading factor ln(|E|/|B|) keeps the universal
features from drowning it (claim 2). Three ablations, each computed
here, should lose it at both depths: |A| alone (the universal features
win), ln(|E|/|B|) alone without neighbors (the noise tags win), and
neighborhoods shuffled across items (the signal is gone).

The two-hop world is the same world with every feature of a film moved
behind the film's own performance node, so that each feature (p, v)
becomes the path (performance, p, v), and it goes through
summarize(..., two_hop=True). Supports and witnesses carry over path for
feature, so its precision equals the one-hop world's.
"""

from __future__ import annotations

import math
import random
import time

from knnsum.rdf import (RDF_TYPE, Feature, PathFeature, Triple, TripleStore,
                        iri, term_key)
from knnsum.similarity import NeighborList, all_pairs_knn
from knnsum.summarize import SummaryContext, summarize
from knnsum.usage import UsageMatrix
from oracles import brute_features

EX = "http://example.org/planted/"
FILM = iri(EX + "Film")
KNN = iri("urn:knnsum:knn")
STUDIO, GENRE, TAG, PERFORMANCE = (
    iri(EX + p) for p in ("studio", "genre", "tag", "performance"))
UNIVERSAL = [Feature(iri(EX + p), iri(f"{EX}{p}/{v}")) for p, v in
             (("country", "all"), ("language", "en"), ("format", "color"))]

CLUSTERS = 6
FILMS_PER_CLUSTER = 12
USERS_PER_CLUSTER = 15
SIGNATURE_HOLDERS = 8        # films of a cluster holding its studio
GENRE_SHARE = 0.4
TAGS_PER_FILM = 3
RATE_IN, RATE_OUT = 0.5, 0.05  # chance a user rates a film in / out of taste
K = 10
SEEDS = range(5)
WEIGHTINGS = ("paper", "|A| only", "ln(|E|/|B|) only", "shuffled")


def planted_world(seed: int, two_hop: bool = False):
    """(triples, matrix, links, the signature of each holder's item id);
    with two_hop, each film's features sit behind its performance node."""
    rng = random.Random(seed)
    films = [(c, j) for c in range(CLUSTERS) for j in range(FILMS_PER_CLUSTER)]
    pairs = [(f"u{c}.{u}", f"m{fc}.{j}")
             for c in range(CLUSTERS) for u in range(USERS_PER_CLUSTER)
             for fc, j in films
             if rng.random() < (RATE_IN if fc == c else RATE_OUT)]
    triples, links, signature = [], {}, {}
    for c, j in films:
        item, e = f"m{c}.{j}", iri(f"{EX}film/{c}.{j}")
        links[item] = e.lexical
        triples.append(Triple(e, RDF_TYPE, FILM))
        holder = e
        if two_hop:
            holder = iri(f"{EX}performance/{c}.{j}")
            triples.append(Triple(e, PERFORMANCE, holder))
        features = UNIVERSAL + [Feature(TAG, iri(f"{EX}tag/{c}.{j}.{t}"))
                                for t in range(TAGS_PER_FILM)]
        if j < SIGNATURE_HOLDERS:
            studio = Feature(STUDIO, iri(f"{EX}studio/{c}"))
            features.append(studio)
            signature[item] = (PathFeature(PERFORMANCE, *studio) if two_hop
                               else studio)
        if rng.random() < GENRE_SHARE:
            features.append(Feature(GENRE, iri(EX + "genre/drama")))
        triples += [Triple(holder, *f) for f in features]
    return triples, UsageMatrix(pairs), links, signature


def _ranked(scored) -> list:
    """The features by descending score; ties go to the smaller feature,
    as summarize breaks them."""
    return [f for f, _score in sorted(
        scored, key=lambda fs: (-fs[1], tuple(map(term_key, fs[0]))))]


def precision(seed: int, two_hop: bool = False
              ) -> dict[str, tuple[float, float]]:
    """For the paper's weighting and each ablation: the share of signature
    holders whose top feature is their signature (precision@1), and the
    share whose top three features hold it (precision@3)."""
    triples, matrix, links, signature = planted_world(seed, two_hop)
    store = TripleStore(triples)
    lists = all_pairs_knn(matrix, K)
    centers = sorted(lists)
    donors = random.Random(seed).sample(centers, len(centers))
    shuffled = {c: NeighborList(c, lists[d].neighbors)
                for c, d in zip(centers, donors)}
    kw = dict(knn_predicate=KNN, type_filter=FILM, k=K, n=1000,
              two_hop=two_hop)
    context = SummaryContext(store, lists, links, KNN, FILM)
    support, size = context.support, len(context.universe)
    hits = {name: [0, 0] for name in WEIGHTINGS}
    for item, wanted in signature.items():
        shared = summarize(store, lists, links, item, context=context,
                           **kw).features
        own = brute_features(triples, iri(links[item]), KNN, two_hop=two_hop)
        ranked = {
            "paper": [wf.feature for wf in shared],
            "|A| only": _ranked((wf.feature, wf.neighbor_support)
                                for wf in shared),
            "ln(|E|/|B|) only": _ranked((f, math.log(size / support(f)))
                                        for f in own),
            "shuffled": _ranked((wf.feature, wf.weight) for wf in summarize(
                store, shuffled, links, item, **kw).features),
        }
        for name, features in ranked.items():
            hits[name][0] += wanted in features[:1]
            hits[name][1] += wanted in features[:3]
    return {name: (at_1 / len(signature), at_3 / len(signature))
            for name, (at_1, at_3) in hits.items()}


def _check(seed: int, p: dict[str, tuple[float, float]]) -> None:
    print(f"seed {seed}: precision@1/@3 "
          + ", ".join(f"{name} {a:.2f}/{b:.2f}"
                      for name, (a, b) in p.items()))
    assert min(p["paper"]) >= 0.9, (seed, p)
    assert all(max(v) <= 0.5 for name, v in p.items() if name != "paper"), \
        (seed, p)


def test_paper_weighting_recovers_the_planted_signature():
    start = time.perf_counter()
    for seed in SEEDS:
        _check(seed, precision(seed))
    assert time.perf_counter() - start < 5.0


def test_two_hop_weighting_recovers_the_signature_behind_a_performance():
    start = time.perf_counter()
    for seed in SEEDS:
        p = precision(seed, two_hop=True)
        _check(seed, p)
        assert p == precision(seed)
    assert time.perf_counter() - start < 5.0
