"""Planted-signal check of the paper's two claims, one hop.

A seeded world plants taste clusters of users and films. Each cluster
has a signature studio, globally rare and held by most of its films.
Every film also has one universal country, a genre held by about 40% of
all films and a noise tag of its own. The real G2 neighborhoods
(all_pairs_knn) and the real summarize() should put each holder's
signature studio first: the features shared with usage neighbors carry
the signal (claim 1), and the downgrading factor ln(|E|/|B|) keeps the
universal country from drowning it (claim 2). Three ablations, each
computed here, should lose it: |A| alone (a universal feature wins), ln(|E|/|B|)
alone without neighbors (the noise tag wins), and neighborhoods shuffled
across items (the signal is gone).
"""

from __future__ import annotations

import math
import random
import time

from knnsum.rdf import (RDF_TYPE, Feature, Triple, TripleStore, iri,
                        term_key)
from knnsum.similarity import NeighborList, all_pairs_knn
from knnsum.summarize import SummaryContext, summarize
from knnsum.usage import UsageMatrix

EX = "http://example.org/planted/"
FILM = iri(EX + "Film")
KNN = iri("urn:knnsum:knn")
STUDIO, COUNTRY, GENRE, TAG = (iri(EX + p) for p in
                               ("studio", "country", "genre", "tag"))

CLUSTERS = 6
FILMS_PER_CLUSTER = 12
USERS_PER_CLUSTER = 15
SIGNATURE_HOLDERS = 8        # films of a cluster holding its studio
GENRE_SHARE = 0.4
RATE_IN, RATE_OUT = 0.5, 0.05  # chance a user rates a film in / out of taste
K = 10
SEEDS = range(5)


def planted_world(seed: int):
    """(store, matrix, links, the signature of each holder's item id)."""
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
        triples += [Triple(e, RDF_TYPE, FILM),
                    Triple(e, COUNTRY, iri(EX + "country/all")),
                    Triple(e, TAG, iri(f"{EX}tag/{c}.{j}"))]
        if j < SIGNATURE_HOLDERS:
            signature[item] = Feature(STUDIO, iri(f"{EX}studio/{c}"))
            triples.append(Triple(e, *signature[item]))
        if rng.random() < GENRE_SHARE:
            triples.append(Triple(e, GENRE, iri(EX + "genre/drama")))
    return TripleStore(triples), UsageMatrix(pairs), links, signature


def _top(scored) -> Feature | None:
    """The feature with the highest score; ties go to the smaller feature,
    as summarize breaks them."""
    best = min(scored, default=None,
               key=lambda fs: (-fs[1], tuple(map(term_key, fs[0]))))
    return None if best is None else best[0]


def precision_at_1(seed: int) -> dict[str, float]:
    """Share of signature holders whose top feature is their signature,
    for the paper's weighting and each ablation."""
    store, matrix, links, signature = planted_world(seed)
    lists = all_pairs_knn(matrix, K)
    centers = sorted(lists)
    donors = random.Random(seed).sample(centers, len(centers))
    shuffled = {c: NeighborList(c, lists[d].neighbors)
                for c, d in zip(centers, donors)}
    kw = dict(knn_predicate=KNN, type_filter=FILM, k=K)
    context = SummaryContext(store, lists, links, KNN, FILM)
    support, size = context.support, len(context.universe)
    hits = dict.fromkeys(("paper", "|A| only", "ln(|E|/|B|) only",
                          "shuffled"), 0)
    for item, wanted in signature.items():
        shared = summarize(store, lists, links, item, n=1000, context=context,
                           **kw).features
        own = store.feature_set(iri(links[item]), (KNN,))
        tops = {
            "paper": shared[0].feature if shared else None,
            "|A| only": _top((wf.feature, wf.neighbor_support)
                             for wf in shared),
            "ln(|E|/|B|) only": _top((f, math.log(size / support(f)))
                                     for f in own),
            "shuffled": _top((wf.feature, wf.weight) for wf in summarize(
                store, shuffled, links, item, n=1000, **kw).features),
        }
        for name, top in tops.items():
            hits[name] += top == wanted
    return {name: hit / len(signature) for name, hit in hits.items()}


def test_paper_weighting_recovers_the_planted_signature():
    start = time.perf_counter()
    for seed in SEEDS:
        p = precision_at_1(seed)
        print(f"seed {seed}: precision@1 "
              + ", ".join(f"{name} {v:.2f}" for name, v in p.items()))
        assert p["paper"] >= 0.9, (seed, p)
        assert all(v <= 0.5 for name, v in p.items() if name != "paper"), \
            (seed, p)
    assert time.perf_counter() - start < 5.0
