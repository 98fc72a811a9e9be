"""The three benchmark workloads: corpus, build flags and request batch.

Why each workload exists (see README.md for the metric-to-layer map):

* ``dense-build`` -- the criterion-10 shape: almost every item pair is
  co-rated, so the dense G2 kernel of ``all_pairs_knn`` wastes little and
  is the largest stage of the build; its share grows with the item count
  squared. The graph is type-only, so feature weighting is nearly idle.
  Reproduces the ROADMAP baseline at ``--size full``.
* ``longtail-summarize`` -- Zipf popularity and a feature-rich graph with
  two-hop performances: graph load and feature weighting dominate, and
  only a small share of item pairs is co-rated, so dense G2 scoring is
  mostly wasted. Summary targets are drawn by popularity, as real summary
  traffic is, plus entity IRIs and films without usage data.
* ``longtail-threshold-build`` -- the same corpus built with
  ``--threshold 0.9``: the per-item scalar similarity path with no top-k,
  and neighborhoods of very uneven size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus as corpora

SIZES = ("bench", "smoke", "full")
IRI_TARGETS = 3         # batch targets asked for by entity IRI
NO_USAGE_TARGETS = 3    # films without linked usage data added to the batch


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str                     # "dense" or "longtail"
    threshold: float | None         # None: fixed k = 20
    batch: dict[str, int]           # size -> summary targets by item id


WORKLOADS = {w.name: w for w in (
    Workload("dense-build",
             "criterion-10 shape: ~96% of item pairs co-rated, so dense G2 "
             "scoring wastes little and is the largest build stage; "
             "type-only graph",
             "dense", None, {"bench": 20, "smoke": 8, "full": 20}),
    Workload("longtail-summarize",
             "Zipf long tail with a two-hop film graph: graph load and "
             "feature weighting dominate; few pairs co-rated",
             "longtail", None, {"bench": 100, "smoke": 20, "full": 300}),
    Workload("longtail-threshold-build",
             "same long tail built with --threshold 0.9: per-item scalar "
             "similarity with no top-k; neighborhoods from 0 to ~90 items",
             "longtail", 0.9, {"bench": 30, "smoke": 8, "full": 30}),
)}

# Corpus sizes per --size. "full" is the scale named in the ROADMAP
# baseline (criterion 10) and the long-tail scale it describes; "bench"
# keeps every run of every workload well inside the benchmark's time box.
CORPUS_SIZES = {
    "dense": {"full": dict(n_users=2_113, n_items=10_197, n_events=855_000),
              "bench": dict(n_users=2_113, n_items=1_600, n_events=134_000),
              "smoke": dict(n_users=300, n_items=300, n_events=9_000)},
    "longtail": {"full": dict(n_users=4_000, n_films=8_000, n_events=56_000),
                 "bench": dict(n_users=1_500, n_films=1_500, n_events=10_000),
                 "smoke": dict(n_users=300, n_films=400, n_events=3_000)},
}


@dataclass
class Inputs:
    """Everything one run needs: files on disk and the expected answers."""

    workload: Workload
    corpus: corpora.Corpus
    root: Path
    config: Path
    bundle: Path
    digests: dict[str, str]
    targets: list[str]              # summarize arguments, in order
    lookups: list[str]              # neighbors arguments: item id, iri


def make_inputs(w: Workload, seed: int, size: str, root: Path) -> Inputs:
    """Generate and write the workload's inputs from its seed."""
    sizes = CORPUS_SIZES[w.corpus][size]
    if w.corpus == "dense":
        c = corpora.dense_corpus(seed, **sizes)
    else:
        c = corpora.longtail_corpus(seed, **sizes)
    digests = c.write(root)
    bundle = root / "bundle.json"
    config = root / "pipeline.cfg"
    lines = [f"ratings = {root / 'ratings.dat'}",
             f"triples = {root / 'graph.nt'}",
             f"links = {root / 'links.tsv'}",
             f"bundle = {bundle}",
             f"type_filter = {corpora.FILM_TYPE}",
             f"rating_col = {corpora.RATING_COL}",
             "k = 20",
             "workers = 2"]
    if w.threshold is not None:
        lines.append(f"threshold = {w.threshold}")
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    targets, lookups = _requests(w, c, seed, size)
    return Inputs(w, c, root, config, bundle, digests, targets, lookups)


def _requests(w: Workload, c: corpora.Corpus, seed: int, size: str
              ) -> tuple[list[str], list[str]]:
    """Summary batch drawn by popularity, plus the two neighbor lookups."""
    rng = np.random.default_rng([seed, 0x5245])
    linked = sorted(item for item in c.popularity if item in c.link_map)
    weight = np.array([c.popularity[i] for i in linked], dtype=float)
    n = min(w.batch[size], len(linked))
    drawn = [linked[j] for j in rng.choice(len(linked), size=n + 2,
                                            replace=False,
                                            p=weight / weight.sum())]
    lookups, drawn = [drawn[0], c.link_map[drawn[1]]], drawn[2:]
    targets = [c.link_map[i] if k < IRI_TARGETS else i
               for k, i in enumerate(drawn)]
    used = set(c.link_map.values())
    films = sorted({s[1:-1] for s, _, _ in c.triples
                    if s.startswith(f"<{corpora.FILM_PREFIX}")})
    no_usage = [f for f in films if f not in used]
    if no_usage:
        picks = rng.choice(len(no_usage),
                           size=min(NO_USAGE_TARGETS, len(no_usage)),
                           replace=False)
        targets += [no_usage[j] for j in sorted(picks)]
    order = rng.permutation(len(targets))
    return [targets[j] for j in order], lookups
