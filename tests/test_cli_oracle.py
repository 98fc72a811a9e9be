"""The whole CLI against the oracles: `build`, `neighbors` and `summarize`
through `cli.main`, on random usage logs, graphs and link maps.

Each example writes a ratings log (`random_usage_log`), a graph
(`random_store`, whose feature values may carry features of their own, so
that two-hop paths exist, and knn edges at either hop) and a link map with
unlinked items, items without usage data, links to entities outside the
type filter or outside the store, and several items linked to one entity.
Every neighbor list must be `knn_oracle`'s or `threshold_oracle`'s, and
every summary the top n of `brute_feature_weights` or
`brute_path_feature_weights` over the entities of those lists.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnsum.cli import main
from knnsum.rdf import RDF_TYPE, Term, Triple, iri
from knnsum.usage import UsageMatrix
from oracles import (FILM, KNN, brute_feature_weights,
                     brute_path_feature_weights, knn_oracle, random_store,
                     random_usage_log, rater_sets, threshold_oracle)

EX = "http://example.org/"


def _scenario(rng: random.Random):
    """A usage log, the graph's triples and a link map."""
    pairs = random_usage_log(rng, max_users=25, max_items=16)
    _store, triples = random_store(rng, max_entities=16)
    subjects = sorted({t.subject for t in triples})
    # feature values with features of their own, and knn edges at hop two
    values = sorted({t.object for t in triples
                     if t.predicate not in (RDF_TYPE, KNN)})
    for v in values:
        for _ in range(rng.choice((0, 0, 1, 2))):
            q = iri(f"{EX}q{rng.randrange(2)}")
            triples.append(Triple(v, rng.choice((q, q, KNN)),
                                  iri(f"{EX}t{rng.randrange(3)}")))
    items = sorted({item for _, item in pairs} | {"x1", "x2"})  # x: no usage
    links = {}
    for item in items:
        roll = rng.random()
        if roll < 0.1:
            links[item] = f"{EX}missing"  # an IRI that is in no triple
        elif roll < 0.2:  # an object, which may be no subject
            links[item] = rng.choice(values).lexical
        elif roll < 0.85:  # several items may draw one entity
            links[item] = rng.choice(subjects).lexical
    return pairs, triples, items, links


def _write(root: Path, pairs, triples, links, settings_: dict) -> Path:
    (root / "ratings.tsv").write_text(
        "user\titem\n" + "".join(f"{u}\t{i}\n" for u, i in pairs))
    (root / "graph.nt").write_text("".join(
        f"<{t.subject.lexical}> <{t.predicate.lexical}> "
        f"<{t.object.lexical}> .\n" for t in triples))
    (root / "links.tsv").write_text(
        "".join(f"{item}\t{target}\n" for item, target in links.items()))
    config = root / "pipeline.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in {
        "ratings": root / "ratings.tsv", "triples": root / "graph.nt",
        "links": root / "links.tsv", "bundle": root / "bundle.json",
        "type_filter": FILM.lexical, **settings_}.items()))
    return config


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _key(t: Term) -> tuple:
    return (t.kind, t.lexical, t.language or "", t.datatype or "")


def _expected_summary(triples, links, lists, subjects, universe, entity,
                      item, two_hop: bool, n: int, k: int, mode: str,
                      structured: bool) -> str:
    """The summary of entity from item's oracle list, rendered."""
    features = []
    if item is not None:
        linked = {iri(links[nb]) for nb, _score in lists[item]
                  if nb in links and iri(links[nb]) in subjects}
        graph = [t for t in triples if t.predicate != KNN]
        graph += [Triple(entity, KNN, other)
                  for other in (linked & universe) - {entity}]
        brute = (brute_path_feature_weights if two_hop
                 else brute_feature_weights)
        weights = brute(graph, entity, KNN, FILM)
        features = sorted(weights.items(), key=lambda fw: (
            -fw[1][2], -fw[1][0], [_key(t) for t in fw[0]]))[:n]
    status = "ok" if item is not None else "no usage data"
    rows = []
    for rank, (f, (a, b, w)) in enumerate(features, start=1):
        prop = " ".join(f"<{t.lexical}>" for t in f[:-1])
        value = f"<{f[-1].lexical}>"
        rows.append(f"  {rank}\tweight={w:.6f}\tneighbor_support={a}"
                    f"\tglobal_support={b}\tproperty={prop}\tvalue={value}"
                    if structured else f"{rank}\t{w:.2f}\t{prop}\t{value}")
    head = ([f"entity: <{entity.lexical}>", f"status: {status}",
             f"mode: {mode}", f"k: {k}", f"features: {len(features)}"]
            if structured else
            [f"# <{entity.lexical}>\tstatus={status}\tmode={mode}"])
    return "\n".join(head + rows) + "\n"


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
       tau=st.sampled_from([None, None, 0.3, 0.6, 0.9]),
       two_hop=st.booleans(), n=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
# logs with no rating at all, which build refuses before it links anything
@example(seed=176, k=1, tau=None, two_hop=False, n=1)
@example(seed=1113, k=1, tau=None, two_hop=False, n=1)
def test_cli_outputs_equal_the_oracles(seed, k, tau, two_hop, n):
    pairs, triples, items, links = _scenario(random.Random(seed))
    matrix = UsageMatrix(pairs)
    sets = rater_sets(matrix)
    lists = {item: (knn_oracle(matrix, item, k, sets) if tau is None
                    else threshold_oracle(matrix, item, tau, sets))
             for item in matrix.items}
    subjects = {t.subject for t in triples}
    universe = {t.subject for t in triples
                if t.predicate == RDF_TYPE and t.object == FILM}

    def entity_of(item):
        entity = iri(links[item]) if item in links else None
        return entity if entity in subjects else None

    with tempfile.TemporaryDirectory() as tmp:
        config = _write(Path(tmp), pairs, triples, links,
                        {"k": k, "n": n, "two_hop": two_hop,
                         **({} if tau is None else {"threshold": tau})})
        cfg = ["--config", str(config)]
        code, out, err = _run("build", *cfg)
        if not matrix.items:  # the ratings file is refused first
            ratings = str(Path(tmp) / "ratings.tsv")
            assert (code, err) == (1, f"error: no ratings line of "
                                      f"{ratings!r} was accepted "
                                      "(0 rejected)\n")
            return
        linked = [item for item in matrix.items if entity_of(item)]
        if not linked:
            assert (code, err) == (1, "error: no usage item could be linked "
                                      "to a store entity\n")
            return
        assert code == 0, err
        # the knn edges that are no graph triple yet, each once
        edges = {(entity_of(c), entity_of(nb)) for c in lists
                 for nb, _score in lists[c]} - {
            (t.subject, t.object) for t in triples if t.predicate == KNN}
        edges = {(c, nb) for c, nb in edges if c and nb and c != nb}
        assert f"linked items: {len(linked)}/{len(matrix.items)}\n" in out
        assert f"knn triples added: {len(edges)}\n" in out

        for item in matrix.items:
            assert _run("neighbors", *cfg, item) == (0, "".join(
                f"{item}\t{nb}\t{score:.6f}\n" for nb, score in lists[item]),
                "")

        mode = "fixed-k" if tau is None else f"threshold({tau:g})"
        # every entity of the universe, by IRI: its smallest linked item
        # with usage data gives its list
        code, out, err = _run("summarize", *cfg, "--all", "--format",
                              "structured")
        expected = []
        for entity in sorted(universe, key=lambda e: e.lexical):
            used = sorted(i for i in matrix.items if entity_of(i) == entity)
            expected.append(_expected_summary(
                triples, links, lists, subjects, universe, entity,
                used[0] if used else None, two_hop, n, k, mode, True))
        assert (code, out, err) == (0, "\n".join(expected), "")

        # item ids: each resolves through the link map alone, to a summary
        # or to one error line, in order
        code, out, err = _run("summarize", *cfg, *items)
        expected, errors = [], []
        for item in items:
            entity = entity_of(item)
            if entity in universe:
                expected.append(_expected_summary(
                    triples, links, lists, subjects, universe, entity,
                    item if item in lists else None, two_hop, n, k, mode,
                    False))
            else:
                errors.append(f"error: {item}: ")
        assert code == (2 if errors else 0)
        assert out == "\n".join(expected)
        assert [line[:len(prefix)] for line, prefix in
                zip(err.splitlines(), errors)] == errors
        assert err.count("\n") == len(errors)


def test_equal_weights_rank_the_larger_neighbor_support_first(tmp_path):
    # |E| = 16 films. g1 is held by m00, its neighbor m01 and two others:
    # (|A|, |B|) = (1, 4); g2 by m00, both neighbors and five others:
    # (2, 8). ln 4 and 2 ln 2 are the same double, so only the support
    # tie-break puts g2 first; g1 sorts first by value.
    films = [iri(f"{EX}film/m{i:02d}") for i in range(16)]
    genre = iri(f"{EX}genre")
    holders = {iri(f"{EX}g1"): (0, 1, 3, 4),
               iri(f"{EX}g2"): (0, 1, 2, 5, 6, 7, 8, 9)}
    triples = [Triple(film, RDF_TYPE, FILM) for film in films]
    triples += [Triple(films[i], genre, g)
                for g, held in holders.items() for i in held]
    # m00, m01 and m02 share their three raters; every other film has one
    # rater of its own
    pairs = [(f"u{u}", f"m{i:02d}") for u in range(3) for i in range(3)]
    pairs += [(f"v{i}", f"m{i:02d}") for i in range(3, 16)]
    links = {f"m{i:02d}": film.lexical for i, film in enumerate(films)}
    config = _write(tmp_path, pairs, triples, links, {})
    assert _run("build", "--config", str(config))[0] == 0
    code, out, err = _run("summarize", "--config", str(config), "--format",
                          "structured", "m00")
    matrix = UsageMatrix(pairs)
    lists = {item: knn_oracle(matrix, item, 20) for item in matrix.items}
    universe = set(films)
    assert (code, err) == (0, "")
    assert out == _expected_summary(triples, links, lists, universe, universe,
                                    films[0], "m00", False, 10, 20,
                                    "fixed-k", True)
    rows = [line.split("\t") for line in out.splitlines()[5:7]]
    assert [(row[1], row[2], row[5]) for row in rows] == [
        ("weight=1.386294", "neighbor_support=2", f"value=<{EX}g2>"),
        ("weight=1.386294", "neighbor_support=1", f"value=<{EX}g1>")]
