import math
import random
import re

import pytest

from conftest import (COUNTRY, FILM_TYPE, GENRE, KNN_PRED, STUDIO, EX,
                      eight_film_links, eight_film_matrix,
                      eight_film_pairs, eight_film_triples, film_iri)
from knnsum.rdf import (RDF_TYPE, Feature, PathFeature, Triple, TripleStore,
                        iri, literal)
from knnsum.similarity import all_pairs_knn
from knnsum.summarize import (EntityNotInUniverseError, ResolutionError,
                              STATUS_NO_USAGE, STATUS_OK, SummaryContext,
                              entity_universe, feature_weights, summarize)
from knnsum.usage import UsageMatrix
from oracles import (FILM, KNN, brute_feature_weights,
                     brute_path_feature_weights, random_store,
                     random_two_hop_store)

KNN_TERM = iri(KNN_PRED)
FILM_TERM = iri(FILM_TYPE)


# -- entity universe -----------------------------------------------------------

def test_entity_universe_filters_by_type():
    person = iri("http://x/Person")
    films = [iri(f"http://x/f{i}") for i in range(3)]
    people = [iri(f"http://x/p{i}") for i in range(2)]
    triples = [Triple(e, RDF_TYPE, FILM) for e in films]
    triples += [Triple(e, RDF_TYPE, person) for e in people]
    store = TripleStore(triples)
    assert entity_universe(store, FILM) == set(films)
    assert entity_universe(store, iri("http://x/Nothing")) == set()


def test_entity_universe_multi_typed_entity_counted_once():
    e = iri("http://x/f0")
    store = TripleStore([Triple(e, RDF_TYPE, FILM),
                         Triple(e, RDF_TYPE, iri("http://x/Person"))])
    assert entity_universe(store, FILM) == {e}


# -- feature weights -----------------------------------------------------------

def test_feature_weights_formula_value():
    # |A| = 5, |B| = 50 (center included), |E| = 1000 -> 5 * ln 20
    p, v = iri("http://x/p"), iri("http://x/v")
    entities = [iri(f"http://x/e{i:04d}") for i in range(1000)]
    triples = [Triple(e, RDF_TYPE, FILM) for e in entities]
    for e in entities[:50]:
        triples.append(Triple(e, p, v))
    center = entities[0]
    for s in entities[1:6] + entities[100:115]:  # 5 holders, 15 non-holders
        triples.append(Triple(center, KNN_TERM, s))
    store = TripleStore(triples)
    universe = entity_universe(store, FILM)
    weights = feature_weights(store, center, universe, KNN_TERM)
    by_feature = {wf.feature: wf for wf in weights}
    wf = by_feature[Feature(p, v)]
    assert (wf.neighbor_support, wf.global_support) == (5, 50)
    assert wf.weight == pytest.approx(5 * math.log(20), rel=1e-12)


def test_universal_feature_weighs_exactly_zero():
    rng = random.Random(17)
    store, _ = random_store(rng, max_entities=20)
    universe = entity_universe(store, FILM)
    common = Feature(iri("http://example.org/common"),
                     iri("http://example.org/everywhere"))
    seen = False
    for e in universe:
        for wf in feature_weights(store, e, universe, KNN):
            assert 1 <= wf.neighbor_support <= wf.global_support <= len(universe)
            if wf.feature == common:
                seen = True
                assert wf.weight == 0.0
    assert seen


def test_feature_weights_empty_when_neighbors_share_nothing():
    e, s = iri("http://x/e"), iri("http://x/s")
    store = TripleStore([
        Triple(e, RDF_TYPE, FILM), Triple(s, RDF_TYPE, FILM),
        Triple(e, iri("http://x/p"), iri("http://x/only-e")),
        Triple(s, iri("http://x/p"), iri("http://x/only-s")),
        Triple(e, KNN_TERM, s),
    ])
    universe = entity_universe(store, FILM)
    got = feature_weights(store, e, universe, KNN_TERM)
    # rdf:type itself is shared; nothing else is
    assert [wf.feature for wf in got] == [Feature(RDF_TYPE, FILM)]


def test_feature_weights_requires_universe_membership():
    store = TripleStore([Triple(iri("http://x/e"), RDF_TYPE, FILM)])
    with pytest.raises(EntityNotInUniverseError):
        feature_weights(store, iri("http://x/other"),
                        entity_universe(store, FILM), KNN_TERM)


@pytest.mark.parametrize("two_hop", [False, True], ids=["one-hop", "two-hop"])
def test_feature_weights_ignore_untyped_neighbors_self_loops_and_knn(two_hop):
    # e's knn edges reach s (typed), u (untyped) and e itself; s's reaches
    # u, so (knn, u) and every path through it is held by e and s
    e, s, u = (iri(f"http://x/{n}") for n in ("e", "s", "u"))
    p, q = iri("http://x/p"), iri("http://x/q")
    v = {n: iri(f"http://x/v-{n}") for n in ("s", "u", "e")}
    mid = {n: iri(f"http://x/mid-{n}") for n in ("e-s", "e-u", "e-e", "s", "u")}
    store = TripleStore([
        Triple(e, RDF_TYPE, FILM), Triple(s, RDF_TYPE, FILM),
        Triple(e, KNN_TERM, s), Triple(e, KNN_TERM, u), Triple(e, KNN_TERM, e),
        Triple(s, KNN_TERM, u),
        # one hop: v-s shared with s, v-u only with u, v-e only by e
        Triple(e, p, v["s"]), Triple(e, p, v["u"]), Triple(e, p, v["e"]),
        Triple(s, p, v["s"]), Triple(u, p, v["u"]),
        # two hops: (p, q, v-X) through a node of each holder's own
        Triple(e, p, mid["e-s"]), Triple(mid["e-s"], q, v["s"]),
        Triple(e, p, mid["e-u"]), Triple(mid["e-u"], q, v["u"]),
        Triple(e, p, mid["e-e"]), Triple(mid["e-e"], q, v["e"]),
        Triple(s, p, mid["s"]), Triple(mid["s"], q, v["s"]),
        Triple(u, p, mid["u"]), Triple(mid["u"], q, v["u"]),
    ])
    got = feature_weights(store, e, entity_universe(store, FILM), KNN_TERM,
                          two_hop=two_hop)
    want = ({PathFeature(p, q, v["s"])} if two_hop
            else {Feature(RDF_TYPE, FILM), Feature(p, v["s"])})
    assert {wf.feature for wf in got} == want
    assert all(wf.neighbor_support == 1 for wf in got)


def test_feature_weights_match_brute_force_on_random_stores():
    rng = random.Random(23)
    for _ in range(20):
        store, triples = random_store(rng, max_entities=25)
        universe = entity_universe(store, FILM)
        for e in sorted(universe, key=lambda t: t.lexical)[:4]:
            got = {wf.feature: (wf.neighbor_support, wf.global_support,
                                wf.weight)
                   for wf in feature_weights(store, e, universe, KNN)}
            want = brute_feature_weights(triples, e, KNN, FILM)
            assert got.keys() == want.keys()
            for f in want:
                assert got[f][:2] == want[f][:2]
                assert got[f][2] == pytest.approx(want[f][2], abs=1e-12)


def test_path_feature_weights_match_brute_force_on_random_stores():
    rng = random.Random(29)
    compared = 0
    for _ in range(40):
        store, triples, _ = random_two_hop_store(rng)
        universe = entity_universe(store, FILM)
        for e in sorted(universe, key=lambda t: t.lexical)[:4]:
            got = {wf.feature: (wf.neighbor_support, wf.global_support,
                                wf.weight)
                   for wf in feature_weights(store, e, universe, KNN,
                                             two_hop=True)}
            want = brute_path_feature_weights(triples, e, KNN, FILM)
            assert got.keys() == want.keys()
            for f in want:
                assert got[f][:2] == want[f][:2]
                assert got[f][2] == pytest.approx(want[f][2], abs=1e-12)
            compared += len(want)
    assert compared > 0


def test_weight_monotone_in_global_support():
    # same A and E, growing B -> strictly smaller weight
    def weight_with_holders(extra_holders):
        p, v = iri("http://x/p"), iri("http://x/v")
        entities = [iri(f"http://x/e{i:02d}") for i in range(30)]
        triples = [Triple(e, RDF_TYPE, FILM) for e in entities]
        triples.append(Triple(entities[0], p, v))
        triples.append(Triple(entities[1], p, v))
        triples.append(Triple(entities[0], KNN_TERM, entities[1]))
        for e in entities[10:10 + extra_holders]:
            triples.append(Triple(e, p, v))
        store = TripleStore(triples)
        universe = entity_universe(store, FILM)
        wfs = feature_weights(store, entities[0], universe, KNN_TERM)
        return {wf.feature: wf.weight for wf in wfs}[Feature(p, v)]

    weights = [weight_with_holders(n) for n in (0, 3, 9, 27)]
    assert weights == sorted(weights, reverse=True)
    assert len(set(weights)) == len(weights)


# -- end-to-end summarize ---------------------------------------------------------

def build_world():
    return (TripleStore(eight_film_triples()),
            UsageMatrix(eight_film_pairs()),
            eight_film_links())


def summ(e, **kw):
    store, matrix, links = build_world()
    kw.setdefault("k", 20)
    kw.setdefault("n", 10)
    lists = (all_pairs_knn(matrix, kw["k"]) if kw.get("tau") is None
             else all_pairs_knn(matrix, tau=kw["tau"]))
    return summarize(store, lists, links, e,
                     knn_predicate=KNN_TERM, type_filter=FILM_TERM, **kw)


def test_summarize_hand_computed_fixture():
    s = summ("m1")
    assert s.status == STATUS_OK
    by = {wf.feature: wf for wf in s.features}
    genre = Feature(iri(GENRE), iri(EX + "v/g1"))
    studio = Feature(iri(STUDIO), iri(EX + "v/s1"))
    country = Feature(iri(COUNTRY), iri(EX + "v/c1"))
    assert by[genre].weight == pytest.approx(3 * math.log(2), rel=1e-12)
    assert by[studio].weight == pytest.approx(math.log(4), rel=1e-12)
    assert by[country].weight == 0.0
    order = [wf.feature for wf in s.features]
    assert order.index(genre) < order.index(studio) < order.index(country)
    assert (by[genre].neighbor_support, by[genre].global_support) == (3, 4)
    assert (by[studio].neighbor_support, by[studio].global_support) == (1, 2)


def test_summarize_truncates_to_n():
    s = summ("m1", n=1)
    assert len(s.features) == 1
    assert s.features[0].feature == Feature(iri(GENRE), iri(EX + "v/g1"))


def test_summarize_never_pads():
    s = summ("m1", n=50)
    assert len(s.features) == 4  # genre, studio, country, rdf:type


def test_summarize_accepts_entity_iri_directly():
    assert summ(film_iri("m1")).features == summ("m1").features


def test_summarize_unresolvable_id():
    with pytest.raises(ResolutionError):
        summ("nonexistent")


def test_summarize_empty_id_is_unresolvable():
    with pytest.raises(ResolutionError, match="unknown item id"):
        summ("")


def test_summarize_entity_without_usage_data():
    store, matrix, links = build_world()
    extra = iri(EX + "film/M9")
    store.add(Triple(extra, RDF_TYPE, FILM_TERM))
    links["m9"] = extra.lexical
    s = summarize(store, all_pairs_knn(matrix, 20), links, "m9",
                  knn_predicate=KNN_TERM, type_filter=FILM_TERM)
    assert s.status == STATUS_NO_USAGE
    assert s.features == []


def test_summarize_threshold_mode_matches_fixed_k_here():
    # all within-cluster scores are equal and far above 0.5
    above = summ("m1", tau=0.5)
    assert above.mode == "threshold(0.5)"
    assert above.features == summ("m1").features


def test_summarize_agrees_with_feature_weights_after_materialization():
    store, matrix, links = build_world()
    lists = all_pairs_knn(matrix, 20)
    store.materialize_knn(lists, links, KNN_TERM)
    universe = entity_universe(store, FILM_TERM)
    for m in sorted(links):
        entity = iri(links[m])
        via_store = feature_weights(store, entity, universe, KNN_TERM)
        via_pipeline = summarize(store, lists, links, m, n=100,
                                 knn_predicate=KNN_TERM, type_filter=FILM_TERM)
        assert via_pipeline.features == via_store
        assert all(wf.feature.property != KNN_TERM
                   for wf in via_pipeline.features)


def test_summarize_with_a_context_equals_without():
    store, matrix, links = build_world()
    extra = iri(EX + "film/M9")
    store.add(Triple(extra, RDF_TYPE, FILM_TERM))
    links["m9"] = extra.lexical
    lists = all_pairs_knn(matrix, 20)
    context = SummaryContext(store, lists, links, KNN_TERM, FILM_TERM)
    kw = dict(knn_predicate=KNN_TERM, type_filter=FILM_TERM)
    store_copy = TripleStore(store)
    for e in [*sorted(links), film_iri("m2")]:
        want = summarize(store, lists, links, e, **kw)
        assert summarize(store, lists, links, e, context=context, **kw) == want
        # equal copies of the context's inputs give the same summaries
        assert summarize(store, dict(lists), dict(links), e, context=context,
                         **kw) == want
        assert summarize(store_copy, dict(lists), dict(links), e,
                         context=context, **kw) == want
    assert summarize(store, lists, links, "m9", **kw).status == STATUS_NO_USAGE


@pytest.mark.parametrize("field", ["store", "lists", "link", "knn_predicate",
                                   "type_filter"])
def test_summarize_refuses_a_context_built_with_other_settings(field):
    # the context's inputs decide the summary, so one that disagrees with
    # the call's arguments must not be used silently
    store, matrix, links = build_world()
    lists = all_pairs_knn(matrix, 20)
    context = SummaryContext(store, lists, links, KNN_TERM, FILM_TERM)
    args = dict(store=store, lists=lists, link=links, knn_predicate=KNN_TERM,
                type_filter=FILM_TERM)
    args[field] = {
        "store": TripleStore(eight_film_triples()[1:]),
        "lists": {i: nl for i, nl in lists.items() if i != "m2"},
        "link": {**links, "m1": film_iri("m5")},
        "knn_predicate": iri(EX + "other"),
        "type_filter": iri(EX + "other"),
    }[field]
    with pytest.raises(ValueError, match=f"^{field} differs"):
        summarize(e="m1", context=context, **args)


@pytest.mark.parametrize("target", ["", EX + "film/nowhere"])
def test_summarize_item_linked_outside_the_store_is_unresolvable(target):
    store, matrix, links = build_world()
    links["m1"] = target
    with pytest.raises(ResolutionError,
                       match=re.escape(f"maps to {target!r}, not in the store")):
        summarize(store, all_pairs_knn(matrix, 20), links, "m1",
                  knn_predicate=KNN_TERM, type_filter=FILM_TERM)


# -- two-hop composites -------------------------------------------------------------

def two_hop_world():
    fe, fs, f3, f4 = (iri(f"http://x/f{i}") for i in range(4))
    x, y = iri("http://x/cast1"), iri("http://x/cast2")
    perf, actor = iri("http://x/performance"), iri("http://x/actor")
    nielsen = iri("http://x/nielsen")
    triples = [Triple(f, RDF_TYPE, FILM) for f in (fe, fs, f3, f4)]
    triples += [
        Triple(fe, perf, x), Triple(x, actor, nielsen),
        Triple(fs, perf, y), Triple(y, actor, nielsen),
    ]
    store = TripleStore(triples)
    matrix = UsageMatrix([("u1", "ie"), ("u1", "is"), ("u2", "ie"),
                          ("u2", "is"), ("u3", "i3")])
    links = {"ie": fe.lexical, "is": fs.lexical, "i3": f3.lexical}
    return store, matrix, links, PathFeature(perf, actor, nielsen)


def test_summarize_two_hop_weight():
    store, matrix, links, composite = two_hop_world()
    s = summarize(store, all_pairs_knn(matrix, 20), links, "ie",
                  two_hop=True, knn_predicate=KNN, type_filter=FILM)
    assert len(s.features) == 1
    wf = s.features[0]
    assert wf.feature == composite
    assert (wf.neighbor_support, wf.global_support) == (1, 2)
    assert wf.weight == pytest.approx(math.log(2), rel=1e-12)


def test_summarize_two_hop_no_paths_is_empty():
    store, matrix, links, _ = two_hop_world()
    bare = TripleStore(t for t in store if t.predicate == RDF_TYPE)
    s = summarize(bare, all_pairs_knn(matrix, 20), links, "ie",
                  two_hop=True, knn_predicate=KNN, type_filter=FILM)
    assert s.features == []


def test_summarize_two_hop_universal_composite_weighs_zero():
    store, matrix, links, composite = two_hop_world()
    # give every typed entity the same two-hop path
    for i, f in enumerate(sorted(entity_universe(store, FILM),
                                 key=lambda t: t.lexical)):
        mid = iri(f"http://x/extra{i}")
        store.add(Triple(f, composite.first, mid))
        store.add(Triple(mid, composite.second, composite.terminal))
    s = summarize(store, all_pairs_knn(matrix, 20), links, "ie",
                  two_hop=True, knn_predicate=KNN, type_filter=FILM)
    wf = {w.feature: w for w in s.features}[composite]
    assert wf.global_support == 4
    assert wf.weight == 0.0


def test_path_feature_weights_requires_materialized_edges():
    store, matrix, links, composite = two_hop_world()
    fe, fs = iri(links["ie"]), iri(links["is"])
    store.add(Triple(fe, KNN, fs))
    universe = entity_universe(store, FILM)
    got = feature_weights(store, fe, universe, KNN, two_hop=True)
    assert [wf.feature for wf in got] == [composite]
    assert got[0].weight == pytest.approx(math.log(2), rel=1e-12)
