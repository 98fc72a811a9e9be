import gc
import io
import marshal
import random
import re
import sys
import tracemalloc
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnsum import rdf
from knnsum.rdf import (RDF_TYPE, Feature, NTriplesError, PathFeature, Term,
                        Triple, TripleStore, _unescape, blank, iri, literal,
                        load_ntriples, term_to_ntriples, write_ntriples)
from knnsum.similarity import NeighborList
from knnsum.summarize import entity_universe, feature_weights
from oracles import (FILM, KNN, brute_one_hop, brute_two_hop, random_store,
                     random_two_hop_store, reference_load, reference_unescape)

A = iri("http://x/a")
P = iri("http://x/p")
B = iri("http://x/b")


def load(text):
    return load_ntriples(io.StringIO(text))


def knn_neighbors(store, e):
    """The typed entities e links to by knn edges, e itself excluded."""
    return (store.objects_of(e, KNN) & entity_universe(store, FILM)) - {e}


def shared_one_hop(store, e):
    """Features of e shared with its typed knn neighbors, with witnesses."""
    return store.shared_features(e, knn_neighbors(store, e), KNN)


def shared_two_hop(store, e):
    """Two-hop composites of e matched by its typed knn neighbors."""
    return store.shared_two_hop_paths(e, knn_neighbors(store, e), KNN)


# -- parsing ----------------------------------------------------------------------

def test_parse_minimal_line():
    store, diags = load("<http://x/a> <http://x/p> <http://x/b> .\n")
    assert len(store) == 1 and not diags
    assert Triple(A, P, B) in store


def test_duplicate_lines_collapse():
    line = "<http://x/a> <http://x/p> <http://x/b> .\n"
    store, _ = load(line + line)
    assert len(store) == 1


def test_missing_terminator_is_diagnostic():
    store, diags = load("<http://x/a> <http://x/p> <http://x/b>\n")
    assert len(store) == 0
    assert diags == [(1, "not a valid N-Triples statement")]


def test_comments_and_blank_lines_skipped():
    store, diags = load("# comment\n\n<http://x/a> <http://x/p> <http://x/b> .\n")
    assert len(store) == 1 and not diags


def test_literal_escapes_decoded():
    store, diags = load(
        '<http://x/a> <http://x/p> "line\\nbreak \\"q\\" tab\\t\\\\ \\r" .\n')
    assert not diags
    (t,) = list(store)
    assert t.object == literal('line\nbreak "q" tab\t\\ \r')


def test_literal_language_and_datatype():
    store, _ = load(
        '<http://x/a> <http://x/p> "chat"@en-US .\n'
        '<http://x/a> <http://x/p> "5"^^<http://www.w3.org/2001/XMLSchema#int> .\n')
    objects = {t.object for t in store}
    assert literal("chat", language="en-US") in objects
    assert literal("5", datatype="http://www.w3.org/2001/XMLSchema#int") in objects


def test_blank_node_terms():
    store, diags = load("_:b0 <http://x/p> _:b1 .\n")
    assert not diags
    (t,) = list(store)
    assert t.subject == blank("b0") and t.object == blank("b1")


def test_unknown_escape_is_diagnostic():
    _, diags = load('<http://x/a> <http://x/p> "bad \\q" .\n')
    assert len(diags) == 1 and "escape" in diags[0].reason


def test_empty_iri_is_diagnostic():
    _, diags = load("<> <http://x/p> <http://x/b> .\n")
    assert len(diags) == 1


def test_empty_datatype_is_diagnostic():
    # "x"^^<> would write as "x", so as another literal
    store, diags = load('<http://x/a> <http://x/p> "x" .\n'
                        '<http://x/a> <http://x/p> "x"^^<> .\n')
    assert diags == [(2, "empty IRI")]
    out = io.StringIO()
    write_ntriples(store, out)
    assert load(out.getvalue())[0] == store


@pytest.mark.parametrize("language, datatype", [
    ("", None), (None, ""), ("", ""), ("en", "http://x/d"),
])
def test_literal_renders_as_no_other_literal(language, datatype):
    with pytest.raises(ValueError):
        literal("x", language, datatype)


def test_literal_subject_rejected():
    store, diags = load('"lit" <http://x/p> <http://x/b> .\n')
    assert len(store) == 0
    assert diags == [(1, "not a valid N-Triples statement")]


def test_unicode_escape():
    store, _ = load('<http://x/a> <http://x/p> "caf\\u00E9" .\n')
    (t,) = list(store)
    assert t.object.lexical == "café"


@pytest.mark.parametrize("escape", [
    "\\uD800", "\\uDFFF", "\\U00110000",
    # int(x, 16) takes these, N-Triples does not
    "\\u-041", "\\U-0000041", "\\u+041", "\\u0_41", "\\u 041",
])
def test_escape_of_no_character_is_diagnostic(escape):
    store, diags = load(f'<http://x/a> <http://x/p> "x{escape}" .\n'
                        '<http://x/a> <http://x/p> "\\U0010FFFF" .\n')
    assert [d.line_no for d in diags] == [1]
    assert "escape" in diags[0].reason
    assert [t.object.lexical for t in store] == ["\U0010ffff"]


def test_undecodable_line_is_diagnostic():
    store, diags = load("<http://x/a> <http://x/p> <http://x/\udcff> .\n"
                        "<http://x/a> <http://x/p> <http://x/\u00e9> .\n")
    assert diags == [(1, "not valid UTF-8")]
    assert [t.object.lexical for t in store] == ["http://x/\u00e9"]


# -- interned loading ---------------------------------------------------------------

# Tokens by position. Each list holds good and bad tokens, and several
# spellings of one literal: "A", "\u0041" and "\U00000041" are one term.
SUBJECTS = ["<http://x/a>", "<http://x/b>", "_:b0", "_:b1", "<>", '"lit"']
PREDICATES = ["<http://x/p>", "<http://x/q>", "<>", "_:b0"]
OBJECTS = [
    "<http://x/a>", "<http://x/b>", "_:b1", '"A"', '"\\u0041"',
    '"\\U00000041"', '"A"@en', '"A"@en-GB', '"A"^^<http://x/dt>', '"A"^^<>',
    '"t\\tb"', '"café"', '"bad \\q"', '"\\uD800"', '"\\u12"', '"\\u+041"',
    "<>",
]
OTHER_LINES = ["", "   ", "# a comment", "<http://x/a> <http://x/p>",
               "<http://x/a> <http://x/p> <http://x/b>",
               "<http://x/\udcff> <http://x/p> <http://x/b> .",
               "# not UTF-8: \udcfe"]

statements = st.builds(
    lambda s, p, o, sep, end: f"{s}{sep}{p}{sep}{o}{end}",
    st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS), st.sampled_from([" ", "\t", "  "]),
    st.sampled_from([" .", ".", " . ", "\t.", ""]))
documents = st.lists(
    st.one_of(statements, st.sampled_from(OTHER_LINES)).map(
        lambda line: line + "\n"), max_size=40)


@given(documents, st.data())
@settings(max_examples=300, deadline=None)
def test_load_matches_reference_loader(lines, data):
    triples, want_diags, want_terms = reference_load(lines)
    # the loader's own chunks, and chunks that end inside the document
    for chunk in (rdf._LOAD_LINES, 1, 2, 7):
        with mock.patch.object(rdf, "_LOAD_LINES", chunk):
            store, diags = load_ntriples(lines)
        assert set(store) == triples and len(store) == len(triples)
        assert diags == want_diags
        # ids in first-sight order, which the snapshot bytes rest on
        assert store._terms == want_terms
    # ids follow the order of first sight; equality must not
    shuffled = data.draw(st.permutations(lines))
    assert load_ntriples(shuffled)[0] == store


def test_spellings_of_one_literal_are_one_term():
    store, diags = load(
        '<http://x/a> <http://x/p> "A" .\n'
        '<http://x/a> <http://x/p> "\\u0041" .\n'
        '<http://x/a> <http://x/p> "\\U00000041" .\n')
    assert not diags
    assert list(store) == [Triple(A, P, literal("A"))]


@pytest.mark.parametrize("position", [0, 1, 2])
def test_bad_token_is_reported_on_every_line(position):
    good = ["<http://x/a>", "<http://x/p>", "<http://x/b>"]
    tokens = list(good)
    tokens[position] = "<>"
    bad = " ".join(tokens) + " .\n"
    _, diags = load(bad + " ".join(good) + " .\n" + bad + bad)
    assert diags == [(1, "empty IRI"), (3, "empty IRI"), (4, "empty IRI")]


def test_first_bad_token_of_a_line_is_reported():
    _, diags = load('_:b0 <> "\\q" .\n_:b0 <http://x/p> "\\q" .\n')
    assert diags == [(1, "empty IRI"), (2, "unknown escape \\q")]


def test_store_equality_compares_terms():
    triples = [Triple(A, P, B), Triple(B, P, literal("v", language="en")),
               Triple(blank("n"), P, A)]
    assert TripleStore(triples) == TripleStore(reversed(triples))
    assert TripleStore(triples) != TripleStore(triples[:2])
    other = triples[:2] + [Triple(blank("n"), P, B)]
    assert TripleStore(triples) != TripleStore(other)


# Literal bodies as the line pattern admits them: any character but a
# quote, a backslash or a line break, or a backslash and one more.
plain = st.characters(blacklist_characters='"\\\n\r',
                      blacklist_categories=("Cs",))
escape_tails = st.one_of(
    st.sampled_from('"\\ntrqb'),
    st.builds(lambda u, d: u + d, st.sampled_from("uU"),
              st.text("0123456789abcdefABCDEF+-_ xD", max_size=9)))
bodies = st.lists(st.one_of(plain, escape_tails.map(lambda t: "\\" + t)),
                  max_size=8).map("".join)


@given(bodies)
@settings(max_examples=500)
def test_unescape_matches_reference(body):
    def decoded(unescape):
        try:
            return unescape(body)
        except NTriplesError as exc:
            return f"error: {exc}"
    assert decoded(_unescape) == decoded(reference_unescape)


def test_round_trip_serialization(eight_film_store):
    eight_film_store.add(Triple(A, P, literal('we\tird\n"v"', language="en")))
    eight_film_store.add(Triple(A, P, literal("n", datatype="http://x/dt")))
    buf = io.StringIO()
    write_ntriples(eight_film_store, buf)
    reloaded, diags = load(buf.getvalue())
    assert not diags
    assert reloaded == eight_film_store


def test_load_is_idempotent_on_own_serialization():
    rng = random.Random(3)
    store, _ = random_store(rng)
    buf = io.StringIO()
    write_ntriples(store, buf)
    once, _ = load(buf.getvalue())
    buf2 = io.StringIO()
    write_ntriples(once, buf2)
    assert buf.getvalue() == buf2.getvalue()


# -- snapshots -------------------------------------------------------------------

@given(documents)
@settings(max_examples=100, deadline=None)
def test_snapshot_round_trips_terms_and_indexes(lines):
    store, _ = load_ntriples(lines)
    data = store.snapshot()
    loaded = TripleStore.from_snapshot(data)
    assert gc.isenabled()
    assert loaded == store and len(loaded) == len(store)
    # the same ids, so the same indexes
    assert loaded._terms == store._terms and loaded._ids == store._ids
    assert loaded._current() == store._current()
    assert load_ntriples(lines)[0].snapshot() == data


@pytest.mark.parametrize("field", ["marshal_version", "python_version"])
def test_snapshot_from_another_writer_is_refused(field):
    header, *body = marshal.loads(TripleStore([Triple(A, P, B)]).snapshot())
    other = tuple((name, "x" if name == field else value)
                  for name, value in header)
    with pytest.raises(ValueError, match=f"^was written with {field} = 'x', "
                                         f"but this process has {field} = "):
        TripleStore.from_snapshot(marshal.dumps((other, *body), 2))


# each refusal of the Term constructor: the fields, then the message
TERM_REFUSALS = [
    (("uri", "http://x/a", None, None), "bad term kind: 'uri'"),
    (("iri", "", None, None), "empty iri lexical form"),
    (("literal", "x", "", None),
     "a literal takes one non-empty language or datatype at most"),
    (("blank", "b1", "en", None),
     "language/datatype only allowed on literals"),
]


def test_snapshot_terms_are_checked_by_the_term_constructor():
    header, terms, *indexes = marshal.loads(
        TripleStore([Triple(A, P, B)]).snapshot())
    for fields, message in TERM_REFUSALS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Term(*fields)
        terms[0] = fields
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TripleStore.from_snapshot(
                marshal.dumps((header, terms, *indexes), 2))


@given(documents)
@settings(max_examples=50, deadline=None)
def test_snapshot_is_framed_as_marshal_frames_it(lines):
    # snapshot() is marshal's own encoding of what it holds: marshal must
    # read it back, and write the same bytes for what it read
    data = load_ntriples(lines)[0].snapshot()
    assert marshal.dumps(marshal.loads(data), 2) == data


@pytest.fixture(scope="module")
def bench_long_tail_graph() -> list[str]:
    """The benchmark's long-tail graph at bench size, seed 1."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import corpus
        import workloads
    finally:
        sys.path.remove(perfbench)
    sizes = workloads.CORPUS_SIZES["longtail"]["bench"]
    graph = corpus.longtail_corpus(1, **sizes).graph
    return graph.decode("utf-8").splitlines(keepends=True)


def _held(make) -> int:
    """The bytes that make's result holds under tracemalloc: what deleting
    it frees, so not what the allocator keeps cached."""
    result = make()
    held = tracemalloc.get_traced_memory()[0]
    del result
    return held - tracemalloc.get_traced_memory()[0]


def test_snapshot_store_holds_no_more_than_a_parsed_one(bench_long_tail_graph):
    # freeing a store puts up to 2,000 of its term tuples on CPython's tuple
    # free list, which tracemalloc does not see as freed; so a store is made
    # and dropped first, and both measures start from that free list
    data = load_ntriples(bench_long_tail_graph)[0].snapshot()
    tracemalloc.start()
    try:
        _held(lambda: load_ntriples(bench_long_tail_graph)[0])
        parsed = _held(lambda: load_ntriples(bench_long_tail_graph)[0])
        loaded = _held(lambda: TripleStore.from_snapshot(data))
    finally:
        tracemalloc.stop()
    assert 0 < loaded <= parsed


def test_snapshot_load_peaks_little_above_what_it_holds(
        bench_long_tail_graph):
    # each term's tuple with the shared kind replaces marshal's as it is
    # made, so that the two are never all alive together
    data = load_ntriples(bench_long_tail_graph)[0].snapshot()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = TripleStore.from_snapshot(data)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(store) and peak <= 1.15 * held


def test_snapshot_allocates_little_beyond_its_bytes(bench_long_tail_graph):
    store = load_ntriples(bench_long_tail_graph)[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = store.snapshot()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(data) <= peak <= 1.2 * len(data)


def as_ntriples(triples) -> str:
    return "".join(" ".join(map(term_to_ntriples, t)) + " .\n"
                   for t in triples)


def test_added_store_snapshots_as_its_parsed_triples():
    # add() keeps the plain fields of the Terms it is given, which marshal
    # writes as a parsed store's; the ids follow the same first sight
    rng = random.Random(41)
    extra = [Triple(blank("b0"), P, literal("x", datatype="http://x/dt")),
             Triple(A, P, literal('t"\tb', language="en")), Triple(A, P, B)]
    for _ in range(20):
        triples = random_two_hop_store(rng)[1] + extra
        rng.shuffle(triples)
        parsed = load(as_ntriples(triples))[0]
        assert TripleStore(triples).snapshot() == parsed.snapshot()


def test_every_query_returns_terms():
    # a Term equals the plain tuple of its fields, so only its type shows
    # that a query made one from the fields the store keeps
    e, s = iri("http://x/e"), iri("http://x/s")
    perf, role, title = (iri(f"http://x/{n}") for n in ("perf", "role",
                                                        "title"))
    triples = [
        Triple(e, perf, blank("p1")), Triple(blank("p1"), role, A),
        Triple(s, perf, blank("p2")), Triple(blank("p2"), role, A),
        Triple(e, title, literal("T", language="en")),
        Triple(s, title, literal("T", language="en")),
        Triple(e, KNN, s), Triple(e, RDF_TYPE, FILM),
        Triple(s, RDF_TYPE, FILM),
    ]
    link = {"e": e.lexical, "s": s.lexical}
    lists = {"s": NeighborList("s", [("e", 0.5)])}
    parsed = load(as_ntriples(triples))[0]
    for store in (parsed, TripleStore.from_snapshot(parsed.snapshot()),
                  TripleStore(triples)):
        # the arguments as plain tuples, so that no query returns its own
        args = tuple(e), {tuple(s)}, tuple(KNN)
        one_hop = store.shared_features(*args)
        two_hop = store.shared_two_hop_paths(*args)
        assert len(one_hop) == 2 and len(two_hop) == 1
        returned = [*chain.from_iterable(store),
                    *store.subjects_with(tuple(RDF_TYPE), tuple(FILM)),
                    *store.objects_of(tuple(e), tuple(KNN)),
                    store.linked_entity("e", link),
                    *entity_universe(store, FILM),
                    *chain.from_iterable(store.knn_edges(lists, link,
                                                         KNN)[0])]
        for feature, witnesses in [*one_hop.items(), *two_hop.items()]:
            returned += [*feature, *witnesses]
        assert all(type(t) is Term for t in returned), returned


# -- store semantics ---------------------------------------------------------------

def test_index_consistency_on_random_store():
    rng = random.Random(11)
    store, triples = random_store(rng)
    tset = set(triples)
    assert set(store) == tset
    for t in tset:
        assert t.object in store.objects_of(t.subject, t.predicate)
        assert t.subject in store.subjects_with(t.predicate, t.object)
    # type index agrees with a raw filter
    typed = {t.subject for t in tset
             if t.predicate == RDF_TYPE and t.object == FILM}
    assert entity_universe(store, FILM) == typed


@given(st.randoms(use_true_random=False), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_adds_between_queries_equal_one_build(rng, parts):
    # triples added after a query are indexed with the earlier ones on the
    # next query, as if the store had been built from them all at once
    _store, triples = random_store(rng, max_entities=12)
    store, seen = TripleStore(), set()
    for i in range(parts):
        for t in triples[i::parts]:
            assert store.add(t) == (t not in seen)
            seen.add(t)
        assert store == TripleStore(seen)  # a query between the parts
    assert len(store) == len(seen)
    assert not any(store.add(t) for t in triples)


def test_entities_with_feature_and_type_filter():
    film = FILM
    e1, e2, e3 = (iri(f"http://x/e{i}") for i in range(3))
    store = TripleStore([
        Triple(e1, P, B), Triple(e2, P, B), Triple(e3, P, B),
        Triple(e1, RDF_TYPE, film), Triple(e2, RDF_TYPE, film),
    ])
    assert store.subjects_with(P, B) == {e1, e2, e3}
    assert store.subjects_with(P, B) & entity_universe(store, film) == {e1, e2}
    assert store.subjects_with(P, iri("http://x/nope")) == set()
    assert entity_universe(store, iri("http://x/Nothing")) == set()


# -- shared one-hop features --------------------------------------------------------

def one_hop_fixture():
    e = iri("http://x/e")
    s1, s2 = iri("http://x/s1"), iri("http://x/s2")
    p1, p2 = iri("http://x/p1"), iri("http://x/p2")
    f1v, f2v = iri("http://x/v1"), iri("http://x/v2")
    triples = [
        Triple(e, p1, f1v), Triple(e, p2, f2v),
        Triple(s1, p1, f1v),
        Triple(s2, p1, f1v), Triple(s2, p2, f2v),
        Triple(e, KNN, s1), Triple(e, KNN, s2),
        Triple(e, RDF_TYPE, FILM), Triple(s1, RDF_TYPE, FILM),
        Triple(s2, RDF_TYPE, FILM),
    ]
    return TripleStore(triples), triples, e, s1, s2, p1, p2, f1v, f2v


def test_shared_one_hop_witness_sets():
    store, _, e, s1, s2, p1, p2, f1v, f2v = one_hop_fixture()
    got = shared_one_hop(store, e)
    expected = {
        Feature(p1, f1v): {s1, s2},
        Feature(p2, f2v): {s2},
        Feature(RDF_TYPE, FILM): {s1, s2},
    }
    assert got == expected


def test_shared_one_hop_no_knn_edges():
    store = TripleStore([Triple(A, P, B), Triple(A, RDF_TYPE, FILM)])
    assert shared_one_hop(store, A) == {}


def test_shared_one_hop_matches_brute_force_on_random_stores():
    rng = random.Random(21)
    for _ in range(40):
        store, triples = random_store(rng, max_entities=20)
        universe = entity_universe(store, FILM)
        for e in sorted(universe, key=lambda t: t.lexical)[:5]:
            assert shared_one_hop(store, e) == \
                brute_one_hop(triples, e, KNN, FILM)


# -- shared two-hop features ---------------------------------------------------------

def two_hop_fixture():
    e, s = iri("http://x/e"), iri("http://x/s")
    x, y = iri("http://x/perf1"), iri("http://x/perf2")
    perf, actor = iri("http://x/performance"), iri("http://x/actor")
    nielsen = iri("http://x/nielsen")
    triples = [
        Triple(e, perf, x), Triple(x, actor, nielsen),
        Triple(s, perf, y), Triple(y, actor, nielsen),
        Triple(e, KNN, s),
        Triple(e, RDF_TYPE, FILM), Triple(s, RDF_TYPE, FILM),
    ]
    return TripleStore(triples), e, s, perf, actor, nielsen


def test_shared_two_hop_actor_behind_intermediate_node():
    store, e, s, perf, actor, nielsen = two_hop_fixture()
    got = shared_two_hop(store, e)
    assert got == {PathFeature(perf, actor, nielsen): {s}}


def test_shared_two_hop_no_paths():
    store = TripleStore([Triple(A, RDF_TYPE, FILM)])
    assert shared_two_hop(store, A) == {}


def test_shared_two_hop_requires_all_three_components():
    e, s = iri("http://x/e"), iri("http://x/s")
    x, y = iri("http://x/i1"), iri("http://x/i2")
    p, q1, q2, t = (iri(f"http://x/{n}") for n in ("p", "q1", "q2", "t"))
    store = TripleStore([
        Triple(e, p, x), Triple(x, q1, t),
        Triple(s, p, y), Triple(y, q2, t),  # same p and t, different q
        Triple(e, KNN, s),
        Triple(e, RDF_TYPE, FILM), Triple(s, RDF_TYPE, FILM),
    ])
    assert shared_two_hop(store, e) == {}


def test_shared_two_hop_matches_brute_force_on_random_stores():
    # each entity is a target, in a shuffled order, so its ends may already
    # be cached from a query that had it as a neighbor; the second pass
    # reads every end set from the cache
    rng = random.Random(31)
    for _ in range(40):
        store, triples, _ = random_two_hop_store(rng)
        universe = sorted(entity_universe(store, FILM),
                          key=lambda t: t.lexical)
        rng.shuffle(universe)
        for e in universe + universe:
            assert shared_two_hop(store, e) == \
                brute_two_hop(triples, e, KNN, FILM)


@pytest.mark.parametrize("query", ["shared_features", "shared_two_hop_paths"])
def test_witness_queries_require_the_knn_predicate(query):
    # left out, the knn edges would be weighed as features
    store, e, s, *_ = two_hop_fixture()
    with pytest.raises(TypeError):
        getattr(store, query)(e, {s})


# -- knn materialization ---------------------------------------------------------------

def make_entities(n):
    link = {f"i{j}": f"http://x/e{j}" for j in range(n)}
    triples = [Triple(iri(v), RDF_TYPE, FILM) for v in link.values()]
    return TripleStore(triples), link


def test_linked_entity_needs_a_link_to_a_subject():
    store, link = make_entities(2)
    link["dangling"] = "http://x/nowhere"
    link["empty"] = ""
    assert store.linked_entity("unlinked", link) is None
    assert store.linked_entity("dangling", link) is None
    assert store.linked_entity("empty", link) is None
    assert store.linked_entity("i1", link) == iri("http://x/e1")


def test_materialize_counts_distinct_edges():
    store, link = make_entities(21)
    nl = NeighborList("i0", [(f"i{j}", 0.9) for j in range(1, 21)])
    result = store.materialize_knn({"i0": nl}, link, KNN)
    assert result.added == 20
    assert not result.skipped
    assert len(store.objects_of(iri(link["i0"]), KNN)) == 20


def test_knn_edges_are_the_pairs_materialize_adds():
    store, link = make_entities(4)
    first, second = iri(link["i0"]), iri(link["i1"])
    store.add(Triple(first, KNN, second))  # already in the graph
    lists = {i: NeighborList(i, [(j, 0.5) for j in link if j != i])
             for i in link}
    edges, skipped = store.knn_edges(lists, link, KNN)
    assert not skipped and len(edges) == 11
    assert store.materialize_knn(lists, link, KNN).added == 11
    assert {(t.subject, t.object) for t in store
            if t.predicate == KNN} == edges | {(first, second)}


def test_materialize_collapses_duplicate_identifiers():
    store, link = make_entities(21)
    link["i20"] = link["i1"]  # two item ids, one entity
    nl = NeighborList("i0", [(f"i{j}", 0.9) for j in range(1, 21)])
    result = store.materialize_knn({"i0": nl}, link, KNN)
    assert result.added == 19


def test_materialize_skips_unlinked_ids_with_diagnostics():
    store, link = make_entities(3)
    nl = NeighborList("i0", [("i1", 0.9), ("ghost", 0.8)])
    result = store.materialize_knn({"i0": nl}, link, KNN)
    assert result.added == 1
    assert any("ghost" in s for s in result.skipped)


def test_materialize_never_inserts_self_loops():
    store, link = make_entities(2)
    link["dup"] = link["i0"]
    nl = NeighborList("i0", [("dup", 0.9), ("i1", 0.8)])
    result = store.materialize_knn({"i0": nl}, link, KNN)
    assert result.added == 1
    assert Triple(iri(link["i0"]), KNN, iri(link["i0"])) not in store


def test_feature_weights_never_contain_knn_predicate_after_materialize():
    # every entity's neighbors are the three others, so any two of them
    # share two (knn, entity) pairs, which must not become features
    store, link = make_entities(4)
    lists = {i: NeighborList(i, [(j, 0.5) for j in link if j != i])
             for i in link}
    store.materialize_knn(lists, link, KNN)
    universe = entity_universe(store, FILM)
    for v in link.values():
        weighed = feature_weights(store, iri(v), universe, KNN)
        assert [wf.feature for wf in weighed] == [Feature(RDF_TYPE, FILM)]


term_names = st.text(min_size=1, max_size=6)
any_terms = st.one_of(
    st.builds(iri, term_names), st.builds(blank, term_names),
    st.builds(literal, st.text(max_size=6)),
    st.builds(lambda v, lang: literal(v, language=lang), st.text(),
              term_names),
    st.builds(lambda v, dt: literal(v, datatype=dt), st.text(), term_names))


@given(any_terms)
def test_term_is_an_immutable_tuple_of_its_fields(t):
    fields = (t.kind, t.lexical, t.language, t.datatype)
    # the frozen dataclass's hash, so set and dict orders stay as they were
    assert hash(t) == hash(fields)
    assert Term(*t) == t == fields
    assert repr(t) == (f"Term(kind={t.kind!r}, lexical={t.lexical!r}, "
                       f"language={t.language!r}, datatype={t.datatype!r})")
    for name in Term._fields:
        with pytest.raises(AttributeError):
            setattr(t, name, t.lexical)
    with pytest.raises(ValueError, match="^bad term kind: 'x'$"):
        t._replace(kind="x")


def test_term_rendering():
    assert term_to_ntriples(iri("http://x/a")) == "<http://x/a>"
    assert term_to_ntriples(blank("b1")) == "_:b1"
    assert term_to_ntriples(literal('a"b', language="en")) == '"a\\"b"@en'
    assert term_to_ntriples(literal("5", datatype="http://x/d")) == '"5"^^<http://x/d>'
