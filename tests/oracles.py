"""Independent oracles and random-input generators for the test suite.

Everything here recomputes results from first principles (raw pair lists,
raw triple scans, the textbook G2 test) and never calls the code paths it
is used to check.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter

from knnsum.rdf import (RDF_TYPE, Diagnostic, Feature, NTriplesError,
                        PathFeature, Term, Triple, TripleStore, iri, literal)
from knnsum.similarity import NeighborList, similarity_score
from knnsum.textio import NOT_UTF8, undecodable
from knnsum.usage import ContingencyTable, UsageMatrix

KNN = iri("urn:knnsum:knn")
FILM = iri("http://example.org/Film")


# -- G2 / log-likelihood ratio ------------------------------------------------

def g2_oracle(k11: int, k12: int, k21: int, k22: int) -> float:
    """Textbook G2 test: 2 * sum O * ln(O / E) over the 2x2 table."""
    n = k11 + k12 + k21 + k22
    rows = (k11 + k12, k21 + k22)
    cols = (k11 + k21, k12 + k22)
    cells = ((k11, rows[0], cols[0]), (k12, rows[0], cols[1]),
             (k21, rows[1], cols[0]), (k22, rows[1], cols[1]))
    total = 0.0
    for obs, row, col in cells:
        if obs > 0:
            expected = row * col / n
            total += obs * math.log(obs / expected)
    return max(2.0 * total, 0.0)


# -- usage matrix --------------------------------------------------------------

def brute_contingency(pairs: list[tuple[str, str]], a: str, b: str
                      ) -> tuple[int, int, int, int]:
    """Rescan the raw (user, item) log for the four user counts."""
    users = {u for u, _ in pairs}
    ra = {u for u, i in pairs if i == a}
    rb = {u for u, i in pairs if i == b}
    k11 = len(ra & rb)
    k12 = len(ra - rb)
    k21 = len(rb - ra)
    k22 = len(users - ra - rb)
    return k11, k12, k21, k22


def brute_corater_counts(pairs: list[tuple[str, str]], later: bool
                         ) -> list[tuple[int, int, int]]:
    """(i, j, k11) for each pair of items that share k11 > 0 raters, with
    j > i when later is set, else any j (i itself too), in (i, j) order;
    items are numbered in sorted() order. Counted by intersecting rater
    sets rescanned from the raw log."""
    items = sorted({i for _, i in pairs})
    raters = [{u for u, i in pairs if i == item} for item in items]
    counts = []
    for i in range(len(items)):
        for j in range(i + 1 if later else 0, len(items)):
            k11 = len(raters[i] & raters[j])
            if k11:
                counts.append((i, j, k11))
    return counts


# -- neighborhoods --------------------------------------------------------------

def rater_sets(m: UsageMatrix) -> dict[str, set[str]]:
    """Each item's rater set, for the oracles below to share per matrix."""
    return {item: m.raters_of(item) for item in m.items}


def scored_candidates(m: UsageMatrix, e: str,
                      sets: dict[str, set[str]] | None = None
                      ) -> list[tuple[str, float]]:
    """Every item with positive similarity to e, sorted by (-score, id).

    Counts co-raters item by item from a user -> items index of its own,
    built from each item's rater set (sets, or rater_sets(m)), scoring each
    pair's table with the per-table similarity_score.
    """
    sets = rater_sets(m) if sets is None else sets
    raters = sets[e]
    items_by_user: dict[str, set[str]] = {user: set() for user in raters}
    for item, users in sets.items():
        for user in users & raters:
            items_by_user[user].add(item)
    overlap: Counter[str] = Counter()
    for user in raters:
        overlap.update(items_by_user[user])
    del overlap[e]
    na = len(raters)
    total = m.total_users
    scored = []
    for b, k11 in overlap.items():
        nb = len(sets[b])
        s = similarity_score(
            ContingencyTable(k11, na - k11, nb - k11, total - na - nb + k11))
        if s > 0.0:
            scored.append((b, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def knn_oracle(m: UsageMatrix, e: str, k: int,
               sets: dict[str, set[str]] | None = None
               ) -> list[tuple[str, float]]:
    return scored_candidates(m, e, sets)[:k]


def threshold_oracle(m: UsageMatrix, e: str, tau: float,
                     sets: dict[str, set[str]] | None = None
                     ) -> list[tuple[str, float]]:
    return [(b, s) for b, s in scored_candidates(m, e, sets) if s > tau]


# -- bundle neighbor lists ---------------------------------------------------------

def reference_neighbor_list(center: str, pairs: object
                            ) -> NeighborList | None:
    """center's NeighborList of (item, score) tuples copied out of pairs, if
    pairs are [item, score] pairs, item ids that are valid UTF-8 with
    similarities in [0, 1]; else None. Each string is checked on its own."""
    if type(pairs) is not list or undecodable(center):
        return None
    neighbors = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            return None
        item, score = pair
        if not (type(item) is str and not undecodable(item)
                and type(score) in (float, int) and 0 <= score <= 1):
            return None
        neighbors.append((item, score))
    return NeighborList(center, neighbors)


# -- N-Triples loading ----------------------------------------------------------

_ESCAPED = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def reference_unescape(body: str) -> str:
    """Decode a literal body's escapes one character at a time."""
    out: list[str] = []
    i = 0
    while i < len(body):
        if body[i] != "\\":
            out.append(body[i])
            i += 1
            continue
        e = body[i + 1]
        if e in _ESCAPED:
            out.append(_ESCAPED[e])
            i += 2
            continue
        if e not in "uU":
            raise NTriplesError(f"unknown escape \\{e}")
        width = 4 if e == "u" else 8
        digits = body[i + 2:i + 2 + width]
        if len(digits) != width:
            raise NTriplesError(f"truncated \\{e} escape")
        if any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise NTriplesError(f"bad \\{e} escape: {digits}")
        code = int(digits, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            raise NTriplesError(f"bad \\{e} escape: {digits}")
        out.append(chr(code))
        i += 2 + width
    return "".join(out)


# The N-Triples productions, as the loader takes them: an IRIREF holds any
# character but < and >; a LANGTAG is letters, then '-'-led letter and digit
# runs; a string is quoted, any character escaped by a backslash
_IRIREF = r"<[^<>]*>"
_BLANK_NODE_LABEL = r"_:[A-Za-z0-9][-A-Za-z0-9_.]*"
_STRING = r'"(?:\\.|[^"\\])*"'
_LANGTAG = r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_SUBJECT = re.compile(f"{_IRIREF}|{_BLANK_NODE_LABEL}")
_PREDICATE = re.compile(_IRIREF)
_OBJECT = re.compile(rf"{_IRIREF}|{_BLANK_NODE_LABEL}"
                     rf"|{_STRING}(?:{_LANGTAG}|\^\^{_IRIREF})?")


def reference_statement(text: str) -> list[str] | None:
    """The subject, predicate and object tokens of a stripped statement
    line, read one production at a time: a subject, whitespace, a
    predicate, whitespace, an object, maybe whitespace, then the final '.';
    None if the text is no statement."""
    if not text.endswith("."):
        return None
    rest, tokens = text[:-1].rstrip(), []
    for production in (_SUBJECT, _PREDICATE):
        m = production.match(rest)
        if m is None or not rest[m.end():m.end() + 1].isspace():
            return None
        tokens.append(m.group())
        rest = rest[m.end():].lstrip()
    if _OBJECT.fullmatch(rest) is None:
        return None
    return tokens + [rest]


def reference_term(token: str) -> Term:
    """The term a token that matched its production names; NTriplesError
    with the loader's reason if it names none."""
    if token[0] == "<":
        if token == "<>":
            raise NTriplesError("empty IRI")
        return Term("iri", token[1:-1])
    if token[0] == "_":
        return Term("blank", token[2:])
    end = 1  # the string's closing quote
    while token[end] != '"':
        end += 2 if token[end] == "\\" else 1
    suffix = token[end + 1:]
    language = suffix[1:] if suffix[:1] == "@" else None
    datatype = suffix[3:-1] if suffix[:1] == "^" else None
    if datatype == "":
        raise NTriplesError("empty IRI")
    return Term("literal", reference_unescape(token[1:end]), language,
                datatype)


def reference_load(lines: list[str]
                   ) -> tuple[set[Triple], list[Diagnostic], list[Term]]:
    """Load N-Triples line by line into a plain set of Term triples, parsing
    every token of every line anew with reference_statement and
    reference_term: no token cache and no term ids. A line that is not
    UTF-8, is no statement or holds a bad token is a diagnostic, with the
    reason of its first bad token in s, p, o order. Also the terms in the
    order first seen: every token of a UTF-8 statement line that parses, a
    line with a bad token too, in s, p, o order; a store's term ids follow
    that order."""
    triples: set[Triple] = set()
    diagnostics: list[Diagnostic] = []
    terms: dict[Term, None] = {}
    for line_no, line in enumerate(lines, start=1):
        if undecodable(line):
            diagnostics.append(Diagnostic(line_no, NOT_UTF8))
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = reference_statement(stripped)
        if tokens is None:
            diagnostics.append(
                Diagnostic(line_no, "not a valid N-Triples statement"))
            continue
        parsed: list[Term | NTriplesError] = []
        for token in tokens:
            try:
                parsed.append(reference_term(token))
            except NTriplesError as exc:
                parsed.append(exc)
        terms.update(dict.fromkeys(t for t in parsed if isinstance(t, Term)))
        bad = [str(t) for t in parsed if isinstance(t, NTriplesError)]
        if bad:
            diagnostics.append(Diagnostic(line_no, bad[0]))
        else:
            triples.add(Triple(*parsed))
    return triples, diagnostics, list(terms)


# -- triple scans --------------------------------------------------------------

def brute_features(triples: list[Triple], e: Term, knn: Term, *,
                   two_hop: bool = False) -> set[Feature | PathFeature]:
    """e's own features from a raw triple scan: each (p, o) of e, or with
    two_hop each (p, q, t) path from e through any node; no knn edge at
    either hop."""
    first = [t for t in triples if t.subject == e and t.predicate != knn]
    if not two_hop:
        return {Feature(t.predicate, t.object) for t in first}
    return {PathFeature(t1.predicate, t2.predicate, t2.object)
            for t1 in first for t2 in triples
            if t2.subject == t1.object and t2.predicate != knn}


def brute_one_hop(triples: list[Triple], e: Term, knn: Term,
                  type_iri: Term) -> dict[Feature, set[Term]]:
    tset = set(triples)
    typed = {t.subject for t in triples
             if t.predicate == RDF_TYPE and t.object == type_iri}
    nbrs = {t.object for t in triples
            if t.subject == e and t.predicate == knn
            and t.object in typed and t.object != e}
    out: dict[Feature, set[Term]] = {}
    for t in triples:
        if t.subject == e and t.predicate != knn:
            ws = {s for s in nbrs if Triple(s, t.predicate, t.object) in tset}
            if ws:
                out[Feature(t.predicate, t.object)] = ws
    return out


def brute_two_hop(triples: list[Triple], e: Term, knn: Term,
                  type_iri: Term) -> dict[PathFeature, set[Term]]:
    typed = {t.subject for t in triples
             if t.predicate == RDF_TYPE and t.object == type_iri}
    nbrs = {t.object for t in triples
            if t.subject == e and t.predicate == knn
            and t.object in typed and t.object != e}
    out: dict[PathFeature, set[Term]] = {}
    for t1 in triples:
        if t1.subject != e or t1.predicate == knn:
            continue
        for t2 in triples:
            if t2.subject != t1.object or t2.predicate == knn:
                continue
            key = PathFeature(t1.predicate, t2.predicate, t2.object)
            for s in nbrs:
                for t3 in triples:
                    if t3.subject != s or t3.predicate != t1.predicate:
                        continue
                    for t4 in triples:
                        if (t4.subject == t3.object
                                and t4.predicate == t2.predicate
                                and t4.object == t2.object):
                            out.setdefault(key, set()).add(s)
    return out


def brute_feature_weights(triples: list[Triple], e: Term, knn: Term,
                          type_iri: Term, base: float = math.e
                          ) -> dict[Feature, tuple[int, int, float]]:
    """Recount |A|, |B|, |E| from raw triples and apply the weight formula."""
    tset = set(triples)
    universe = {t.subject for t in triples
                if t.predicate == RDF_TYPE and t.object == type_iri}
    shared = brute_one_hop(triples, e, knn, type_iri)
    out = {}
    for f, ws in shared.items():
        a = len(ws)
        b = len({s for s in universe
                 if Triple(s, f.property, f.value) in tset})
        out[f] = (a, b, a * (math.log(len(universe) / b) / math.log(base)))
    return out


def brute_path_feature_weights(triples: list[Triple], e: Term, knn: Term,
                               type_iri: Term
                               ) -> dict[PathFeature, tuple[int, int, float]]:
    """Two-hop analog of brute_feature_weights: |A| from brute_two_hop, |B|
    from a scan of every raw (s, p, m) (m, q, t) triple pair, with no knn
    edge at either hop, for the universe entities s holding each path."""
    universe = {t.subject for t in triples
                if t.predicate == RDF_TYPE and t.object == type_iri}
    holders: dict[PathFeature, set[Term]] = {}
    for t1 in triples:
        for t2 in triples:
            if (t1.subject in universe and t2.subject == t1.object
                    and knn not in (t1.predicate, t2.predicate)):
                key = PathFeature(t1.predicate, t2.predicate, t2.object)
                holders.setdefault(key, set()).add(t1.subject)
    out = {}
    for f, ws in brute_two_hop(triples, e, knn, type_iri).items():
        a, b = len(ws), len(holders[f])
        out[f] = (a, b, a * math.log(len(universe) / b))
    return out


# -- random instance generators -------------------------------------------------

def random_usage_log(rng: random.Random, max_users: int = 50,
                     max_items: int = 50) -> list[tuple[str, str]]:
    users = [f"u{i:02d}" for i in range(rng.randint(2, max_users))]
    items = [f"i{i:02d}" for i in range(rng.randint(2, max_items))]
    pairs = []
    for u in users:
        for item in rng.sample(items, rng.randint(0, min(len(items), 8))):
            pairs.append((u, item))
    return pairs


def random_store(rng: random.Random, max_entities: int = 50,
                 max_features: int = 20) -> tuple[TripleStore, list[Triple]]:
    """Entities with random features, types and knn edges.

    Every entity carries one shared 'universal' feature so downgrading to
    weight zero is always exercised.
    """
    n = rng.randint(3, max_entities)
    entities = [iri(f"http://example.org/e{i:03d}") for i in range(n)]
    props = [iri(f"http://example.org/p{j}") for j in range(rng.randint(2, 5))]
    vals = [iri(f"http://example.org/v{j}") for j in range(rng.randint(2, 6))]
    pool = [Feature(p, v) for p in props for v in vals]
    rng.shuffle(pool)
    pool = pool[:max_features]

    triples: list[Triple] = []
    universal = Feature(iri("http://example.org/common"),
                        iri("http://example.org/everywhere"))
    typed = []
    for e in entities:
        if rng.random() < 0.85 or len(typed) < 2:
            triples.append(Triple(e, RDF_TYPE, FILM))
            typed.append(e)
        triples.append(Triple(e, universal.property, universal.value))
        for f in rng.sample(pool, rng.randint(0, min(len(pool), 6))):
            triples.append(Triple(e, f.property, f.value))
    for e in typed:
        others = [x for x in entities if x != e]
        for s in rng.sample(others, rng.randint(0, min(len(others), 5))):
            triples.append(Triple(e, KNN, s))
    return TripleStore(triples), triples


def random_two_hop_store(rng: random.Random, max_triples: int = 200
                         ) -> tuple[TripleStore, list[Triple], Term]:
    """Small graph with intermediate nodes, for two-hop query checks."""
    entities = [iri(f"http://example.org/e{i}") for i in range(rng.randint(3, 10))]
    mids = [iri(f"http://example.org/m{i}") for i in range(rng.randint(2, 6))]
    terminals = ([iri(f"http://example.org/t{i}") for i in range(4)]
                 + [literal("42"), literal("x", language="en")])
    firsts = [iri(f"http://example.org/p{i}") for i in range(3)]
    seconds = [iri(f"http://example.org/q{i}") for i in range(3)]

    triples: set[Triple] = set()
    for e in entities:
        if rng.random() < 0.8:
            triples.add(Triple(e, RDF_TYPE, FILM))
        for _ in range(rng.randint(0, 4)):
            triples.add(Triple(e, rng.choice(firsts), rng.choice(mids)))
        for _ in range(rng.randint(0, 2)):
            triples.add(Triple(e, KNN, rng.choice(entities)))
    for m in mids:
        for _ in range(rng.randint(0, 4)):
            triples.add(Triple(m, rng.choice(seconds), rng.choice(terminals)))
    out = sorted(triples, key=lambda t: repr(t))[:max_triples]
    return TripleStore(out), out, entities[0]
