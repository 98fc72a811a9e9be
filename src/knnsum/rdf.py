"""In-memory indexed triple store with N-Triples ingestion.

Identity is lexical: no IRI normalization, case-sensitive throughout.
The store interns its terms: each distinct Term gets an int id, and two
indexes of ids, subject and predicate-object, back every query; the
entities of a type are read from the predicate-object index under
rdf:type. Every method takes and returns Terms.
"""

from __future__ import annotations

import contextlib
import gc
import marshal
import re
import sys
from functools import cache, partial
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .textio import NOT_UTF8, Diagnostic, undecodable

if TYPE_CHECKING:
    from .similarity import NeighborList

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"


class NTriplesError(ValueError):
    """A line could not be parsed as an N-Triples statement."""


def _check_term(kind: str, lexical: str, language: str | None,
                datatype: str | None) -> None:
    """Raise ValueError unless the fields make a Term: the one rule for
    the Term constructor and for a snapshot's terms."""
    if kind not in (IRI, LITERAL, BLANK):
        raise ValueError(f"bad term kind: {kind!r}")
    if kind in (IRI, BLANK) and not lexical:
        raise ValueError(f"empty {kind} lexical form")
    # "" renders as no language or datatype, so as another literal
    if "" in (language, datatype) or (language and datatype):
        raise ValueError("a literal takes one non-empty language or "
                         "datatype at most")
    if kind != LITERAL and (language or datatype):
        raise ValueError("language/datatype only allowed on literals")


class _TermFields(NamedTuple):
    kind: str
    lexical: str
    language: str | None = None
    datatype: str | None = None


class Term(_TermFields):
    """An RDF term: an immutable 4-tuple of its fields, so that it is
    hashed and compared in C. It equals the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, kind: str, lexical: str, language: str | None = None,
                datatype: str | None = None) -> Term:
        _check_term(kind, lexical, language, datatype)
        return tuple.__new__(cls, (kind, lexical, language, datatype))

    @classmethod
    def _make(cls, iterable: Iterable) -> Term:
        # checked, and so is _replace, which builds through _make
        return cls(*iterable)


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(value: str, language: str | None = None,
            datatype: str | None = None) -> Term:
    return Term(LITERAL, value, language, datatype)


def blank(label: str) -> Term:
    return Term(BLANK, label)


RDF_TYPE = iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
DEFAULT_KNN_PREDICATE = "urn:knnsum:knn"


class Triple(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


class Feature(NamedTuple):
    """A property-value pair of an entity."""

    property: Term
    value: Term


class PathFeature(NamedTuple):
    """A two-hop composite: first property, second property, terminal node."""

    first: Term
    second: Term
    terminal: Term


def term_key(t: Term) -> tuple[str, str, str, str]:
    return (t.kind, t.lexical, t.language or "", t.datatype or "")


# What a snapshot records of the process that wrote it, as (field, value)
# pairs: the marshal module's format and the Python version. A snapshot
# from another of either is refused, not read.
SNAPSHOT_HEADER = (("marshal_version", marshal.version),
                   ("python_version", "%d.%d" % sys.version_info[:2]))


@contextlib.contextmanager
def _no_cycle_collection():
    """Cycle collection off for the block, and the caller's collector
    state back on every exit. Loading or snapshotting a store makes no
    reference cycles, so collecting during it would only rescan the
    store's indexes (a quarter of a large N-Triples load); nor do the
    usage data, neighbor lists and weighed features of a command, which
    the CLI runs in this block too."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class MaterializeResult(NamedTuple):
    added: int
    skipped: list[str]


class TripleStore:
    """Set of triples with subject and predicate-object indexes."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []  # by id
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[tuple[int, int], set[int]] = {}
        self._size = 0
        for t in triples:
            self.add(t)

    def _intern(self, term: Term) -> int:
        if term not in self._ids:
            self._ids[term] = len(self._terms)
            self._terms.append(term)
        return self._ids[term]

    def _id(self, term: Term) -> int:
        """term's id, or -1 (in no index) if the store has never seen it."""
        return self._ids.get(term, -1)

    def _id_set(self, terms: Iterable[Term]) -> set[int]:
        return {self._id(t) for t in terms} - {-1}

    def _term_set(self, ids: Iterable[int]) -> set[Term]:
        return {self._terms[i] for i in ids}

    def _add(self, s: int, p: int, o: int) -> bool:
        objects = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        self._size += 1
        self._pos.setdefault((p, o), set()).add(s)
        return True

    def add(self, t: Triple) -> bool:
        """Insert a triple; returns False if it was already present."""
        if t.predicate.kind != IRI:
            raise ValueError(f"predicate must be an IRI: {t.predicate}")
        if t.subject.kind == LITERAL:
            raise ValueError("literal subjects are not allowed")
        return self._add(*map(self._intern, t))

    def __len__(self) -> int:
        return self._size

    def snapshot(self) -> bytes:
        """The store as bytes that from_snapshot reads back: SNAPSHOT_HEADER,
        the terms by id as (kind, lexical, language, datatype) tuples, both
        indexes and the size. marshal format 2 writes no back-references,
        which depend on reference counts, so a store built from the same
        input always gives the same bytes."""
        with _no_cycle_collection():
            terms = [(t.kind, t.lexical, t.language, t.datatype)
                     for t in self._terms]
            return marshal.dumps(
                (SNAPSHOT_HEADER, terms, self._spo, self._pos, self._size), 2)

    @classmethod
    def from_snapshot(cls, data: bytes) -> TripleStore:
        """The store whose snapshot() data is. Every term is checked by the
        Term constructor's rule, then built without calling it. A header
        other than this process's SNAPSHOT_HEADER is a ValueError naming the
        field. marshal is not safe on damaged bytes: check data's integrity
        first."""
        kinds = {IRI: IRI, LITERAL: LITERAL, BLANK: BLANK}  # one str each
        new = tuple.__new__
        store = cls()
        with _no_cycle_collection():
            header, terms, store._spo, store._pos, store._size = (
                marshal.loads(data))
            found = dict(header)
            for name, value in SNAPSHOT_HEADER:
                if found.get(name) != value:
                    raise ValueError(
                        f"was written with {name} = {found.get(name)!r}, "
                        f"but this process has {name} = {value!r}")
            for kind, lexical, language, datatype in terms:
                _check_term(kind, lexical, language, datatype)
            store._terms = [new(Term, (kinds[kind], lexical, language,
                                       datatype))
                            for kind, lexical, language, datatype in terms]
            store._ids = dict(zip(store._terms, range(len(terms))))
        return store

    def __iter__(self):
        t = self._terms
        return (Triple(t[s], t[p], t[o]) for s, by_p in self._spo.items()
                for p, objects in by_p.items() for o in objects)

    def __contains__(self, t: Triple) -> bool:
        s, p, o = map(self._id, t)
        return o in self._spo.get(s, {}).get(p, ())

    def __eq__(self, other: object) -> bool:
        # ids depend on insertion order, so compare the triples' terms
        if not isinstance(other, TripleStore):
            return NotImplemented
        return len(self) == len(other) and all(t in other for t in self)

    def has_subject(self, s: Term) -> bool:
        return self._id(s) in self._spo

    def subjects_with(self, p: Term, o: Term) -> set[Term]:
        return self._term_set(self._pos.get((self._id(p), self._id(o)), ()))

    def objects_of(self, s: Term, p: Term) -> set[Term]:
        return self._term_set(
            self._spo.get(self._id(s), {}).get(self._id(p), ()))

    def _features(self, e: int, excluded: set[int]):
        """(property, value) id pairs of e, minus the excluded predicates."""
        for p, objects in self._spo.get(e, {}).items():
            if p not in excluded:
                for o in objects:
                    yield p, o

    def support_counter(self, universe: Iterable[Term]
                        ) -> Callable[[Feature | PathFeature], int]:
        """How many entities of the universe, read once here, hold a
        feature: a property-value pair, or a two-hop path via any node.
        Each feature is counted once, on first use."""
        members = self._id_set(universe)
        pos, id_of = self._pos, self._id

        @cache
        def global_support(f: Feature | PathFeature) -> int:
            if isinstance(f, Feature):
                return len(members.intersection(
                    pos.get((id_of(f.property), id_of(f.value)), ())))
            first = id_of(f.first)
            mids = pos.get((id_of(f.second), id_of(f.terminal)), ())
            return len(members.intersection(set().union(
                *(pos.get((first, mid), ()) for mid in mids))))
        return global_support

    def shared_features(self, e: Term, neighbors: Iterable[Term],
                        excluded_predicates: Iterable[Term] = ()
                        ) -> dict[Feature, set[Term]]:
        """Features of e held by at least one of the given neighbors."""
        terms, pos, nbrs = self._terms, self._pos, self._id_set(neighbors)
        out: dict[Feature, set[Term]] = {}
        for p, o in self._features(self._id(e),
                                   self._id_set(excluded_predicates)):
            witnesses = nbrs.intersection(pos[p, o])
            if witnesses:
                out[Feature(terms[p], terms[o])] = self._term_set(witnesses)
        return out

    def shared_two_hop_paths(self, e: Term, neighbors: Iterable[Term],
                             excluded_predicates: Iterable[Term] = ()
                             ) -> dict[PathFeature, set[Term]]:
        """Two-hop composites of e held by at least one of the neighbors.

        A neighbor holds (p, q, t) when one of its p-objects has the pair
        (q, t), as support_counter counts it: the intermediate nodes are free
        on both sides and are never required to coincide. Neither hop may
        use an excluded predicate.
        """
        excluded = self._id_set(excluded_predicates)
        spo, pos, terms = self._spo, self._pos, self._terms
        nbrs = [(s, spo.get(s, {})) for s in self._id_set(neighbors)]
        own = {(p, q, t) for p, o in self._features(self._id(e), excluded)
               for q, t in self._features(o, excluded)}
        # each first property's objects over all neighbors: a path through
        # none of them has no witness, and most paths need no neighbor scan
        reach = {p: set().union(*(by_p.get(p, ()) for _, by_p in nbrs))
                 for p in {p for p, _, _ in own}}
        return {PathFeature(terms[p], terms[q], terms[t]):
                self._term_set(s for s, by_p in nbrs
                               if not pos[q, t].isdisjoint(by_p.get(p, ())))
                for p, q, t in own if not pos[q, t].isdisjoint(reach[p])}

    def knn_edges(self, lists: Mapping[str, NeighborList],
                  link: Mapping[str, str], predicate: Term
                  ) -> tuple[list[tuple[Term, Term]], list[str]]:
        """The (center, neighbor) entity pairs of the lists, by linked_entity,
        that are no (center, predicate, neighbor) triple yet, each once; and
        a message per item with no entity. Self-loops, also from two ids of
        one entity, are dropped."""
        resolve = cache(partial(self._linked_id, link=link))
        knn, terms = self._id(predicate), self._terms
        seen: set[tuple[int, int]] = set()
        pairs, skipped = [], []
        for center_id in sorted(lists):
            c = resolve(center_id)
            if c < 0:
                skipped.append(f"center {center_id}: no resolvable entity")
                continue
            present = self._spo[c].get(knn, ())
            for neighbor_id, _score in lists[center_id].neighbors:
                n = resolve(neighbor_id)
                if n < 0:
                    skipped.append(f"neighbor {neighbor_id} of {center_id}: "
                                   "no resolvable entity")
                elif n != c and n not in present and (c, n) not in seen:
                    seen.add((c, n))
                    pairs.append((terms[c], terms[n]))
        return pairs, skipped

    def materialize_knn(self, lists: Mapping[str, NeighborList],
                        link: Mapping[str, str],
                        predicate: Term) -> MaterializeResult:
        """Insert the knn_edges as (center, predicate, neighbor) triples."""
        pairs, skipped = self.knn_edges(lists, link, predicate)
        return MaterializeResult(
            sum(self.add(Triple(c, predicate, n)) for c, n in pairs), skipped)

    def _linked_id(self, item: str, link: Mapping[str, str]) -> int:
        target = link.get(item)
        i = -1 if target is None else self._id(iri(target))
        return i if i in self._spo else -1

    def linked_entity(self, item: str, link: Mapping[str, str]) -> Term | None:
        """The entity the link map gives for item, if it is a subject here."""
        i = self._linked_id(item, link)
        return self._terms[i] if i >= 0 else None


# -- N-Triples parsing / serialization -------------------------------------

_IRI_PAT = r"<[^<>]*>"
_BNODE_PAT = r"_:[A-Za-z0-9][A-Za-z0-9_.\-]*"
_LITERAL_PAT = (r'"(?P<body>(?:[^"\\]|\\.)*)"(?:@(?P<lang>[A-Za-z]+'
                r"(?:-[A-Za-z0-9]+)*)|\^\^<(?P<dt>[^<>]*)>)?")

_LINE_RE = re.compile(
    rf"^(?P<s>{_IRI_PAT}|{_BNODE_PAT})\s+"
    rf"(?P<p>{_IRI_PAT})\s+"
    rf"(?P<o>{_IRI_PAT}|{_BNODE_PAT}|{_LITERAL_PAT})\s*\.$")
_LITERAL_RE = re.compile(_LITERAL_PAT)

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
# a backslash, then \u and four characters, \U and eight, or one character
_ESCAPE_RE = re.compile(r"\\(?:(u)(.{0,4})|(U)(.{0,8})|(.))", re.S)
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")


def _unescape_one(m: re.Match) -> str:
    if m.group(5) is not None:
        if m.group(5) not in _ESCAPES:
            raise NTriplesError(f"unknown escape \\{m.group(5)}")
        return _ESCAPES[m.group(5)]
    e, hexdigits = m.group(m.lastindex - 1, m.lastindex)
    if len(hexdigits) != (4 if e == "u" else 8):
        raise NTriplesError(f"truncated \\{e} escape")
    # int(x, 16) would also take a sign, underscores or spaces; and a
    # surrogate or a number past U+10FFFF is no character
    code = int(hexdigits, 16) if _HEX_RE.fullmatch(hexdigits) else -1
    if not (0 <= code < 0xD800 or 0xDFFF < code <= 0x10FFFF):
        raise NTriplesError(f"bad \\{e} escape: {hexdigits}")
    return chr(code)


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(_unescape_one, body) if "\\" in body else body


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


def _parse_term(token: str) -> Term:
    if token.startswith("<"):
        value = token[1:-1]
        if not value:
            raise NTriplesError("empty IRI")
        return iri(value)
    if token.startswith("_:"):
        return blank(token[2:])
    m = _LITERAL_RE.fullmatch(token)  # as the line's pattern matched it
    if m.group("dt") == "":
        raise NTriplesError("empty IRI")
    return literal(_unescape(m.group("body")), m.group("lang"), m.group("dt"))


def load_ntriples(source: IO[str] | Iterable[str]
                  ) -> tuple[TripleStore, list[Diagnostic]]:
    """Build a store from an N-Triples stream; malformed lines, and lines
    carrying bytes that were not UTF-8 (see textio), become diagnostics
    (line number + reason), never a fatal error. Each distinct token is
    parsed once, to its term's id or to the reason it is no term; a line
    reports its first bad token. "A" and "\\u0041" get one id."""
    store = TripleStore()
    diagnostics: list[Diagnostic] = []
    token_ids: dict[str, int | str] = {}

    def token_id(token: str) -> int | str:
        try:
            return store._intern(_parse_term(token))
        except NTriplesError as exc:
            return str(exc)

    with _no_cycle_collection():
        for line_no, line in enumerate(source, start=1):
            stripped = line.strip()
            if undecodable(line):
                ids = [NOT_UTF8]
            elif not stripped or stripped.startswith("#"):
                continue
            elif m := _LINE_RE.match(stripped):
                ids = [token_ids[t] if t in token_ids
                       else token_ids.setdefault(t, token_id(t))
                       for t in m.group("s", "p", "o")]
            else:
                ids = ["not a valid N-Triples statement"]
            if str in map(type, ids):
                reason = next(i for i in ids if type(i) is str)
                diagnostics.append(Diagnostic(line_no, reason))
            else:
                store._add(*ids)
    return store, diagnostics


def term_to_ntriples(t: Term) -> str:
    if t.kind != LITERAL:
        return f"<{t.lexical}>" if t.kind == IRI else f"_:{t.lexical}"
    suffix = (f"@{t.language}" if t.language
              else f"^^<{t.datatype}>" if t.datatype else "")
    return f'"{_escape(t.lexical)}"{suffix}'


def write_ntriples(store: TripleStore, out: IO[str]) -> None:
    """Serialize deterministically (sorted by subject, predicate, object)."""
    for t in sorted(store, key=lambda t: tuple(map(term_key, t))):
        out.write(f"{term_to_ntriples(t.subject)} "
                  f"{term_to_ntriples(t.predicate)} "
                  f"{term_to_ntriples(t.object)} .\n")
