"""In-memory indexed triple store with N-Triples ingestion.

Identity is lexical: no IRI normalization, case-sensitive throughout.
Two access paths (subject, predicate-object) plus an rdf:type index back
the one-hop and two-hop shared-feature queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .textio import NOT_UTF8, undecodable

if TYPE_CHECKING:
    from .similarity import NeighborList

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"


class UnknownEntityError(KeyError):
    """The queried entity appears nowhere as a subject in the store."""


class NTriplesError(ValueError):
    """A line could not be parsed as an N-Triples statement."""


@dataclass(frozen=True, slots=True)
class Term:
    kind: str
    lexical: str
    language: str | None = None
    datatype: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (IRI, LITERAL, BLANK):
            raise ValueError(f"bad term kind: {self.kind!r}")
        if self.kind in (IRI, BLANK) and not self.lexical:
            raise ValueError(f"empty {self.kind} lexical form")
        if self.kind != LITERAL and (self.language or self.datatype):
            raise ValueError("language/datatype only allowed on literals")


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


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


class Diagnostic(NamedTuple):
    line_no: int
    reason: str


@dataclass
class MaterializeResult:
    added: int = 0
    skipped: list[str] = field(default_factory=list)


class TripleStore:
    """Set of triples with subject and predicate-object indexes."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._spo: dict[Term, dict[Term, set[Term]]] = {}
        self._pos: dict[tuple[Term, Term], set[Term]] = {}
        self._types: dict[Term, set[Term]] = {}
        self._size = 0
        for t in triples:
            self.add(t)

    def add(self, t: Triple) -> bool:
        """Insert a triple; returns False if it was already present."""
        if t.predicate.kind != IRI:
            raise ValueError(f"predicate must be an IRI: {t.predicate}")
        if t.subject.kind == LITERAL:
            raise ValueError("literal subjects are not allowed")
        objects = self._spo.setdefault(t.subject, {}).setdefault(t.predicate,
                                                                 set())
        if t.object in objects:
            return False
        objects.add(t.object)
        self._size += 1
        self._pos.setdefault((t.predicate, t.object), set()).add(t.subject)
        if t.predicate == RDF_TYPE:
            self._types.setdefault(t.object, set()).add(t.subject)
        return True

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for s, by_predicate in self._spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield Triple(s, p, o)

    def __contains__(self, t: Triple) -> bool:
        return t.object in self._spo.get(t.subject, {}).get(t.predicate, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return self._spo == other._spo

    def has_subject(self, s: Term) -> bool:
        return s in self._spo

    def subjects_with(self, p: Term, o: Term) -> set[Term]:
        return set(self._pos.get((p, o), ()))

    def objects_of(self, s: Term, p: Term) -> set[Term]:
        return set(self._spo.get(s, {}).get(p, ()))

    def predicates_of(self, s: Term) -> dict[Term, set[Term]]:
        return {p: set(os) for p, os in self._spo.get(s, {}).items()}

    def typed(self, type_iri: Term) -> set[Term]:
        return set(self._types.get(type_iri, ()))

    # -- query shapes -----------------------------------------------------

    def feature_set(self, e: Term,
                    excluded_predicates: Iterable[Term] = ()) -> set[Feature]:
        """All (property, value) pairs of e, minus the excluded predicates."""
        excluded = set(excluded_predicates)
        out: set[Feature] = set()
        for p, objects in self._spo.get(e, {}).items():
            if p in excluded:
                continue
            for o in objects:
                out.add(Feature(p, o))
        return out

    def entities_with_feature(self, f: Feature,
                              type_filter: Term | None = None) -> set[Term]:
        subjects = self.subjects_with(f.property, f.value)
        if type_filter is not None:
            subjects &= self._types.get(type_filter, set())
        return subjects

    def global_support(self, f: Feature | PathFeature,
                       universe: set[Term]) -> int:
        """How many entities of the universe hold f: a property-value pair,
        or a two-hop path through any intermediate node."""
        if isinstance(f, Feature):
            return len(universe.intersection(
                self._pos.get((f.property, f.value), ())))
        holders: set[Term] = set()
        for mid in self._pos.get((f.second, f.terminal), ()):
            holders.update(self._pos.get((f.first, mid), ()))
        return len(universe.intersection(holders))

    def knn_neighbors(self, e: Term, knn_predicate: Term,
                      type_filter: Term) -> set[Term]:
        """The typed entities e links to by knn edges, e itself excluded."""
        typed = self._types.get(type_filter, set())
        return {s for s in self.objects_of(e, knn_predicate)
                if s != e and s in typed}

    def shared_features(self, e: Term, neighbors: Iterable[Term],
                        excluded_predicates: Iterable[Term] = ()
                        ) -> dict[Feature, set[Term]]:
        """Features of e held by at least one of the given neighbors."""
        out: dict[Feature, set[Term]] = {}
        for f in self.feature_set(e, excluded_predicates):
            holders = self._pos.get((f.property, f.value), set())
            witnesses = {s for s in neighbors if s in holders}
            if witnesses:
                out[f] = witnesses
        return out

    def shared_one_hop_features(self, e: Term, knn_predicate: Term,
                                type_filter: Term) -> dict[Feature, set[Term]]:
        """Features of e shared with its typed knn neighbors, with witnesses."""
        if not self.has_subject(e):
            raise UnknownEntityError(f"entity not in store: {e.lexical}")
        neighbors = self.knn_neighbors(e, knn_predicate, type_filter)
        return self.shared_features(e, neighbors, (knn_predicate,))

    def two_hop_paths(self, s: Term,
                      excluded_predicates: Iterable[Term] = ()
                      ) -> set[PathFeature]:
        """All (p, q, t) with s -p-> o -q-> t for some intermediate o,
        where neither p nor q is an excluded predicate."""
        excluded = set(excluded_predicates)
        out: set[PathFeature] = set()
        for p, objects in self._spo.get(s, {}).items():
            if p in excluded:
                continue
            for o in objects:
                for q, terminals in self._spo.get(o, {}).items():
                    if q in excluded:
                        continue
                    for t in terminals:
                        out.add(PathFeature(p, q, t))
        return out

    def shared_two_hop_paths(self, e: Term, neighbors: Iterable[Term],
                             excluded_predicates: Iterable[Term] = ()
                             ) -> dict[PathFeature, set[Term]]:
        """Two-hop composites of e matched by any neighbor's own two-hop path.

        Only (p, q, t) must agree; the intermediate nodes are free on both
        sides and are never required to coincide. Neither hop may use an
        excluded predicate.
        """
        own = self.two_hop_paths(e, excluded_predicates)
        by_first: dict[Term, set[tuple[Term, Term]]] = {}
        for pf in own:
            by_first.setdefault(pf.first, set()).add((pf.second, pf.terminal))
        out: dict[PathFeature, set[Term]] = {}
        for s in neighbors:
            for p, objects in self._spo.get(s, {}).items():
                wanted = by_first.get(p)
                if not wanted:
                    continue
                for o in objects:
                    for q, terminals in self._spo.get(o, {}).items():
                        for t in terminals:
                            if (q, t) in wanted:
                                out.setdefault(PathFeature(p, q, t), set()).add(s)
        return out

    def shared_two_hop_features(self, e: Term, knn_predicate: Term,
                                type_filter: Term
                                ) -> dict[PathFeature, set[Term]]:
        if not self.has_subject(e):
            raise UnknownEntityError(f"entity not in store: {e.lexical}")
        neighbors = self.knn_neighbors(e, knn_predicate, type_filter)
        return self.shared_two_hop_paths(e, neighbors, (knn_predicate,))

    # -- knn materialization ----------------------------------------------

    def materialize_knn(self, lists: Mapping[str, NeighborList],
                        link: Mapping[str, str],
                        predicate: Term) -> MaterializeResult:
        """Insert (center, predicate, neighbor) edges resolved via the link map.

        Item ids missing from the link map, or linking to an IRI that is not
        a subject in the store, are skipped and reported. Self-loops and
        duplicate-id collapses never produce a triple.
        """
        result = MaterializeResult()
        for center_id in sorted(lists):
            center = self._resolve(center_id, link)
            if center is None:
                result.skipped.append(f"center {center_id}: no resolvable entity")
                continue
            for neighbor_id, _score in lists[center_id].neighbors:
                neighbor = self._resolve(neighbor_id, link)
                if neighbor is None:
                    result.skipped.append(
                        f"neighbor {neighbor_id} of {center_id}: no resolvable entity")
                    continue
                if neighbor == center:
                    continue
                if self.add(Triple(center, predicate, neighbor)):
                    result.added += 1
        return result

    def _resolve(self, item_id: str, link: Mapping[str, str]) -> Term | None:
        target = link.get(item_id)
        if target is None:
            return None
        term = iri(target)
        return term if self.has_subject(term) else None


# -- N-Triples parsing / serialization -------------------------------------

_IRI_PAT = r"<[^<>]*>"
_BNODE_PAT = r"_:[A-Za-z0-9][A-Za-z0-9_.\-]*"
_LITERAL_PAT = r'"(?:[^"\\]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^<[^<>]*>)?'

_LINE_RE = re.compile(
    rf"^(?P<s>{_IRI_PAT}|{_BNODE_PAT})\s+"
    rf"(?P<p>{_IRI_PAT})\s+"
    rf"(?P<o>{_IRI_PAT}|{_BNODE_PAT}|{_LITERAL_PAT})\s*\.$"
)
_LITERAL_RE = re.compile(
    r'^"(?P<body>(?:[^"\\]|\\.)*)"'
    r"(?:@(?P<lang>[A-Za-z]+(?:-[A-Za-z0-9]+)*)|\^\^<(?P<dt>[^<>]*)>)?$"
)

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")


def _unescape(body: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(body):
            raise NTriplesError("dangling backslash in literal")
        e = body[i + 1]
        if e in _ESCAPES:
            out.append(_ESCAPES[e])
            i += 2
        elif e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexdigits = body[i + 2:i + 2 + width]
            if len(hexdigits) != width:
                raise NTriplesError(f"truncated \\{e} escape")
            # int(x, 16) would also take a sign, underscores or spaces
            if not _HEX_RE.fullmatch(hexdigits):
                raise NTriplesError(f"bad \\{e} escape: {hexdigits}")
            code = int(hexdigits, 16)
            # a surrogate or a number past U+10FFFF is no character
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise NTriplesError(f"bad \\{e} escape: {hexdigits}")
            out.append(chr(code))
            i += 2 + width
        else:
            raise NTriplesError(f"unknown escape \\{e}")
    return "".join(out)


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
    m = _LITERAL_RE.match(token)
    if m is None:
        raise NTriplesError(f"malformed literal: {token}")
    return literal(_unescape(m.group("body")), m.group("lang"), m.group("dt"))


def parse_ntriples_line(line: str) -> Triple | None:
    """Parse one N-Triples line; None for blank lines and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    m = _LINE_RE.match(stripped)
    if m is None:
        raise NTriplesError("not a valid N-Triples statement")
    return Triple(_parse_term(m.group("s")),
                  _parse_term(m.group("p")),
                  _parse_term(m.group("o")))


def load_ntriples(source: IO[str] | Iterable[str]
                  ) -> tuple[TripleStore, list[Diagnostic]]:
    """Build a store from an N-Triples stream; malformed lines, and lines
    carrying bytes that were not UTF-8 (see textio), become diagnostics
    (line number + reason), never a fatal error."""
    store = TripleStore()
    diagnostics: list[Diagnostic] = []
    for line_no, line in enumerate(source, start=1):
        if undecodable(line):
            diagnostics.append(Diagnostic(line_no, NOT_UTF8))
            continue
        try:
            t = parse_ntriples_line(line)
        except NTriplesError as exc:
            diagnostics.append(Diagnostic(line_no, str(exc)))
            continue
        if t is not None:
            store.add(t)
    return store, diagnostics


def term_to_ntriples(t: Term) -> str:
    if t.kind == IRI:
        return f"<{t.lexical}>"
    if t.kind == BLANK:
        return f"_:{t.lexical}"
    body = f'"{_escape(t.lexical)}"'
    if t.language:
        return f"{body}@{t.language}"
    if t.datatype:
        return f"{body}^^<{t.datatype}>"
    return body


def write_ntriples(store: TripleStore, out: IO[str]) -> None:
    """Serialize deterministically (sorted by subject, predicate, object)."""
    for t in sorted(store, key=triple_key):
        out.write(f"{term_to_ntriples(t.subject)} "
                  f"{term_to_ntriples(t.predicate)} "
                  f"{term_to_ntriples(t.object)} .\n")
