"""In-memory indexed triple store with N-Triples ingestion.

Identity is lexical: no IRI normalization, case-sensitive throughout.
The store interns its terms: each distinct term gets an int id, and two
indexes of ids, subject and predicate-object, back every query. Each
index is a few sorted arrays of ids with offsets, not dicts and sets, so
a store is compact and its snapshot is mostly the arrays' raw bytes. The
entities of a type are read from the predicate-object index under
rdf:type. The store keeps each term as the plain tuple of its fields,
which a Term equals and hashes as, so neither a load nor a snapshot
builds a Term; every method still takes and returns Terms, each made on
its first return.
"""

from __future__ import annotations

import contextlib
import gc
import marshal
import re
import sys
from array import array
from bisect import bisect_left
from functools import cache, partial
from itertools import chain, compress, count, filterfalse, islice, repeat
from operator import methodcaller, sub
from typing import (IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

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


# The version of load_ntriples' rules. Bump it with any change that makes
# another store or other diagnostics of some input: a snapshot and the
# diagnostics beside it that the old rules made are then neither trusted
# nor reused, and the graph is parsed anew.
PARSE_RULES = 1

# What a snapshot records of the process that wrote it, as (field, value)
# pairs: the marshal module's format, the Python version, how the index
# arrays lay out their ids, and the parse rules. A snapshot from another
# of any is refused, not read.
SNAPSHOT_HEADER = (("marshal_version", marshal.version),
                   ("python_version", "%d.%d" % sys.version_info[:2]),
                   ("index_layout", "sorted int%d %s-endian"
                    % (8 * array("i").itemsize, sys.byteorder)),
                   ("parse_rules", PARSE_RULES))

@contextlib.contextmanager
def _no_cycle_collection():
    """Cycle collection off for the block, and the caller's collector
    state back on every exit. Loading or snapshotting a store makes no
    reference cycles, so collecting during it would only rescan the
    store's terms (a quarter of a large N-Triples load); nor do the
    usage data, neighbor lists and weighed features of a command, which
    the CLI runs in this block too."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class _SubjectIndex(NamedTuple):
    """The triples sorted by (s, p, o): subject s's rows are start[s] to
    start[s + 1], and each row holds the id of its (p, o) pair in
    _PairIndex, so ascending pair ids are ascending (p, o)."""

    start: Sequence[int]
    pair: Sequence[int]

    def pairs(self, s: int) -> Sequence[int]:
        return self.pair[self.start[s]:self.start[s + 1]]


class _PairIndex(NamedTuple):
    """The triples sorted by (p, o, s): predicate p's (p, o) pairs are
    start[p] to start[p + 1]; pair j is (p[j], o[j]), and its subjects are
    s[rows[j]] to s[rows[j + 1] - 1], ascending."""

    start: Sequence[int]
    p: Sequence[int]
    o: Sequence[int]
    rows: Sequence[int]
    s: Sequence[int]

    def find(self, p: int, o: int) -> int:
        """The id of the pair (p, o), or -1 if no triple has it."""
        lo, hi = self.start[p], self.start[p + 1]
        j = bisect_left(self.o, o, lo, hi)
        return j if j < hi and self.o[j] == o else -1

    def subjects(self, j: int) -> Sequence[int]:
        return self.s[self.rows[j]:self.rows[j + 1]]


# An id of -1, which no term has, reads as an empty span in every offset
# table above: its start[-1] is the last offset and start[0] the first.


def _objects(spo: _SubjectIndex, pos: _PairIndex, s: int, p: int
             ) -> list[int]:
    """The objects of the triples (s, p, _), ascending."""
    a, b = spo.start[s], spo.start[s + 1]
    lo = bisect_left(spo.pair, pos.start[p], a, b)
    hi = bisect_left(spo.pair, pos.start[p + 1], lo, b)
    return [pos.o[j] for j in spo.pair[lo:hi]]


class MaterializeResult(NamedTuple):
    added: int
    skipped: list[str]


class TripleStore:
    """Set of triples with subject and predicate-object indexes. A triple
    added after the indexes were built is indexed with them on the next
    query."""

    def __init__(self, triples: Iterable[Triple] = ()):
        self._ids: dict[tuple, int] = {}  # by fields, so by Term too
        self._terms: list[tuple] = []  # each term's plain fields, by id
        # triples added since the indexes were built, as id triples
        self._added: set[tuple[int, int, int]] = set()
        none, zero = array("i"), array("i", [0])  # no triple, no term
        self._use(_SubjectIndex(zero, none),
                  _PairIndex(zero, none, none, zero, none))
        for t in triples:
            self.add(t)

    def _index(self, rows: array) -> None:
        """Build both indexes over the id triples in rows, (s, p, o) one
        after another, in any order and repeats allowed. numpy sorts them
        as int32 columns; each index array is copied out of numpy once the
        sort's work arrays are freed, so that it can reuse their memory."""
        import numpy as np
        n = len(self._terms)

        def starts(ids):  # the n + 1 offsets of rows sorted by id
            return np.append(0, np.cumsum(np.bincount(ids, minlength=n)))

        t = np.frombuffer(rows, np.int32).reshape(-1, 3)
        t = t[np.lexsort((t[:, 0], t[:, 2], t[:, 1]))]  # by (p, o, s)
        new = np.ones(len(t), bool)  # each triple once
        np.any(t[1:] != t[:-1], axis=1, out=new[1:])
        t = t[new]
        # a new (p, o) pair starts at row 0 and wherever p or o changes
        new = np.ones(len(t), bool)
        np.any(t[1:, 1:] != t[:-1, 1:], axis=1, out=new[1:])
        s, p, o = np.ascontiguousarray(t[:, 0]), t[new, 1], t[new, 2]
        del t
        # the rows by subject, each subject's pair ids still ascending
        pair = (np.cumsum(new, dtype=np.int32) - 1)[np.argsort(
            s, kind="stable")]
        columns = [starts(p), p, o, np.append(np.flatnonzero(new), len(s)),
                   s, starts(s), pair]
        del new, s, p, o, pair
        arrays = [array("i") for _ in columns]
        for a in arrays:
            a.frombytes(np.asarray(columns.pop(0), np.int32).view(np.uint8))
        self._use(_SubjectIndex(*arrays[5:]), _PairIndex(*arrays[:5]))

    def _use(self, spo: _SubjectIndex, pos: _PairIndex) -> None:
        """Query spo and pos from now on, and make from them, on first
        use, the sets that queries intersect, since a feature is often
        shared by many summarized entities and a subject is the neighbor
        of many: pair j's subjects (_holders(j)); the ids of the (q, t)
        pairs of s's p-objects, one two-hop path (p, q, t) of s each, for
        a summarized entity as for a neighbor (_ends(s, p)); and the id of
        each pair (p, o) by o, which the two-hop supports look up once per
        intermediate node (_object_pairs(p)). A query returns term i as
        _term(i): a Term made from its field tuple on first return, and the
        same Term after, since the many queries of a summary batch return
        the same few terms."""
        self._indexes = spo, pos
        terms = self._terms
        self._term = cache(lambda i: tuple.__new__(Term, terms[i]))
        self._holders = cache(lambda j: frozenset(pos.subjects(j)))
        start, pair = spo
        self._ends = cache(lambda s, p: frozenset(chain.from_iterable(
            pair[start[mid]:start[mid + 1]]
            for mid in _objects(spo, pos, s, p))))
        self._object_pairs = cache(lambda p: dict(zip(
            pos.o[pos.start[p]:pos.start[p + 1]],
            range(pos.start[p], pos.start[p + 1]))))

    def _current(self) -> tuple[_SubjectIndex, _PairIndex]:
        """Both indexes, with the triples added since they were built."""
        if self._added:
            rows = array("i", chain.from_iterable(chain(
                zip(*self._columns(*self._indexes)), self._added)))
            self._added = set()
            self._index(rows)
        return self._indexes

    @staticmethod
    def _columns(spo: _SubjectIndex, pos: _PairIndex
                 ) -> tuple[Iterator[int], Iterator[int], Iterator[int]]:
        """The subject, predicate and object ids of the indexed triples,
        in (s, p, o) order."""
        spans = map(sub, spo.start[1:], spo.start[:-1])
        subjects = chain.from_iterable(
            map(repeat, range(len(spo.start) - 1), spans))
        return (subjects, map(pos.p.__getitem__, spo.pair),
                map(pos.o.__getitem__, spo.pair))

    def _intern(self, term: tuple) -> int:
        if term not in self._ids:
            term = tuple(term)  # a Term's plain fields: marshal writes no Term
            self._ids[term] = len(self._terms)
            self._terms.append(term)
        return self._ids[term]

    def _id(self, term: Term) -> int:
        """term's id, or -1 (in no index) if the store has never seen it."""
        return self._ids.get(term, -1)

    def _id_set(self, terms: Iterable[Term]) -> set[int]:
        # map, not a comprehension calling _id: one call fewer per term
        ids = set(map(self._ids.get, terms, repeat(-1)))
        ids.discard(-1)
        return ids

    def _term_set(self, ids: Iterable[int]) -> set[Term]:
        return set(map(self._term, ids))

    def add(self, t: Triple) -> bool:
        """Insert a triple; returns False if it was already present."""
        if t.predicate.kind != IRI:
            raise ValueError(f"predicate must be an IRI: {t.predicate}")
        if t.subject.kind == LITERAL:
            raise ValueError("literal subjects are not allowed")
        s, p, o = row = tuple(map(self._intern, t))
        spo, pos = self._indexes
        # a term interned since the indexes were built is in none of them
        if row in self._added or (max(s, p) < len(spo.start) - 1
                                  and o in _objects(spo, pos, s, p)):
            return False
        self._added.add(row)
        return True

    def __len__(self) -> int:
        return len(self._indexes[0].pair) + len(self._added)

    def snapshot(self) -> bytes:
        """The store as bytes that from_snapshot reads back: one marshal
        (format 2) tuple of SNAPSHOT_HEADER, the list of the terms by id as
        the (kind, lexical, language, datatype) tuples the store keeps, then
        the raw bytes of each index array, _SubjectIndex's and then
        _PairIndex's in field order. Format 2 writes no back-references,
        which depend on reference counts, so a store built from the same
        input always gives the same bytes."""
        spo, pos = self._current()
        return marshal.dumps((SNAPSHOT_HEADER, self._terms, *spo, *pos), 2)

    @classmethod
    def from_snapshot(cls, data: bytes) -> TripleStore:
        """The store whose snapshot() data is. Every term is checked by the
        Term constructor's rule, and kept as its field tuple, no Term. A
        header other than this process's SNAPSHOT_HEADER is a ValueError
        naming the field. The index arrays are read in place, as int views
        of the bytes that marshal gives: no copy, and no spare room.
        marshal is not safe on damaged bytes: check data's integrity
        first."""
        # marshal format 2 writes each kind anew: one str each instead
        kinds = {IRI: IRI, LITERAL: LITERAL, BLANK: BLANK}
        store = cls()
        with _no_cycle_collection():
            header, terms, *indexes = marshal.loads(data)
            found = dict(header)
            for name, value in SNAPSHOT_HEADER:
                if found.get(name) != value:
                    raise ValueError(
                        f"was written with {name} = {found.get(name)!r}, "
                        f"but this process has {name} = {value!r}")
            # each tuple with the shared kind replaces marshal's in its
            # list: the two are never all alive together
            for i, (kind, lexical, language, datatype) in enumerate(terms):
                _check_term(kind, lexical, language, datatype)
                terms[i] = kinds[kind], lexical, language, datatype
            store._terms = terms
            store._ids = dict(zip(terms, count()))
            arrays = [memoryview(raw).cast("i") for raw in indexes]
            store._use(_SubjectIndex(*arrays[:2]), _PairIndex(*arrays[2:]))
        return store

    def __iter__(self):
        columns = zip(*self._columns(*self._current()))
        term = self._term
        return (Triple(term(s), term(p), term(o)) for s, p, o in columns)

    def __contains__(self, t: Triple) -> bool:
        s, p, o = map(self._id, t)
        return o in _objects(*self._current(), s, p)

    def __eq__(self, other: object) -> bool:
        # ids depend on insertion order, so compare the triples' terms
        if not isinstance(other, TripleStore):
            return NotImplemented
        return len(self) == len(other) and all(t in other for t in self)

    def _is_subject(self, i: int) -> bool:
        start = self._current()[0].start
        return start[i] < start[i + 1]

    def has_subject(self, s: Term) -> bool:
        return self._is_subject(self._id(s))

    def subjects_with(self, p: Term, o: Term) -> set[Term]:
        pos = self._current()[1]
        return self._term_set(pos.subjects(pos.find(self._id(p),
                                                    self._id(o))))

    def objects_of(self, s: Term, p: Term) -> set[Term]:
        return self._term_set(_objects(*self._current(), self._id(s),
                                       self._id(p)))

    def support_counter(self, universe: Iterable[Term]
                        ) -> Callable[[Feature | PathFeature], int]:
        """How many entities of the universe, read once here, hold a
        feature: a property-value pair, or a two-hop path via any node.
        Each feature is counted once, on first use."""
        members = self._id_set(universe)
        id_of = self._id

        @cache
        def global_support(f: Feature | PathFeature) -> int:
            pos = self._current()[1]
            if isinstance(f, Feature):
                return len(members.intersection(self._holders(
                    pos.find(id_of(f.property), id_of(f.value)))))
            parent_pairs = self._object_pairs(id_of(f.first))
            rows, subjects = pos.rows, pos.s
            holders: set[int] = set()
            for mid in pos.subjects(pos.find(id_of(f.second),
                                             id_of(f.terminal))):
                j = parent_pairs.get(mid)
                if j is not None:
                    holders.update(subjects[rows[j]:rows[j + 1]])
            return len(members.intersection(holders))
        return global_support

    def shared_features(self, e: Term, neighbors: Iterable[Term],
                        knn_predicate: Term) -> dict[Feature, set[Term]]:
        """Features of e held by at least one of the given neighbors; no
        knn_predicate pair is a feature."""
        (spo, pos), term = self._current(), self._term
        knn, nbrs = self._id(knn_predicate), self._id_set(neighbors)
        i, rows = self._id(e), pos.rows
        out: dict[Feature, set[Term]] = {}
        for j in spo.pairs(i):
            # a pair that e alone holds has no other witness: half the pairs
            # of a long-tail film, whose holder sets are never made
            if pos.p[j] != knn and (rows[j + 1] - rows[j] > 1 or i in nbrs):
                witnesses = nbrs.intersection(self._holders(j))
                if witnesses:
                    out[Feature(term(pos.p[j]), term(pos.o[j]))] = (
                        self._term_set(witnesses))
        return out

    def shared_two_hop_paths(self, e: Term, neighbors: Iterable[Term],
                             knn_predicate: Term
                             ) -> dict[PathFeature, set[Term]]:
        """Two-hop composites of e held by at least one of the neighbors.

        A neighbor holds (p, q, t) when one of its p-objects has the pair
        (q, t), as support_counter counts it: the intermediate nodes are free
        on both sides and are never required to coincide. Neither hop may
        use knn_predicate.
        """
        (spo, pos), term = self._current(), self._term
        knn, i = self._id(knn_predicate), self._id(e)
        # e's paths by first property p: the (q, t) pairs of its p-objects,
        # asked of _ends only for a p with a p-object that is a subject
        ends: dict[int, set[int]] = {}
        for p in dict.fromkeys(pos.p[j] for j in spo.pairs(i)
                               if spo.pairs(pos.o[j])):
            if p != knn:
                pairs = {k for k in self._ends(i, p) if pos.p[k] != knn}
                if pairs:
                    ends[p] = pairs
        witnesses: dict[tuple[int, int], list[int]] = {}
        for n in self._id_set(neighbors):
            for p, pairs in ends.items():
                for k in pairs.intersection(self._ends(n, p)):
                    witnesses.setdefault((p, k), []).append(n)
        return {PathFeature(term(p), term(pos.p[k]), term(pos.o[k])):
                self._term_set(ws) for (p, k), ws in witnesses.items()}

    def knn_edges(self, lists: Mapping[str, NeighborList],
                  link: Mapping[str, str], predicate: Term
                  ) -> tuple[set[tuple[Term, Term]], list[str]]:
        """The (center, neighbor) entity pairs of the lists, by linked_entity,
        that are no (center, predicate, neighbor) triple yet; and a message
        per item with no entity. Self-loops, also from two ids of one
        entity, are dropped."""
        resolve = cache(partial(self.linked_entity, link=link))
        pairs: set[tuple[Term, Term]] = set()
        skipped = []
        for center_id in sorted(lists):
            c = resolve(center_id)
            if c is None:
                skipped.append(f"center {center_id}: no resolvable entity")
                continue
            present = self.objects_of(c, predicate)
            for neighbor_id, _score in lists[center_id].neighbors:
                n = resolve(neighbor_id)
                if n is None:
                    skipped.append(f"neighbor {neighbor_id} of {center_id}: "
                                   "no resolvable entity")
                elif n != c and n not in present:
                    pairs.add((c, n))
        return pairs, skipped

    def materialize_knn(self, lists: Mapping[str, NeighborList],
                        link: Mapping[str, str],
                        predicate: Term) -> MaterializeResult:
        """Insert the knn_edges as (center, predicate, neighbor) triples."""
        pairs, skipped = self.knn_edges(lists, link, predicate)
        return MaterializeResult(
            sum(self.add(Triple(c, predicate, n)) for c, n in pairs), skipped)

    def linked_entity(self, item: str, link: Mapping[str, str]) -> Term | None:
        """The entity the link map gives for item, if it is a subject here."""
        # iri(target)'s fields as a key: a None or "" target is not found
        i = self._id((IRI, link.get(item), None, None))
        return self._term(i) if self._is_subject(i) else None


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
_TOKENS = methodcaller("group", "s", "p", "o")  # a line match's tokens
_LOAD_LINES = 1024  # lines load_ntriples parses at a time: text it holds

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


def _parse_term(token: str) -> tuple[str, str, str | None, str | None]:
    """The (kind, lexical, language, datatype) fields of a token that the
    line pattern matched, which makes every check of the Term rule but
    two: an empty IRI and an empty datatype are checked here."""
    if token.startswith("<"):
        value = token[1:-1]
        if not value:
            raise NTriplesError("empty IRI")
        return IRI, value, None, None
    if token.startswith("_:"):
        return BLANK, token[2:], None, None
    m = _LITERAL_RE.fullmatch(token)  # as the line's pattern matched it
    if m.group("dt") == "":
        raise NTriplesError("empty IRI")
    return LITERAL, _unescape(m.group("body")), *m.group("lang", "dt")


def load_ntriples(source: IO[str] | Iterable[str]
                  ) -> tuple[TripleStore, list[Diagnostic]]:
    """Build a store from an N-Triples stream; malformed lines, and lines
    carrying bytes that were not UTF-8 (see textio), become diagnostics
    (line number + reason), never a fatal error. Each distinct token is
    parsed once, to its term's id or to the reason it is no term; a line
    reports its first bad token. "A" and "\\u0041" get one id. Lines are
    read _LOAD_LINES at a time, and each step runs over a whole chunk."""
    store = TripleStore()
    diagnostics: list[Diagnostic] = []
    # each distinct token's term id, or ~k if reasons[k] is why it is none
    token_ids: dict[str, int] = {}
    reasons: list[str] = []
    rows = array("i")  # the id triples, one after another
    lines = iter(source)

    def token_id(token: str) -> int:
        try:
            return store._intern(_parse_term(token))
        except NTriplesError as exc:
            reasons.append(str(exc))
            return ~(len(reasons) - 1)

    with _no_cycle_collection():
        for first in count(1, _LOAD_LINES):  # the chunk's first line number
            chunk = list(islice(lines, _LOAD_LINES))
            if not chunk:
                break
            found = []  # the chunk's diagnostics
            stripped = list(map(str.strip, chunk))
            if not "".join(chunk).isascii():
                for i in compress(count(), map(undecodable, chunk)):
                    found.append(Diagnostic(first + i, NOT_UTF8))
                    stripped[i] = ""  # and no statement
            matches = list(map(_LINE_RE.match, stripped))
            numbers: Iterable[int] = range(first, first + len(chunk))
            if None in matches:
                found += [Diagnostic(n, "not a valid N-Triples statement")
                          for n, text, m in zip(numbers, stripped, matches)
                          if not m and text and text[0] != "#"]
                numbers = compress(numbers, matches)
                matches = list(filter(None, matches))
            tokens = list(chain.from_iterable(map(_TOKENS, matches)))
            for token in filterfalse(token_ids.__contains__,
                                     dict.fromkeys(tokens)):  # in order
                token_ids[token] = token_id(token)
            ids = array("i", map(token_ids.__getitem__, tokens))
            if ids and min(ids) < 0:  # some line holds a token that is no term
                good = array("i")
                for n, row in zip(numbers, zip(*[iter(ids)] * 3)):
                    if min(row) < 0:
                        bad = next(i for i in row if i < 0)  # s, p, o order
                        found.append(Diagnostic(n, reasons[~bad]))
                    else:
                        good.extend(row)
                ids = good
            rows.extend(ids)
            diagnostics += sorted(found)
        token_ids.clear()  # not held while the store is indexed
        store._index(rows)
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
