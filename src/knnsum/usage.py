"""Binary user-item usage matrix built from delimited ratings logs.

Rating values are treated as evidence of usage only: a (user, item) pair is
either present or absent, numerical scores are discarded at ingestion.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, NamedTuple

import numpy as np
from scipy import sparse


class UnknownItemError(KeyError):
    """An item id was not found in the usage matrix."""


class InvalidPairError(ValueError):
    """A co-occurrence query named the same item twice."""


class ContingencyTable(NamedTuple):
    """User counts for an item pair: both, first only, second only, neither."""

    k11: int
    k12: int
    k21: int
    k22: int


@dataclass
class RatingsFormat:
    """Column layout of a delimited ratings file.

    Defaults match HetRec-style ``user_ratedmovies.dat``: tab-separated,
    user id in column 0, item id in column 1, one header line.
    """

    delimiter: str = "\t"
    user_col: int = 0
    item_col: int = 1
    rating_col: int | None = None
    timestamp_col: int | None = None
    header: bool = True

    def max_index(self) -> int:
        cols = [self.user_col, self.item_col]
        if self.rating_col is not None:
            cols.append(self.rating_col)
        if self.timestamp_col is not None:
            cols.append(self.timestamp_col)
        return max(cols)


class RejectedLine(NamedTuple):
    line_no: int
    reason: str


@dataclass(frozen=True)
class Incidence:
    """Integer-coded form of a UsageMatrix.

    Items are numbered in ascending id order, so ascending column index
    is ascending item id. Both sparse matrices hold 1 per (user, item).
    """

    items: list[str]
    item_index: dict[str, int]
    by_item: sparse.csr_matrix  # items x users
    by_user: sparse.csr_matrix  # users x items
    counts: np.ndarray          # raters per item


class UsageMatrix:
    """Immutable binary user x item incidence.

    Exposes the per-item rater sets and the per-user item sets; membership
    only, no rating values. Safe for concurrent readers once constructed.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        raters: dict[str, set[str]] = defaultdict(set)
        items_by_user: dict[str, set[str]] = defaultdict(set)
        for user, item in pairs:
            raters[item].add(user)
            items_by_user[user].add(item)
        self.raters: dict[str, set[str]] = dict(raters)
        self.items_by_user: dict[str, set[str]] = dict(items_by_user)
        self.users: set[str] = set(items_by_user)
        self.items: set[str] = set(raters)

    @property
    def total_users(self) -> int:
        return len(self.users)

    @cached_property
    def incidence(self) -> Incidence:
        """The integer-coded sparse index, built on first use."""
        items = sorted(self.items)
        user_index = {user: j for j, user in enumerate(sorted(self.users))}
        counts = np.fromiter((len(self.raters[item]) for item in items),
                             dtype=np.int32, count=len(items))
        indptr = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.fromiter(
            (user_index[user] for item in items for user in self.raters[item]),
            dtype=np.int32, count=int(indptr[-1]))
        by_item = sparse.csr_matrix(
            (np.ones(len(indices), dtype=np.int32), indices, indptr),
            shape=(len(items), len(user_index)))
        return Incidence(items, {item: i for i, item in enumerate(items)},
                         by_item, by_item.T.tocsr(), counts)

    def raters_of(self, item: str) -> set[str]:
        try:
            return self.raters[item]
        except KeyError:
            raise UnknownItemError(f"unknown item id: {item!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UsageMatrix):
            return NotImplemented
        return self.raters == other.raters and self.users == other.users

    def __repr__(self) -> str:
        return f"UsageMatrix(users={len(self.users)}, items={len(self.items)})"


@dataclass
class IngestResult:
    matrix: UsageMatrix
    rejected: list[RejectedLine]

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)


def ingest_ratings(source: IO[str] | Iterable[str],
                   fmt: RatingsFormat | None = None) -> IngestResult:
    """Read a delimited ratings stream into a UsageMatrix.

    Repeated (user, item) pairs collapse to one. Lines that do not carry
    every mapped column, or carry an empty user/item id, are skipped and
    reported as rejected-line diagnostics; they never abort ingestion.
    """
    if fmt is None:
        fmt = RatingsFormat()
    need = fmt.max_index() + 1
    pairs: list[tuple[str, str]] = []
    rejected: list[RejectedLine] = []
    for line_no, raw in enumerate(source, start=1):
        if line_no == 1 and fmt.header:
            continue
        line = raw.rstrip("\r\n")
        fields = line.split(fmt.delimiter)
        if len(fields) < need:
            rejected.append(RejectedLine(
                line_no, f"expected at least {need} columns, got {len(fields)}"))
            continue
        user = fields[fmt.user_col].strip()
        item = fields[fmt.item_col].strip()
        if not user or not item:
            rejected.append(RejectedLine(line_no, "empty user or item id"))
            continue
        pairs.append((user, item))
    return IngestResult(UsageMatrix(pairs), rejected)


def cooccurrence(m: UsageMatrix, a: str, b: str) -> ContingencyTable:
    """Contingency table of rater counts for a pair of distinct items."""
    if a == b:
        raise InvalidPairError(f"co-occurrence of an item with itself: {a!r}")
    ra = m.raters_of(a)
    rb = m.raters_of(b)
    k11 = len(ra & rb)
    k12 = len(ra) - k11
    k21 = len(rb) - k11
    k22 = m.total_users - k11 - k12 - k21
    return ContingencyTable(k11, k12, k21, k22)
