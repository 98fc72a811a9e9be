"""Binary user-item usage matrix built from delimited ratings logs.

Rating values are treated as evidence of usage only: a (user, item) pair is
either present or absent, numerical scores are discarded at ingestion.

numpy is imported in the functions that compute with it, so that
importing knnsum, as the neighbors and summarize commands do, does not
load it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .textio import NOT_UTF8, Diagnostic, undecodable

if TYPE_CHECKING:
    import numpy as np


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
    user id in column 0, item id in column 1, one header line. An empty
    delimiter, a negative column or one column for users and items raises
    ValueError on construction.
    """

    delimiter: str = "\t"
    user_col: int = 0
    item_col: int = 1
    rating_col: int | None = None
    timestamp_col: int | None = None
    header: bool = True

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ValueError("delimiter must not be empty")
        for name in ("user_col", "item_col", "rating_col", "timestamp_col"):
            col = getattr(self, name)
            if col is not None and col < 0:
                raise ValueError(f"{name} must be >= 0, got {col}")
        if self.user_col == self.item_col:
            raise ValueError(f"user_col and item_col must differ, both are "
                             f"{self.user_col}")

    def max_index(self) -> int:
        return max(c for c in (self.user_col, self.item_col, self.rating_col,
                               self.timestamp_col) if c is not None)


class CSR(NamedTuple):
    """The nonzero pattern of a 0/1 sparse matrix in compressed rows: row
    r holds the columns indices[indptr[r]:indptr[r + 1]], ascending."""

    indptr: np.ndarray  # int64, one more than there are rows
    indices: np.ndarray  # int32
    shape: tuple[int, int]


class UsageMatrix:
    """Immutable binary user x item incidence, integer-coded.

    items and users hold the distinct ids in sorted() order, and row i of
    by_item (column i of by_user) is items[i], column j is users[j]. Both
    hold one entry per distinct (user, item) pair; counts holds the
    raters per item. by_user_pos[e] is the index in by_user.indices of
    the pair that entry e of by_item holds: that rater's items after the
    item follow it. Membership only, no rating values. Safe for
    concurrent readers once constructed.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        import numpy as np

        user_code: dict[str, int] = {}
        item_code: dict[str, int] = {}
        user_col = array("i")
        item_row = array("i")
        for user, item in pairs:
            user_col.append(user_code.setdefault(user, len(user_code)))
            item_row.append(item_code.setdefault(item, len(item_code)))
        self.users, user_rank = _sorted_codes(user_code)
        self.items, item_rank = _sorted_codes(item_code)
        self.item_index = {item: i for i, item in enumerate(self.items)}
        n_items, n_users = len(self.items), len(self.users)
        # one key per pair, item major; after the sort a repeated pair
        # repeats its neighbour (np.unique sorts far slower)
        pair = item_rank[np.frombuffer(item_row, dtype=np.int32)].astype(
            np.int64)
        pair *= n_users
        pair += user_rank[np.frombuffer(user_col, dtype=np.int32)]
        del user_col, item_row
        pair.sort()
        distinct = np.ones(len(pair), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=distinct[1:])
        pair = pair[distinct]
        del distinct
        nnz = len(pair)
        item = np.empty(nnz, dtype=np.int32)
        np.floor_divide(pair, n_users, out=item, casting="unsafe")
        np.remainder(pair, n_users, out=pair)  # now the user of each pair
        self.by_item = CSR(_row_starts(item, n_items), pair.astype(np.int32),
                           (n_items, n_users))
        self.counts = np.diff(self.by_item.indptr).astype(np.int32)
        # the pairs user major: sorting each pair's user with its index in
        # by_item keeps every user's items ascending
        pair *= nnz
        pair += np.arange(nnz)
        pair.sort()
        user = np.empty(nnz, dtype=np.int32)
        np.floor_divide(pair, nnz, out=user, casting="unsafe")
        np.remainder(pair, nnz, out=pair)  # now the index in by_item
        self.by_user = CSR(_row_starts(user, n_users), item[pair],
                           (n_users, n_items))
        del user, item
        self.by_user_pos = np.empty(nnz, dtype=np.int64)
        self.by_user_pos[pair] = np.arange(nnz)

    @property
    def total_users(self) -> int:
        return len(self.users)

    def _row(self, item: str) -> np.ndarray:
        """Column indices of item's raters, ascending."""
        try:
            i = self.item_index[item]
        except KeyError:
            raise UnknownItemError(f"unknown item id: {item!r}") from None
        return self.by_item.indices[self.by_item.indptr[i]:
                                    self.by_item.indptr[i + 1]]

    def raters_of(self, item: str) -> set[str]:
        users = self.users
        return {users[j] for j in self._row(item).tolist()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UsageMatrix):
            return NotImplemented
        import numpy as np

        return (self.items == other.items and self.users == other.users
                and np.array_equal(self.by_item.indptr, other.by_item.indptr)
                and np.array_equal(self.by_item.indices,
                                   other.by_item.indices))

    def __repr__(self) -> str:
        return f"UsageMatrix(users={len(self.users)}, items={len(self.items)})"


def _row_starts(row: np.ndarray, n_rows: int) -> np.ndarray:
    """The indptr of a CSR whose entries have the ascending row numbers
    row."""
    import numpy as np

    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
    return indptr


def _sorted_codes(code: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The ids in sorted() order, and the sorted position of each code."""
    import numpy as np

    ids = sorted(code)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[[code[i] for i in ids]] = np.arange(len(ids))
    return ids, rank


@dataclass
class IngestResult:
    matrix: UsageMatrix
    rejected: list[Diagnostic]


def ingest_ratings(source: IO[str] | Iterable[str],
                   fmt: RatingsFormat | None = None) -> IngestResult:
    """Read a delimited ratings stream into a UsageMatrix.

    Repeated (user, item) pairs collapse to one. Lines that do not carry
    every mapped column, carry an empty user/item id, or carry bytes that
    were not UTF-8 (see textio) are skipped and reported as rejected-line
    diagnostics; they never abort ingestion.
    """
    rejected: list[Diagnostic] = []
    matrix = UsageMatrix(_accepted_pairs(source, fmt or RatingsFormat(),
                                         rejected))
    return IngestResult(matrix, rejected)


def _accepted_pairs(source: IO[str] | Iterable[str], fmt: RatingsFormat,
                    rejected: list[Diagnostic]
                    ) -> Iterator[tuple[str, str]]:
    need = fmt.max_index() + 1
    for line_no, raw in enumerate(source, start=1):
        if line_no == 1 and fmt.header:
            continue
        if undecodable(raw):
            rejected.append(Diagnostic(line_no, NOT_UTF8))
            continue
        fields = raw.rstrip("\r\n").split(fmt.delimiter)
        if len(fields) < need:
            rejected.append(Diagnostic(
                line_no, f"expected at least {need} columns, got {len(fields)}"))
            continue
        user = fields[fmt.user_col].strip()
        item = fields[fmt.item_col].strip()
        if not user or not item:
            rejected.append(Diagnostic(line_no, "empty user or item id"))
            continue
        yield user, item


def cooccurrence(m: UsageMatrix, a: str, b: str) -> ContingencyTable:
    """Contingency table of rater counts for a pair of distinct items."""
    if a == b:
        raise InvalidPairError(f"co-occurrence of an item with itself: {a!r}")
    import numpy as np

    ra = m._row(a)
    rb = m._row(b)
    k11 = len(np.intersect1d(ra, rb, assume_unique=True))
    k12 = len(ra) - k11
    k21 = len(rb) - k11
    k22 = m.total_users - k11 - k12 - k21
    return ContingencyTable(k11, k12, k21, k22)
