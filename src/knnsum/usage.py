"""Binary user-item usage matrix built from delimited ratings logs.

Rating values are treated as evidence of usage only: a (user, item) pair is
either present or absent, numerical scores are discarded at ingestion.

numpy and scipy are imported in the functions that compute with them, so
that importing knnsum, as the neighbors and summarize commands do, does
not load them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .textio import NOT_UTF8, undecodable

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


class RejectedLine(NamedTuple):
    line_no: int
    reason: str


class UsageMatrix:
    """Immutable binary user x item incidence, integer-coded.

    items and users hold the distinct ids in sorted() order, and row i of
    by_item (column i of by_user) is items[i], column j is users[j]. Both
    sparse matrices hold 1 per (user, item) pair, with the indices of each
    row in ascending order; counts holds the raters per item. Membership
    only, no rating values. Safe for concurrent readers once constructed.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        import numpy as np
        from scipy import sparse

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
        # COO -> CSR sorts each row's indices; duplicate pairs sum, then
        # every stored value is set back to 1
        self.by_item = sparse.csr_matrix(
            (np.ones(len(item_row), dtype=np.int32),
             (item_rank[np.frombuffer(item_row, dtype=np.int32)],
              user_rank[np.frombuffer(user_col, dtype=np.int32)])),
            shape=(len(self.items), len(self.users)))
        del user_col, item_row
        self.by_item.sum_duplicates()
        self.by_item.data[:] = 1
        self.counts = np.diff(self.by_item.indptr).astype(np.int32)
        self.by_user = self.by_item.T.tocsr()

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
    rejected: list[RejectedLine]

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)


def ingest_ratings(source: IO[str] | Iterable[str],
                   fmt: RatingsFormat | None = None) -> IngestResult:
    """Read a delimited ratings stream into a UsageMatrix.

    Repeated (user, item) pairs collapse to one. Lines that do not carry
    every mapped column, carry an empty user/item id, or carry bytes that
    were not UTF-8 (see textio) are skipped and reported as rejected-line
    diagnostics; they never abort ingestion.
    """
    rejected: list[RejectedLine] = []
    matrix = UsageMatrix(_accepted_pairs(source, fmt or RatingsFormat(),
                                         rejected))
    return IngestResult(matrix, rejected)


def _accepted_pairs(source: IO[str] | Iterable[str], fmt: RatingsFormat,
                    rejected: list[RejectedLine]
                    ) -> Iterator[tuple[str, str]]:
    need = fmt.max_index() + 1
    for line_no, raw in enumerate(source, start=1):
        if line_no == 1 and fmt.header:
            continue
        if undecodable(raw):
            rejected.append(RejectedLine(line_no, NOT_UTF8))
            continue
        fields = raw.rstrip("\r\n").split(fmt.delimiter)
        if len(fields) < need:
            rejected.append(RejectedLine(
                line_no, f"expected at least {need} columns, got {len(fields)}"))
            continue
        user = fields[fmt.user_col].strip()
        item = fields[fmt.item_col].strip()
        if not user or not item:
            rejected.append(RejectedLine(line_no, "empty user or item id"))
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
