"""Log-likelihood-ratio item similarity and neighborhood formation.

The pair similarity of two items with no common rater is defined as 0:
a raw G2 of such a table can be large (strong *negative* association),
but co-usage evidence is what neighborhoods are built from.

numpy is imported in the functions that compute with it, as in usage.py,
and so is concurrent.futures: the lookups load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .usage import ContingencyTable, UnknownItemError, UsageMatrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_K = 20

# The most entries the gram of a chunk of center rows expands to at once,
# unless one row alone expands to more: it bounds the chunk's temporaries.
_CHUNK_ENTRIES = 1 << 17
# A chunk's entries are counted by sorting them when they are fewer than
# its rows times the columns they can pair with by this factor, and with
# np.bincount over that dense rows x columns array otherwise. On 2^12 to
# 2^17 uniform keys the sort was the faster from a factor of 1.5 or 2
# up, and the bincount at 1 and below.
_SPARSE_RATIO = 2


class UndefinedTableError(ValueError):
    """The all-zero contingency table has no defined likelihood ratio."""


def _xlx(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def _entropy2(a: float, b: float) -> float:
    return _xlx(a + b) - _xlx(a) - _xlx(b)


def log_likelihood_ratio(t: ContingencyTable) -> float:
    """G2 statistic of a 2x2 contingency table, in natural-log units.

    Exactly 0.0 for rank-1 tables (k11*k22 == k12*k21, detected on the
    integer counts so statistical independence is never blurred by
    floating-point cancellation); clamped to 0 otherwise when rounding
    drives the sum negative. Symmetric in (k12, k21) bit-for-bit.
    """
    k11, k12, k21, k22 = t
    if min(k11, k12, k21, k22) < 0:
        raise ValueError(f"negative cell in contingency table: {t}")
    n = k11 + k12 + k21 + k22
    if n == 0:
        raise UndefinedTableError("all-zero contingency table")
    if k11 * k22 == k12 * k21:
        return 0.0
    row = _entropy2(k11 + k12, k21 + k22)
    col = _entropy2(k11 + k21, k12 + k22)
    # cell terms paired symmetrically so swapping k12/k21 is a no-op
    mat = _xlx(n) - ((_xlx(k11) + _xlx(k22)) + (_xlx(k12) + _xlx(k21)))
    llr = 2.0 * (row + col - mat)
    return llr if llr > 0.0 else 0.0


def similarity_score(t: ContingencyTable) -> float:
    """Map the unbounded G2 onto [0, 1): 1 - 1/(1 + G2)."""
    llr = log_likelihood_ratio(t)
    return 1.0 - 1.0 / (1.0 + llr)


@dataclass
class NeighborList:
    """Ordered (item, similarity) pairs for one center item.

    Similarities are non-increasing; ties are broken by ascending item id;
    the center never appears in its own list.
    """

    center: str
    neighbors: list[tuple[str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)

    def ids(self) -> list[str]:
        return [item for item, _ in self.neighbors]


@lru_cache(maxsize=8)
def _xlx_table(n: int) -> np.ndarray:
    """T[x] = x ln x for x = 0..n, each entry exactly as _xlx computes it.

    Built with math.log, as log_likelihood_ratio is: numpy's vectorized
    log can differ from it in the last bit (first at x = 9,170 on some
    x86 CPUs).
    """
    import numpy as np

    table = np.array([_xlx(x) for x in range(n + 1)])
    table.setflags(write=False)
    return table


class _Kernel:
    """G2 similarity over the integer-coded usage matrix.

    It counts the common raters of item pairs from the usage matrix's
    rows (see gram) and scores only the pairs that have one, so pairs
    with no common rater are never scored. Each score repeats the float
    operations of log_likelihood_ratio and similarity_score in their
    order, with x ln x read from a table and the margin entropy of each
    item computed once, so it equals the per-table score of the pair bit
    for bit, whichever of the two items is the center.
    """

    def __init__(self, m: UsageMatrix):
        self.m = m
        self.total = m.total_users
        self.xlx = _xlx_table(self.total)
        counts = m.counts
        self.entropy = ((self.xlx[self.total] - self.xlx[counts])
                        - self.xlx[self.total - counts])

    def scores(self, rows: np.ndarray, cols: np.ndarray, k11: np.ndarray
               ) -> np.ndarray:
        """similarity_score of each pair (rows, cols) with k11 common
        raters, bit for bit where it is positive; at most 0 where it is
        0."""
        import numpy as np

        m, xlx, total = self.m, self.xlx, self.total
        # In-place arithmetic bounds the temporaries; each float operation
        # is still the one log_likelihood_ratio makes, in order.
        k12 = np.subtract(m.counts[rows], k11)
        k21 = np.subtract(m.counts[cols], k11)
        k22 = np.subtract(total, k11)
        k22 -= k12
        k22 -= k21
        rank1 = (np.multiply(k11, k22, dtype=np.int64)
                 == np.multiply(k12, k21, dtype=np.int64))
        mat = xlx[k11]
        mat += xlx[k22]
        del k22
        cells = xlx[k12]
        cells += xlx[k21]
        del k12, k21
        mat += cells
        del cells
        np.subtract(xlx[total], mat, out=mat)
        score = self.entropy[rows]
        score += self.entropy[cols]
        score -= mat
        del mat
        score *= 2.0  # llr; a negative one gives a score <= 0
        score += 1.0
        np.divide(1.0, score, out=score)
        np.subtract(1.0, score, out=score)
        score[rank1] = 0.0  # a rank-1 table scores exactly 0
        return score

    def gram(self, start: int, stop: int, later: bool
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The co-rater counts k11 of the pairs (i, j) that share a rater,
        with start <= i < stop and, with later set, j > i, else any j:
        (rows, cols, k11), grouped by i, all int32.

        Each (i, rater) entry of by_item expands into the rater's items
        from i's successor on (with later set) or from the first, read
        from by_user. The center rows are counted a chunk at a time, and a
        chunk expands to at most _CHUNK_ENTRIES entries unless one row
        alone expands to more.
        """
        import numpy as np

        m = self.m
        by_item, by_user = m.by_item, m.by_user
        base = by_item.indptr[start]
        raters = by_item.indices[base:by_item.indptr[stop]]
        begin = (m.by_user_pos[base:by_item.indptr[stop]] + 1 if later
                 else by_user.indptr[raters])
        size = by_user.indptr[raters + 1] - begin
        del raters
        # entry_end[e]: the expansion of the block's entries before e;
        # row_end[r]: that of its rows before start + r
        entry_end = np.zeros(len(size) + 1, dtype=np.int64)
        np.cumsum(size, out=entry_end[1:])
        row_end = entry_end[by_item.indptr[start:stop + 1] - base]
        parts = []
        a = 0
        while a < stop - start:
            b = int(np.searchsorted(row_end, row_end[a] + _CHUNK_ENTRIES,
                                    side="right")) - 1
            b = max(b, a + 1)
            lo = by_item.indptr[start + a] - base
            hi = by_item.indptr[start + b] - base
            # the by_user index of each expanded entry
            at = np.repeat(begin[lo:hi] - entry_end[lo:hi], size[lo:hi])
            at += np.arange(entry_end[lo], entry_end[hi])
            parts.append(self._count(start + a, start + b, later,
                                     by_user.indices[at],
                                     np.diff(row_end[a:b + 1])))
            del at
            a = b
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _count(self, start: int, stop: int, later: bool, items: np.ndarray,
               per_row: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """gram's (rows, cols, k11) for the centers start..stop-1 from
        their expansion: the items, per_row[r] of them for center
        start + r, grouped by center."""
        import numpy as np

        # a key per (center, item): the local row times the width of the
        # columns the chunk's centers can pair with, from first on, plus
        # the item's place among them
        first = start + 1 if later else 0
        width = len(self.m.items) - first
        n_rows = stop - start
        row_key = np.arange(n_rows + 1, dtype=np.int64)
        row_key *= width
        row_base = row_key[:-1] - first
        key = np.repeat(row_base, per_row)
        key += items
        if len(key) * _SPARSE_RATIO < n_rows * width:
            # far fewer entries than keys: sort them, count each run
            key.sort()
            new = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=new[1:])
            at = np.flatnonzero(new)
            del new
            k11 = np.diff(at, append=len(key))
            key = key[at]
        else:
            counts = np.bincount(key, minlength=n_rows * width)
            key = np.flatnonzero(counts)
            k11 = counts[key]
            del counts
        per_key_row = np.diff(np.searchsorted(key, row_key))
        rows = np.repeat(np.arange(start, stop, dtype=np.int32), per_key_row)
        key -= np.repeat(row_base, per_key_row)
        return rows, key.astype(np.int32), k11.astype(np.int32)

    def pairs(self, start: int, stop: int, floor: float, later: bool
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs (i, j) with start <= i < stop that share a rater and
        score above floor, grouped by i, and their scores: with later set,
        only those with j > i, else every j != i. Item numbers are int32."""
        rows, cols, k11 = self.gram(start, stop, later)
        score = self.scores(rows, cols, k11)
        del k11
        keep = score > floor
        if not later:
            keep &= cols != rows
        return rows[keep], cols[keep], score[keep]

    def one(self, e: str, cap: int, floor: float) -> NeighborList:
        """e's neighbor list from its full row of the gram: its best cap
        scores above floor, ordered by (-score, item id)."""
        import numpy as np

        try:
            i = self.m.item_index[e]
        except KeyError:
            raise UnknownItemError(f"unknown item id: {e!r}") from None
        _rows, cols, score = self.pairs(i, i + 1, floor, later=False)
        if len(score) > cap:  # the cap best and their ties
            keep = score >= np.partition(score, len(score) - cap)[-cap]
            cols, score = cols[keep], score[keep]
        order = np.lexsort((cols, -score))[:cap]
        items = self.m.items
        return NeighborList(e, list(zip(
            [items[j] for j in cols[order].tolist()], score[order].tolist())))


def _kth_scores(rows: np.ndarray, score: np.ndarray, start: int, stop: int,
                k: int) -> np.ndarray:
    """The k-th best score of each item start..stop-1 among its entries
    (rows, score), or 0 for an item with fewer than k entries (every score
    is positive).

    Entries arrive grouped by row. Rows are padded with zeros into one
    block for np.partition.
    """
    import numpy as np

    local = rows - np.int32(start)
    per_row = np.bincount(local, minlength=stop - start)
    width = int(per_row.max(initial=0))
    if width < k:
        return np.zeros(stop - start)
    first = np.cumsum(per_row) - per_row
    pad = np.zeros((stop - start) * width)
    pad[local * width + (np.arange(len(local)) - first[local])] = score
    kth = width - k
    return np.partition(pad.reshape(-1, width), kth, axis=1)[:, kth]


def k_nearest_neighbors(m: UsageMatrix, e: str, k: int = DEFAULT_K) -> NeighborList:
    """Up to k most similar items to e, zero-score items excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _Kernel(m).one(e, k, 0.0)


def neighbors_above_threshold(m: UsageMatrix, e: str, tau: float) -> NeighborList:
    """All items with similarity to e strictly above tau, no cardinality cap."""
    return _Kernel(m).one(e, len(m.items), max(tau, 0.0))


def all_pairs_knn(m: UsageMatrix, k: int = DEFAULT_K, workers: int = 1,
                  block_size: int = 64, *,
                  tau: float | None = None) -> dict[str, NeighborList]:
    """Neighbor lists for every item of the matrix.

    Without tau, each list holds the k most similar items; with tau, every
    item whose similarity is strictly above tau, uncapped (k is then
    unused): its best cap items above a floor, (k, 0) or (the item count,
    tau). Each pair of items that share a rater is scored once, by the
    block of block_size centers that holds the first of the two, and the
    score goes to both items' lists. Blocks run last to first on up to
    `workers` threads. A block's temporaries hold one entry per center
    and later co-rated item, so block_size bounds the memory each thread
    uses at once.

    The cap-th best score of a center's pairs with later items is a lower
    bound on its final cap-th score; for the last block's centers, which
    have few later items, the bound is their final cap-th score, from
    their full rows. A block keeps the pairs that reach the bound of the
    center, ties included, and, given to the later item, those that reach
    its bound. So the pool of kept candidates holds, per item, its cap
    best pairs with later items, ties included, and those of its pairs
    with earlier items that reach its bound. Any other bound
    is 0 until its item's block has run, and final from then on, so with
    one worker the pool holds no more; with several, a block can read a
    bound before it is set and keep a few more, never fewer. One exact
    selection under (-score, item id) over that pool makes the lists.
    No item has as many neighbors as the item count, so under that cap
    every bound stays 0 and every pair above tau is kept, for both items.
    Each score equals similarity_score of the pair's contingency table bit
    for bit, and the lists are the same whatever the block size and worker
    count.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    for name, value in (("k", k), ("workers", workers),
                        ("block_size", block_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not m.items:
        return {}
    kernel = _Kernel(m)
    n_items = len(m.items)
    # no list holds more than every other item, so a cap of n_items cuts none
    cap, floor = ((min(k, n_items), 0.0) if tau is None
                  else (n_items, max(tau, 0.0)))
    bound = np.zeros(n_items)
    if cap < n_items:
        last = (n_items - 1) // block_size * block_size
        rows, _cols, score = kernel.pairs(last, n_items, floor, later=False)
        bound[last:] = _kth_scores(rows, score, last, n_items, cap)
        del rows, _cols, score

    def process_block(start: int) -> tuple[np.ndarray, ...]:
        stop = min(start + block_size, n_items)
        rows, cols, score = kernel.pairs(start, stop, floor, later=True)
        kth = _kth_scores(rows, score, start, stop, cap)
        np.maximum(bound[start:stop], kth, out=bound[start:stop])
        mine = score >= bound[rows]
        theirs = score >= bound[cols]
        return (np.concatenate((rows[mine], cols[theirs])),
                np.concatenate((cols[mine], rows[theirs])),
                np.concatenate((score[mine], score[theirs])))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(process_block,
                              reversed(range(0, n_items, block_size))))
    center = np.concatenate([c for c, _o, _s in parts])
    other = np.concatenate([o for _c, o, _s in parts])
    neg = np.concatenate([s for _c, _o, s in parts])
    del parts
    np.negative(neg, out=neg)  # scores negated for the sort
    per_item = np.bincount(center, minlength=n_items)
    order = np.lexsort((other, neg, center))
    del center
    # each item's first cap of its run in order
    kept = np.minimum(per_item, cap)
    firsts = np.cumsum(per_item) - per_item
    starts = np.cumsum(kept) - kept
    order = order[np.repeat(firsts - starts, kept) + np.arange(kept.sum())]
    other, neg = other[order], neg[order]
    del order

    # lists are made a block of items at a time, to bound the temporaries
    items = m.items
    lists = {}
    bounds = np.concatenate(([0], np.cumsum(kept))).tolist()
    for start in range(0, n_items, block_size):
        stop = min(start + block_size, n_items)
        lo, hi = bounds[start], bounds[stop]
        pairs = list(zip([items[j] for j in other[lo:hi].tolist()],
                         np.negative(neg[lo:hi]).tolist()))
        for i in range(start, stop):
            lists[items[i]] = NeighborList(
                items[i], pairs[bounds[i] - lo:bounds[i + 1] - lo])
    return lists


def format_neighbors_tsv(nl: NeighborList) -> str:
    """TSV rows `center <TAB> neighbor <TAB> score` with 6-decimal scores."""
    return "".join(f"{nl.center}\t{item}\t{score:.6f}\n"
                   for item, score in nl.neighbors)
